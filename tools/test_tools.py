#!/usr/bin/env python3
"""Regression tests for aggregate_bench.py and check_experiments.py.

Run directly (python3 tools/test_tools.py) or via ctest (tools_py target).
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import aggregate_bench  # noqa: E402
import check_experiments  # noqa: E402


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)


def bench_doc(binary, wall_ms, claims=None):
    return {
        "binary": binary,
        "results": [
            {"name": "bm_x", "wall_ms": wall_ms, "iterations": 10},
            {"name": "bm_par/1", "wall_ms": 4.0, "iterations": 5},
            {"name": "bm_par/4", "wall_ms": 1.0, "iterations": 5},
        ],
        "claims": claims or {},
    }


class AggregateBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.out = os.path.join(self.dir.name, "BENCH_RESULTS.json")

    def tearDown(self):
        self.dir.cleanup()

    def run_agg(self, inputs, *extra):
        argv = inputs + ["-o", self.out] + list(extra)
        self.assertEqual(aggregate_bench.main(argv), 0)
        with open(self.out) as f:
            return json.load(f)

    def test_merge_preserves_history_across_runs(self):
        a = os.path.join(self.dir.name, "a.json")
        write_json(a, bench_doc("bench_a", 10.0))
        self.run_agg([a])
        write_json(a, bench_doc("bench_a", 12.0))
        write_json(a2 := os.path.join(self.dir.name, "a2.json"),
                   bench_doc("bench_a", 14.0))
        doc = self.run_agg([a])
        doc = self.run_agg([a2])
        (entry,) = doc["benchmarks"]
        bm_x = next(r for r in entry["results"] if r["name"] == "bm_x")
        # Third run: current 14.0, history holds the two prior runs in order.
        self.assertEqual(bm_x["wall_ms"], 14.0)
        self.assertEqual(bm_x["history"], [10.0, 12.0])

    def test_merge_keeps_binaries_absent_from_this_run(self):
        a = os.path.join(self.dir.name, "a.json")
        b = os.path.join(self.dir.name, "b.json")
        write_json(a, bench_doc("bench_a", 10.0))
        write_json(b, bench_doc("bench_b", 20.0))
        self.run_agg([a, b])
        write_json(a, bench_doc("bench_a", 11.0))
        doc = self.run_agg([a])  # partial run: only bench_a re-measured
        names = [e["binary"] for e in doc["benchmarks"]]
        self.assertEqual(names, ["bench_a", "bench_b"])

    def test_fresh_discards_existing(self):
        a = os.path.join(self.dir.name, "a.json")
        b = os.path.join(self.dir.name, "b.json")
        write_json(a, bench_doc("bench_a", 10.0))
        write_json(b, bench_doc("bench_b", 20.0))
        self.run_agg([a, b])
        write_json(a, bench_doc("bench_a", 11.0))
        doc = self.run_agg([a], "--fresh")
        (entry,) = doc["benchmarks"]
        self.assertEqual(entry["binary"], "bench_a")
        bm_x = next(r for r in entry["results"] if r["name"] == "bm_x")
        self.assertNotIn("history", bm_x)

    def test_history_capped(self):
        a = os.path.join(self.dir.name, "a.json")
        for i in range(aggregate_bench.HISTORY_CAP + 5):
            write_json(a, bench_doc("bench_a", float(i)))
            doc = self.run_agg([a])
        bm_x = next(r for r in doc["benchmarks"][0]["results"]
                    if r["name"] == "bm_x")
        self.assertEqual(len(bm_x["history"]), aggregate_bench.HISTORY_CAP)
        self.assertEqual(bm_x["history"][-1],
                         float(aggregate_bench.HISTORY_CAP + 3))

    def test_claims_and_speedups_carried_through(self):
        a = os.path.join(self.dir.name, "a.json")
        write_json(a, bench_doc("bench_a", 10.0, {"E1.x": 0.93}))
        doc = self.run_agg([a])
        (entry,) = doc["benchmarks"]
        self.assertEqual(entry["claims"], {"E1.x": 0.93})
        (sp,) = entry["speedups"]
        self.assertEqual(sp["threads"], 4)
        self.assertAlmostEqual(sp["speedup"], 4.0)

    def test_incremental_speedups_from_full_inc_pairs(self):
        a = os.path.join(self.dir.name, "a.json")
        doc = bench_doc("bench_incremental", 10.0)
        doc["results"] += [
            {"name": "bm_reest_m8_full", "wall_ms": 9.0, "iterations": 5},
            {"name": "bm_reest_m8_inc", "wall_ms": 1.5, "iterations": 5},
            {"name": "bm_reest_ctr_full", "wall_ms": 2.0, "iterations": 5},
            {"name": "bm_reest_ctr_inc", "wall_ms": 2.5, "iterations": 5},
            # Unpaired names contribute nothing.
            {"name": "bm_orphan_inc", "wall_ms": 1.0, "iterations": 5},
        ]
        write_json(a, doc)
        out = self.run_agg([a])
        (entry,) = out["benchmarks"]
        by_name = {s["name"]: s["speedup"]
                   for s in entry["incremental_speedups"]}
        self.assertEqual(by_name, {"bm_reest_m8": 6.0, "bm_reest_ctr": 0.8})

    def test_incremental_speedups_absent_without_pairs(self):
        a = os.path.join(self.dir.name, "a.json")
        write_json(a, bench_doc("bench_a", 10.0))
        out = self.run_agg([a])
        (entry,) = out["benchmarks"]
        self.assertNotIn("incremental_speedups", entry)

    def test_compiled_speedups_from_interp_comp_pairs(self):
        a = os.path.join(self.dir.name, "a.json")
        doc = bench_doc("bench_estimators", 10.0)
        doc["results"] += [
            {"name": "bm_zd_mult8_interp", "wall_ms": 6.0, "iterations": 5},
            {"name": "bm_zd_mult8_comp", "wall_ms": 2.5, "iterations": 5},
            # Unpaired names contribute nothing.
            {"name": "bm_orphan_comp", "wall_ms": 1.0, "iterations": 5},
        ]
        write_json(a, doc)
        out = self.run_agg([a])
        (entry,) = out["benchmarks"]
        by_name = {s["name"]: s["speedup"]
                   for s in entry["compiled_speedups"]}
        self.assertEqual(by_name, {"bm_zd_mult8": 2.4})

    def test_compiled_speedups_absent_without_pairs(self):
        a = os.path.join(self.dir.name, "a.json")
        write_json(a, bench_doc("bench_a", 10.0))
        out = self.run_agg([a])
        (entry,) = out["benchmarks"]
        self.assertNotIn("compiled_speedups", entry)

    def test_simd_speedups_from_wide_pairs(self):
        a = os.path.join(self.dir.name, "a.json")
        doc = bench_doc("bench_estimators", 10.0)
        doc["results"] += [
            {"name": "bm_zd_mult8_wide_scalar", "wall_ms": 8.0,
             "iterations": 5},
            {"name": "bm_zd_mult8_wide_avx2", "wall_ms": 4.0,
             "iterations": 5},
            {"name": "bm_zd_mult8_wide_avx512", "wall_ms": 2.0,
             "iterations": 5},
            # A host without the wide build emits no _wide_avx* entry;
            # an unpaired wide entry contributes nothing either.
            {"name": "bm_orphan_wide_avx512", "wall_ms": 1.0,
             "iterations": 5},
        ]
        write_json(a, doc)
        out = self.run_agg([a])
        (entry,) = out["benchmarks"]
        by_isa = {(s["name"], s["isa"]): s["speedup"]
                  for s in entry["simd_speedups"]}
        self.assertEqual(by_isa, {("bm_zd_mult8", "avx2"): 2.0,
                                  ("bm_zd_mult8", "avx512"): 4.0})

    def test_simd_speedups_absent_without_pairs(self):
        a = os.path.join(self.dir.name, "a.json")
        doc = bench_doc("bench_a", 10.0)
        doc["results"].append(
            {"name": "bm_solo_wide_scalar", "wall_ms": 3.0, "iterations": 5})
        write_json(a, doc)
        out = self.run_agg([a])
        (entry,) = out["benchmarks"]
        self.assertNotIn("simd_speedups", entry)

    def test_rewrite_savings_from_e25_claims(self):
        a = os.path.join(self.dir.name, "a.json")
        doc = bench_doc("bench_rewrite", 10.0, {
            "E25.saving.mult8": 0.11421,
            "E25.saving.dct8": 0.07133,
            "E25.reduction_geomean": 0.135,  # not a per-circuit saving
            "E25.soundness": 1.0,
        })
        write_json(a, doc)
        out = self.run_agg([a])
        (entry,) = out["benchmarks"]
        self.assertEqual(entry["rewrite_savings"],
                         [{"name": "dct8", "saving": 0.0713},
                          {"name": "mult8", "saving": 0.1142}])

    def test_rewrite_savings_absent_without_e25_claims(self):
        a = os.path.join(self.dir.name, "a.json")
        write_json(a, bench_doc("bench_a", 10.0, {"E1.x": 0.93}))
        out = self.run_agg([a])
        (entry,) = out["benchmarks"]
        self.assertNotIn("rewrite_savings", entry)

    def test_bdd_synth_savings_from_e27_claims(self):
        a = os.path.join(self.dir.name, "a.json")
        doc = bench_doc("bench_bdd_synth", 10.0, {
            "E27.saving.addsub8": 0.00621,
            "E27.saving.mult4": 0.0,  # honest revert-everything entry
            "E27.synth_saving_geomean": 0.0123,  # not a per-circuit saving
            "E27.soundness": 1.0,
        })
        write_json(a, doc)
        out = self.run_agg([a])
        (entry,) = out["benchmarks"]
        self.assertEqual(entry["bdd_synth_savings"],
                         [{"name": "addsub8", "saving": 0.0062},
                          {"name": "mult4", "saving": 0.0}])

    def test_bdd_synth_savings_absent_without_e27_claims(self):
        a = os.path.join(self.dir.name, "a.json")
        write_json(a, bench_doc("bench_a", 10.0, {"E25.saving.dct8": 0.07}))
        out = self.run_agg([a])
        (entry,) = out["benchmarks"]
        self.assertNotIn("bdd_synth_savings", entry)


class CheckExperimentsTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def run_check(self, claims, bands, *extra):
        bench = os.path.join(self.dir.name, "bench.json")
        expected = os.path.join(self.dir.name, "expected.json")
        write_json(bench, {"binary": "b", "results": [], "claims": claims})
        write_json(expected, {"claims": bands})
        return check_experiments.main([bench, "--expected", expected]
                                      + list(extra))

    def test_in_band_passes(self):
        rc = self.run_check(
            {"E5.g": 0.25, "E9.w": 4.0},
            {"E5.g": {"min": 0.1, "max": 0.4}, "E9.w": {"equals": 4}},
        )
        self.assertEqual(rc, 0)

    def test_below_min_fails(self):
        self.assertEqual(
            self.run_check({"E5.g": 0.05}, {"E5.g": {"min": 0.1}}), 1)

    def test_above_max_fails(self):
        self.assertEqual(
            self.run_check({"E5.g": 0.5}, {"E5.g": {"max": 0.4}}), 1)

    def test_equals_with_tolerance(self):
        self.assertEqual(
            self.run_check({"E12.h": 0.5000001},
                           {"E12.h": {"equals": 0.5, "tol": 1e-3}}), 0)
        self.assertEqual(
            self.run_check({"E12.h": 0.51},
                           {"E12.h": {"equals": 0.5, "tol": 1e-3}}), 1)

    def test_missing_claim_fails(self):
        self.assertEqual(self.run_check({}, {"E1.x": {"min": 0.9}}), 1)

    def test_missing_optional_claim_skips(self):
        self.assertEqual(
            self.run_check({}, {"E22.p": {"min": 1.5, "optional": True}}), 0)

    def test_present_optional_claim_still_checked(self):
        band = {"E22.p": {"min": 1.5, "optional": True}}
        self.assertEqual(self.run_check({"E22.p": 2.0}, band), 0)
        self.assertEqual(self.run_check({"E22.p": 1.1}, band), 1)

    def test_extra_claim_ok_unless_strict(self):
        self.assertEqual(self.run_check({"E1.x": 1.0, "E1.y": 2.0},
                                        {"E1.x": {"min": 0.9}}), 0)
        self.assertEqual(self.run_check({"E1.x": 1.0, "E1.y": 2.0},
                                        {"E1.x": {"min": 0.9}},
                                        "--strict-extra"), 1)

    def test_check_band_helper(self):
        self.assertIsNone(check_experiments.check_band(
            0.2, {"min": 0.1, "max": 0.4}))
        self.assertIsNotNone(check_experiments.check_band(0.2, {}))


if __name__ == "__main__":
    unittest.main()
