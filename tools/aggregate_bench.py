#!/usr/bin/env python3
"""Aggregate per-binary bench JSON files into BENCH_RESULTS.json.

Each bench binary run with `--json <file>` writes
    {"binary": "bench_estimators", "results": [{"name", "wall_ms", "iterations"}, ...],
     "claims": {...}, "metrics": {...}}
This script merges those files, computes parallel speedups for benchmarks
registered with thread-count Args (names like "bm_foo_par/1" vs
"bm_foo_par/4"), computes incremental-vs-full speedups for paired names
("bm_foo_full" vs "bm_foo_inc"), computes compiled-vs-interpreted engine
speedups for paired names ("bm_foo_interp" vs "bm_foo_comp"), lifts the
per-circuit datapath-rewrite savings out of the E25.saving.* claims, and
writes one top-level document so the perf trajectory is tracked across PRs.

By default an existing output file is MERGED, not overwritten: binaries
absent from this run keep their previous entry, and each benchmark keeps a
bounded wall_ms history (previous runs, oldest first) so a single partial
run no longer wipes the trajectory.  Pass --fresh to discard the existing
file and start over.

Usage:
    python3 tools/aggregate_bench.py out/*.json -o BENCH_RESULTS.json
    python3 tools/aggregate_bench.py out/*.json -o BENCH_RESULTS.json --fresh
"""

import argparse
import json
import os
import re
import sys

HISTORY_CAP = 20  # prior wall_ms samples kept per benchmark


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "binary" not in doc or "results" not in doc:
        raise ValueError(f"{path}: not a bench JSON file")
    return doc


def speedups(results):
    """Pair up 'name/1' baselines with 'name/N' variants."""
    base = {}
    for r in results:
        m = re.fullmatch(r"(.+)/1", r["name"])
        if m:
            base[m.group(1)] = r["wall_ms"]
    out = []
    for r in results:
        m = re.fullmatch(r"(.+)/(\d+)", r["name"])
        if not m or m.group(2) == "1":
            continue
        stem, threads = m.group(1), int(m.group(2))
        if stem in base and r["wall_ms"] > 0:
            out.append(
                {
                    "name": stem,
                    "threads": threads,
                    "speedup": round(base[stem] / r["wall_ms"], 3),
                }
            )
    return out


def incremental_speedups(results):
    """Pair up '<stem>_full' baselines with '<stem>_inc' variants.

    bench_incremental registers each re-estimation workload twice: a full
    power::analyze per iteration (_full) and an IncrementalAnalyzer cone
    update (_inc).  The ratio is the wall-clock win of cone-scoped
    re-estimation; < 1 is possible (and honest) when the touched cone
    covers the whole circuit, e.g. a mutation feeding a register chain.
    """
    full = {}
    for r in results:
        m = re.fullmatch(r"(.+)_full", r["name"])
        if m:
            full[m.group(1)] = r["wall_ms"]
    out = []
    for r in results:
        m = re.fullmatch(r"(.+)_inc", r["name"])
        if m and m.group(1) in full and r["wall_ms"] > 0:
            out.append(
                {
                    "name": m.group(1),
                    "speedup": round(full[m.group(1)] / r["wall_ms"], 3),
                }
            )
    return out


def compiled_speedups(results):
    """Pair up '<stem>_interp' baselines with '<stem>_comp' variants.

    Engine-paired benchmarks run the same workload through the per-gate
    interpreter (_interp) and the compiled flat tape (_comp); the ratio is
    the wall-clock win of the compiled simulation engine.
    """
    interp = {}
    for r in results:
        m = re.fullmatch(r"(.+)_interp", r["name"])
        if m:
            interp[m.group(1)] = r["wall_ms"]
    out = []
    for r in results:
        m = re.fullmatch(r"(.+)_comp", r["name"])
        if m and m.group(1) in interp and r["wall_ms"] > 0:
            out.append(
                {
                    "name": m.group(1),
                    "speedup": round(interp[m.group(1)] / r["wall_ms"], 3),
                }
            )
    return out


def simd_speedups(results):
    """Pair '<stem>_wide_scalar' baselines with '<stem>_wide_<isa>' variants.

    Width-paired benchmarks run the same compiled-tape workload with the
    kernel lane width forced to scalar and to each wide ISA; the ratio is
    the wall-clock win of the SIMD kernels alone.  A width the host cannot
    run is skipped by the bench (SkipWithError) and absent from the JSON,
    so pairs simply don't form on narrow machines.
    """
    scalar = {}
    for r in results:
        m = re.fullmatch(r"(.+)_wide_scalar", r["name"])
        if m:
            scalar[m.group(1)] = r["wall_ms"]
    out = []
    for r in results:
        m = re.fullmatch(r"(.+)_wide_(avx2|avx512)", r["name"])
        if m and m.group(1) in scalar and r["wall_ms"] > 0:
            out.append(
                {
                    "name": m.group(1),
                    "isa": m.group(2),
                    "speedup": round(scalar[m.group(1)] / r["wall_ms"], 3),
                }
            )
    return out


def rewrite_savings(claims):
    """Extract the per-circuit datapath-rewrite savings table.

    bench_rewrite claims the engine-level switching reduction per family
    circuit as 'E25.saving.<circuit>'; surfacing them as a column keeps
    the optimization trajectory visible next to the timing history.
    """
    out = []
    for key in sorted(claims or {}):
        m = re.fullmatch(r"E25\.saving\.(.+)", key)
        if m:
            out.append({"name": m.group(1), "saving": round(claims[key], 4)})
    return out


def bdd_synth_savings(claims):
    """Extract the per-circuit hybrid BDD->MUX extraction savings table.

    bench_bdd_synth claims the engine-level switching reduction per family
    circuit as 'E27.saving.<circuit>'.  Hybrid extraction keeps a cone only
    when the MUX network beats the original structure through the power
    oracle, so most entries are honestly 0.0 — the column tracks where (and
    whether) the extractor still finds wins as the generators evolve.
    """
    out = []
    for key in sorted(claims or {}):
        m = re.fullmatch(r"E27\.saving\.(.+)", key)
        if m:
            out.append({"name": m.group(1), "saving": round(claims[key], 4)})
    return out


def load_existing(path):
    """Previous aggregate, keyed by binary name.  Missing/corrupt -> {}."""
    try:
        with open(path) as f:
            doc = json.load(f)
        return {b["binary"]: b for b in doc.get("benchmarks", [])}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def merge_results(new_results, old_entry):
    """Attach per-benchmark wall_ms history from the previous aggregate.

    The previous run's wall_ms (plus its own history, if any) becomes the
    new record's "history" list, oldest first, capped at HISTORY_CAP.
    """
    old_by_name = {r["name"]: r for r in (old_entry or {}).get("results", [])}
    merged = []
    for r in new_results:
        rec = dict(r)
        prev = old_by_name.get(rec["name"])
        if prev is not None:
            history = list(prev.get("history", []))
            if "wall_ms" in prev:
                history.append(prev["wall_ms"])
            rec["history"] = history[-HISTORY_CAP:]
        merged.append(rec)
    return merged


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("inputs", nargs="+", help="per-binary bench JSON files")
    ap.add_argument("-o", "--output", default="BENCH_RESULTS.json")
    ap.add_argument(
        "--fresh",
        action="store_true",
        help="discard any existing output file instead of merging into it",
    )
    args = ap.parse_args(argv)

    existing = {} if args.fresh else load_existing(args.output)

    by_binary = dict(existing)  # binaries not re-run keep their old entry
    for path in args.inputs:
        doc = load(path)
        old = existing.get(doc["binary"])
        entry = {
            "binary": doc["binary"],
            "results": merge_results(doc["results"], old),
            "speedups": speedups(doc["results"]),
        }
        inc = incremental_speedups(doc["results"])
        if inc:
            entry["incremental_speedups"] = inc
        comp = compiled_speedups(doc["results"])
        if comp:
            entry["compiled_speedups"] = comp
        simd = simd_speedups(doc["results"])
        if simd:
            entry["simd_speedups"] = simd
        rw = rewrite_savings(doc.get("claims"))
        if rw:
            entry["rewrite_savings"] = rw
        bs = bdd_synth_savings(doc.get("claims"))
        if bs:
            entry["bdd_synth_savings"] = bs
        if doc.get("claims"):
            entry["claims"] = doc["claims"]
        by_binary[doc["binary"]] = entry
    benches = sorted(by_binary.values(), key=lambda b: b["binary"])

    tmp = args.output + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"benchmarks": benches}, f, indent=2)
        f.write("\n")
    os.replace(tmp, args.output)
    total = sum(len(b["results"]) for b in benches)
    print(f"{args.output}: {len(benches)} binaries, {total} benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
