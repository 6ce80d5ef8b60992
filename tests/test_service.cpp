// Service-layer tests: the lpsd session daemon end to end, in process and
// over a real AF_UNIX socket.  The robustness contract under test:
//
//   * every frame — including 3000 seeded mutations of valid requests —
//     gets a structured JSON answer, never a crash or silence;
//   * estimates through the service are bit-identical to direct
//     power::analyze calls, cached or not, concurrent or serialized;
//   * a cancelled (deadline) mutate is all-or-nothing, and the incremental
//     analyzer's caches survive a cancellation mid-update bit-exactly;
//   * journal recovery reproduces the pre-kill state, torn final records
//     are truncated to the last committed transition;
//   * cache eviction under a memory cap degrades estimates (full re-runs)
//     without breaking them;
//   * environment knobs reject malformed values with positioned
//     diagnostics and fall back to documented defaults.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <random>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "core/metrics.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "power/activity.hpp"
#include "power/incremental.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "service/sockets.hpp"
#include "service/watchdog.hpp"

namespace lps {
namespace {

using service::Json;
using service::JsonArray;
using service::JsonObject;

std::string temp_dir(const std::string& tag) {
  std::string d = ::testing::TempDir() + "lps_service_" + tag + "_XXXXXX";
  std::vector<char> buf(d.begin(), d.end());
  buf.push_back('\0');
  EXPECT_NE(::mkdtemp(buf.data()), nullptr);
  return std::string(buf.data());
}

std::string bench_blif() {
  return blif::write_string(bench::ripple_carry_adder(8));
}

// The netlist a session actually holds after loading bench_blif(): BLIF
// round-trips through SOP decomposition, so it is NOT structurally equal to
// the generator's netlist — differential tests must compare against this.
// (Node names: inputs "a0".."b7","cin"; internal gates "n17", "n22", …)
Netlist bench_net() {
  diag::DiagEngine eng(8);
  auto parsed = blif::parse_string(bench_blif(), eng);
  EXPECT_TRUE(parsed.has_value()) << eng.str();
  return std::move(*parsed);
}

// Dispatch helper: parse the response and assert it is well-formed JSON
// with an "ok" bool — the invariant every single test leans on.
Json roundtrip(service::Service& svc, const std::string& frame) {
  std::string resp = svc.dispatch(frame);
  auto doc = service::json_parse(resp);
  EXPECT_TRUE(doc.has_value()) << "unparsable response: " << resp;
  EXPECT_TRUE(doc->is_object());
  const Json* ok = doc->find("ok");
  EXPECT_TRUE(ok && ok->is_bool()) << "response without ok: " << resp;
  return *doc;
}

bool resp_ok(const Json& resp) {
  const Json* ok = resp.find("ok");
  return ok && ok->is_bool() && ok->as_bool();
}

std::string err_code(const Json& resp) {
  const Json* e = resp.find("error");
  if (!e) return "";
  const Json* c = e->find("code");
  return c && c->is_string() ? c->as_string() : "";
}

std::string load_frame(const std::string& session, const std::string& blif,
                       std::size_t vectors = 0) {
  Json req;
  req.set("verb", Json("load"));
  req.set("session", Json(session));
  req.set("blif", Json(blif));
  if (vectors) req.set("vectors", Json(vectors));
  return req.dump();
}

// ---------------------------------------------------------------------------
// JSON layer.

TEST(ServiceJson, ParseDumpRoundTrip) {
  const char* cases[] = {
      R"(null)",
      R"(true)",
      R"(-12.5)",
      R"(12345678901234)",
      R"("he\"llo\n\t\\")",
      R"([1,2,[3,null],{"a":false}])",
      R"({"k":"v","nested":{"x":[1,2]},"n":0.25})",
  };
  for (const char* c : cases) {
    auto doc = service::json_parse(c);
    ASSERT_TRUE(doc.has_value()) << c;
    auto again = service::json_parse(doc->dump());
    ASSERT_TRUE(again.has_value()) << doc->dump();
    EXPECT_EQ(doc->dump(), again->dump()) << c;
  }
}

TEST(ServiceJson, IntegersSurviveExactly) {
  auto doc = service::json_parse("[0, -1, 4294967296, 9007199254740991]");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->dump(), "[0,-1,4294967296,9007199254740991]");
}

TEST(ServiceJson, UnicodeEscapes) {
  auto doc = service::json_parse(R"("a\u0041\u00e9\ud83d\ude00")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "aA\xc3\xa9\xf0\x9f\x98\x80");
  // Lone surrogates degrade to U+FFFD instead of failing the frame.
  auto lone = service::json_parse(R"("x\ud83dx")");
  ASSERT_TRUE(lone.has_value());
  EXPECT_EQ(lone->as_string(), "x\xef\xbf\xbdx");
}

TEST(ServiceJson, RejectsMalformedWithPosition) {
  diag::Status err;
  EXPECT_FALSE(service::json_parse("{\"a\":}", &err).has_value());
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.diagnostic().loc.file, "<frame>");
  EXPECT_GT(err.diagnostic().loc.col, 0);

  const char* bad[] = {"",       "{",       "[1,",    "nul",  "+1",
                       "01",     "1.",      "\"\\q\"", "{\"a\" 1}",
                       "[1] []", "\"unterminated"};
  for (const char* b : bad)
    EXPECT_FALSE(service::json_parse(b).has_value()) << b;
}

TEST(ServiceJson, DepthCapStopsRecursion) {
  std::string deep(service::kJsonMaxDepth + 8, '[');
  EXPECT_FALSE(service::json_parse(deep).has_value());
  std::string okdeep;
  for (int i = 0; i < 8; ++i) okdeep += "[";
  okdeep += "1";
  for (int i = 0; i < 8; ++i) okdeep += "]";
  EXPECT_TRUE(service::json_parse(okdeep).has_value());
}

TEST(ServiceJson, ControlCharactersEscapedOnDump) {
  Json s(std::string("a\x01\nb"));
  EXPECT_EQ(s.dump(), "\"a\\u0001\\nb\"");
  auto back = service::json_parse(s.dump());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), "a\x01\nb");
}

// ---------------------------------------------------------------------------
// Protocol layer.

TEST(ServiceProtocol, SessionNameValidation) {
  EXPECT_TRUE(service::valid_session_name("a"));
  EXPECT_TRUE(service::valid_session_name("s-1.backup_2"));
  EXPECT_FALSE(service::valid_session_name(""));
  EXPECT_FALSE(service::valid_session_name("."));
  EXPECT_FALSE(service::valid_session_name(".."));
  EXPECT_FALSE(service::valid_session_name("a/b"));
  EXPECT_FALSE(service::valid_session_name("a b"));
  EXPECT_FALSE(service::valid_session_name(std::string(65, 'x')));
}

TEST(ServiceProtocol, RequestValidationPaths) {
  auto err_of = [](const std::string& frame) {
    auto p = service::parse_request(frame);
    EXPECT_FALSE(p.request.has_value()) << frame;
    auto doc = service::json_parse(p.error_response);
    EXPECT_TRUE(doc.has_value());
    const Json* e = doc->find("error");
    const Json* c = e ? e->find("code") : nullptr;
    return c && c->is_string() ? c->as_string() : std::string();
  };
  EXPECT_EQ(err_of("garbage"), "bad_frame");
  EXPECT_EQ(err_of("[1,2]"), "bad_frame");
  EXPECT_EQ(err_of("{}"), "bad_request");                       // no verb
  EXPECT_EQ(err_of(R"({"verb":"warp"})"), "unknown_verb");
  EXPECT_EQ(err_of(R"({"verb":"estimate"})"), "bad_request");   // no session
  EXPECT_EQ(err_of(R"({"verb":"load","session":"../x"})"), "bad_session");
  EXPECT_EQ(err_of(R"({"verb":"ping","deadline_ms":-5})"), "bad_request");
  EXPECT_EQ(err_of(R"({"verb":"ping","deadline_ms":1.5})"), "bad_request");

  auto p = service::parse_request(
      R"({"verb":"estimate","session":"s","id":7,"deadline_ms":250})");
  ASSERT_TRUE(p.request.has_value());
  EXPECT_EQ(p.request->verb, service::Verb::Estimate);
  EXPECT_EQ(p.request->session, "s");
  EXPECT_EQ(p.request->deadline_ms, 250u);
  EXPECT_EQ(p.request->id.dump(), "7");
}

TEST(ServiceProtocol, OversizedFrameRejected) {
  std::string big(service::kMaxFrameBytes + 1, 'x');
  auto p = service::parse_request(big);
  ASSERT_FALSE(p.request.has_value());
  EXPECT_NE(p.error_response.find("bad_frame"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Watchdog.

TEST(ServiceWatchdog, FiresExpiredTokensOnly) {
  service::Watchdog dog(std::chrono::milliseconds(1));
  core::CancelToken soon, later;
  auto now = service::Watchdog::Clock::now();
  dog.arm(&soon, now + std::chrono::milliseconds(5));
  std::uint64_t id = dog.arm(&later, now + std::chrono::hours(1));
  for (int i = 0; i < 500 && !soon.cancelled(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(soon.cancelled());
  EXPECT_FALSE(later.cancelled());
  EXPECT_EQ(dog.armed(), 1u);  // fired entry was removed
  dog.disarm(id);
  EXPECT_EQ(dog.armed(), 0u);
  EXPECT_GE(dog.fired(), 1u);
}

TEST(ServiceWatchdog, DeadlineGuardZeroIsNoOp) {
  service::Watchdog dog;
  core::CancelToken t;
  {
    service::DeadlineGuard guard(dog, t, 0);
    EXPECT_EQ(dog.armed(), 0u);
  }
  {
    service::DeadlineGuard guard(dog, t, 60 * 1000);
    EXPECT_EQ(dog.armed(), 1u);
  }
  EXPECT_EQ(dog.armed(), 0u);
  EXPECT_FALSE(t.cancelled());
}

// ---------------------------------------------------------------------------
// Structural hash.

TEST(ServiceHash, InvariantUnderNamesAndRenumbering) {
  Netlist a = bench::alu(4);
  std::uint64_t h = structural_hash(a);

  Netlist renamed = a.clone();
  for (NodeId i = 0; i < renamed.size(); ++i)
    if (!renamed.is_dead(i) && !renamed.node(i).name.empty())
      renamed.node(i).name += "_x";
  EXPECT_EQ(structural_hash(renamed), h);

  // Tombstones + renumbering: splice a no-op buffer pair in and take it
  // back out via substitute/remove; the function and structure are back to
  // the original even though ids shifted and tombstones remain.
  Netlist edited = a.clone();
  NodeId o = edited.outputs()[0];
  NodeId f = edited.node(o).fanins[0];
  NodeId b1 = edited.add_buf(f);
  edited.replace_fanin(o, 0, b1);
  EXPECT_NE(structural_hash(edited), h);
  edited.substitute(b1, f);
  EXPECT_EQ(structural_hash(edited), h);

  // compact() renumbers wholesale; still invariant.
  edited.compact();
  EXPECT_EQ(structural_hash(edited), h);
}

TEST(ServiceHash, SensitiveToParameters) {
  Netlist a = bench::ripple_carry_adder(4);
  std::uint64_t h = structural_hash(a);
  Netlist b = a.clone();
  NodeId g = b.outputs()[0];
  b.node(g).size = 4.0;
  EXPECT_NE(structural_hash(b), h);
  Netlist c = a.clone();
  c.node(c.outputs()[0]).delay += 3;
  EXPECT_NE(structural_hash(c), h);
}

// ---------------------------------------------------------------------------
// Environment knobs (core/env.hpp).

TEST(ServiceEnv, LongParsesAndRejects) {
  auto p = core::parse_env_long("LPS_THREADS", "8", 1, 256, 1);
  EXPECT_TRUE(p.ok);
  EXPECT_TRUE(p.present);
  EXPECT_EQ(p.value, 8);

  p = core::parse_env_long("LPS_THREADS", nullptr, 1, 256, 7);
  EXPECT_TRUE(p.ok);
  EXPECT_FALSE(p.present);
  EXPECT_EQ(p.value, 7);

  p = core::parse_env_long("LPS_THREADS", "8x", 1, 256, 1);
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.value, 1);  // default, never the half-parsed 8
  EXPECT_EQ(p.status.diagnostic().loc.file, "$LPS_THREADS");
  EXPECT_EQ(p.status.diagnostic().loc.col, 2);  // the 'x'

  p = core::parse_env_long("LPS_SIM_BLOCK", "banana", 1, 16, 4);
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.value, 4);
  EXPECT_EQ(p.status.diagnostic().loc.col, 1);

  p = core::parse_env_long("LPS_THREADS", "999999", 1, 256, 1);
  EXPECT_FALSE(p.ok);  // out of range
  EXPECT_EQ(p.value, 1);

  p = core::parse_env_long("LPS_THREADS", "", 1, 256, 1);
  EXPECT_FALSE(p.ok);

  // Saturation instead of wraparound on absurd magnitudes.
  p = core::parse_env_long("LPS_THREADS", "99999999999999999999999", 1, 256, 1);
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.value, 1);
}

TEST(ServiceEnv, BoolSpellingsAreClosed) {
  for (const char* t : {"1", "true"}) {
    auto p = core::parse_env_bool("LPS_BDD_SYNTH_SIFT", t, false);
    EXPECT_TRUE(p.ok) << t;
    EXPECT_EQ(p.value, 1) << t;
  }
  for (const char* t : {"0", "false"}) {
    auto p = core::parse_env_bool("LPS_BDD_SYNTH_SIFT", t, true);
    EXPECT_TRUE(p.ok) << t;
    EXPECT_EQ(p.value, 0) << t;
  }
  for (const char* t : {"TRUE", "yes", "on", "2", " 1", ""}) {
    auto p = core::parse_env_bool("LPS_BDD_SYNTH_SIFT", t, true);
    EXPECT_FALSE(p.ok) << t;
    EXPECT_EQ(p.value, 1) << t;  // default
    EXPECT_EQ(p.status.diagnostic().loc.file, "$LPS_BDD_SYNTH_SIFT");
  }
}

// ---------------------------------------------------------------------------
// Verb round trips (in-process dispatch).

TEST(ServiceVerbs, LoadEstimateMutateRollback) {
  service::Service svc;
  Json ping = roundtrip(svc, R"({"verb":"ping","id":1})");
  EXPECT_TRUE(resp_ok(ping));
  EXPECT_EQ(ping.find("id")->dump(), "1");

  Json load = roundtrip(svc, load_frame("s1", bench_blif()));
  ASSERT_TRUE(resp_ok(load));
  std::string hash0 = load.find("hash")->as_string();

  // Estimate must agree bit-for-bit with a direct power::analyze.
  Netlist net = bench_net();
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  auto direct = power::analyze(net, ao);
  Json est = roundtrip(svc, R"({"verb":"estimate","session":"s1"})");
  ASSERT_TRUE(resp_ok(est));
  EXPECT_EQ(est.find("power_w")->as_number(),
            direct.report.breakdown.total_w());
  EXPECT_TRUE(est.find("cached")->as_bool());

  // An uncached estimate (different seed) equals a fresh direct run too.
  ao.seed = 99;
  auto direct99 = power::analyze(net, ao);
  Json est99 =
      roundtrip(svc, R"({"verb":"estimate","session":"s1","seed":99})");
  ASSERT_TRUE(resp_ok(est99));
  EXPECT_EQ(est99.find("power_w")->as_number(),
            direct99.report.breakdown.total_w());
  EXPECT_FALSE(est99.find("cached")->as_bool());

  Json mut = roundtrip(
      svc,
      R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":3.0}]})");
  ASSERT_TRUE(resp_ok(mut));
  EXPECT_NE(mut.find("hash")->as_string(), hash0);
  EXPECT_EQ(mut.find("journal_records")->as_number(), 1);

  Json rb = roundtrip(svc, R"({"verb":"rollback","session":"s1"})");
  ASSERT_TRUE(resp_ok(rb));
  EXPECT_EQ(rb.find("hash")->as_string(), hash0);

  Json rb2 = roundtrip(svc, R"({"verb":"rollback","session":"s1"})");
  EXPECT_FALSE(resp_ok(rb2));
  EXPECT_EQ(err_code(rb2), "nothing_to_do");
}

TEST(ServiceVerbs, ErrorsAreStructuredAndSessionScoped) {
  service::Service svc;
  EXPECT_EQ(err_code(roundtrip(svc, R"({"verb":"estimate","session":"nope"})")),
            "no_session");
  EXPECT_EQ(err_code(roundtrip(
                svc, R"({"verb":"load","session":"s1","blif":"not blif"})")),
            "parse_error");
  // A failed load leaves no usable netlist behind.
  EXPECT_EQ(err_code(roundtrip(svc, R"({"verb":"estimate","session":"s1"})")),
            "no_session");

  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif()))));
  Json before = roundtrip(svc, R"({"verb":"stat","session":"s1"})");
  std::string hash = before.find("hash")->as_string();

  // A rejected edit script must leave the netlist untouched (rolled back).
  const char* bad_mutates[] = {
      R"({"verb":"mutate","session":"s1","ops":[{"op":"remove","node":"a0"}]})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"add_gate","type":"mux","fanins":["a0","b0"]}]})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"replace_fanin","node":"n17","index":99,"with":"a0"}]})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":99999,"value":2.0}]})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":3.0},{"op":"frobnicate"}]})",
      R"({"verb":"mutate","session":"s1","ops":[]})",
      R"({"verb":"mutate","session":"s1","ops":7})",
  };
  for (const char* frame : bad_mutates) {
    Json r = roundtrip(svc, frame);
    EXPECT_FALSE(resp_ok(r)) << frame;
    EXPECT_EQ(err_code(r), "mutate_error") << frame;
  }
  Json after = roundtrip(svc, R"({"verb":"stat","session":"s1"})");
  EXPECT_EQ(after.find("hash")->as_string(), hash);
  EXPECT_EQ(after.find("journal_records")->as_number(), 0);
}

TEST(ServiceVerbs, OptimizeKeepsResultAndJournals) {
  service::Service svc;
  ASSERT_TRUE(
      resp_ok(roundtrip(svc, load_frame("s1", bench_blif(), /*vectors=*/256))));
  Json opt = roundtrip(
      svc, R"({"verb":"optimize","session":"s1","flow":"combinational"})");
  ASSERT_TRUE(resp_ok(opt));
  EXPECT_GT(opt.find("stages")->as_number(), 1);
  EXPECT_EQ(opt.find("journal_records")->as_number(), 1);
  // Rollback of an optimize replays the journal prefix back to the load.
  Json rb = roundtrip(svc, R"({"verb":"rollback","session":"s1"})");
  ASSERT_TRUE(resp_ok(rb));
  Netlist net = bench_net();
  EXPECT_EQ(rb.find("hash")->as_string(),
            service::format_hash(structural_hash(net)));
}

// ---------------------------------------------------------------------------
// Cancellation / deadlines.

TEST(ServiceCancel, SessionEstimateCancelsCleanly) {
  service::Session s("s", "");
  ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
  core::CancelToken t;
  t.cancel();
  Json params;
  params.set("seed", Json(123));  // forces the uncached (simulating) path
  EXPECT_THROW(s.estimate(params, &t), core::CancelledError);
  // The session still answers normally afterwards.
  Json none;
  auto r = s.estimate(none, nullptr);
  EXPECT_TRUE(r.status.is_ok());
}

TEST(ServiceCancel, CancelledMutateIsAllOrNothing) {
  service::Session s("s", "");
  ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
  std::uint64_t hash0 = s.hash();
  auto baseline = // bit-exact expected analysis of the unmutated netlist
      power::analyze(bench_net(), [] {
        power::AnalysisOptions ao;
        ao.mode = power::ActivityMode::ZeroDelay;
        return ao;
      }());

  JsonArray ops_a;
  {
    Json op;
    op.set("op", Json("set_size"));
    op.set("node", Json("n17"));
    op.set("value", Json(2.5));
    ops_a.push_back(op);
  }
  Json ops{ops_a};

  // Fire the token at a range of poll points inside the re-estimate; every
  // one must roll back to exactly the pre-request state.
  bool cancelled_at_least_once = false;
  for (int budget : {0, 1, 2, 5, 9}) {
    core::CancelToken t;
    t.cancel_after(budget);
    auto r = s.mutate(ops, &t);
    if (r.status.is_ok()) continue;  // budget outlived the update: fine
    EXPECT_EQ(r.code, service::ErrorCode::Deadline);
    cancelled_at_least_once = true;
    EXPECT_EQ(s.hash(), hash0);
    EXPECT_EQ(s.journal_records(), 0u);
    // The analyzer caches must have survived the aborted update: a cached
    // estimate still equals the direct analysis of the unmutated netlist.
    Json none;
    auto est = s.estimate(none, nullptr);
    ASSERT_TRUE(est.status.is_ok());
    double power = 0;
    for (auto& [k, v] : est.payload)
      if (k == "power_w") power = v.as_number();
    EXPECT_EQ(power, baseline.report.breakdown.total_w());
  }
  EXPECT_TRUE(cancelled_at_least_once);

  // And with no token the same mutate commits.
  auto r = s.mutate(ops, nullptr);
  EXPECT_TRUE(r.status.is_ok());
  EXPECT_NE(s.hash(), hash0);
}

TEST(ServiceCancel, IncrementalReanalyzeCancellationDifferential) {
  // Satellite: a cancellation mid-reanalyze must leave the analyzer's
  // caches exactly as before the call (strong exception safety), proven
  // differentially against fresh full analyses at a range of poll points.
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 1024;  // 16 frames -> the cone sweep polls 16 times

  bool cancelled_at_least_once = false, committed_at_least_once = false;
  for (int budget : {0, 1, 3, 7, 1000000}) {
    Netlist net = bench::alu(4);
    core::CancelToken t;
    power::IncrementalAnalyzer inc(net, ao);
    inc.set_cancel(&t);
    double baseline = inc.analysis().report.breakdown.total_w();

    net.begin_undo();
    NodeId o = net.outputs()[0];
    NodeId f = net.node(o).fanins[0];
    net.replace_fanin(o, 0, net.add_not(net.add_not(f)));
    auto touched = net.touched_nodes();

    t.cancel_after(budget);
    try {
      inc.reanalyze(touched);
      net.commit_undo();
      committed_at_least_once = true;
    } catch (const core::CancelledError&) {
      cancelled_at_least_once = true;
      net.rollback_undo();
      // Caches restored: the held analysis is still the pre-call baseline…
      EXPECT_EQ(inc.analysis().report.breakdown.total_w(), baseline);
    }
    // …and in either outcome the analyzer agrees bit-for-bit with a fresh
    // full analysis of the netlist as it now stands.
    auto full = power::analyze(net, ao);
    EXPECT_EQ(inc.analysis().report.breakdown.total_w(),
              full.report.breakdown.total_w())
        << "budget " << budget;
  }
  EXPECT_TRUE(cancelled_at_least_once);
  EXPECT_TRUE(committed_at_least_once);
}

TEST(ServiceCancel, WatchdogDeadlineFiresOnSlowEstimate) {
  service::Service svc;
  ASSERT_TRUE(resp_ok(
      roundtrip(svc, load_frame("s1", blif::write_string(
                                          bench::array_multiplier(8))))));
  // Timed mode with a large vector count runs long enough (hundreds of ms)
  // that a 1 ms deadline reliably fires at a poll point.
  Json req;
  req.set("verb", Json("estimate"));
  req.set("session", Json("s1"));
  req.set("mode", Json("timed"));
  req.set("vectors", Json(200000));
  req.set("deadline_ms", Json(1));
  Json r = roundtrip(svc, req.dump());
  EXPECT_FALSE(resp_ok(r));
  EXPECT_EQ(err_code(r), "deadline");
  // The session is fully usable afterwards.
  EXPECT_TRUE(
      resp_ok(roundtrip(svc, R"({"verb":"estimate","session":"s1"})")));
}

// ---------------------------------------------------------------------------
// Graceful degradation.

TEST(ServiceDegrade, ForcedTapeFailureFallsBackInsideMutate) {
  service::Session s("s", "");
  ASSERT_TRUE(s.load(bench_blif(), 2048, 0xC0FFEE, true, nullptr).status.is_ok());
  double before = core::metrics::value("power.inc.tape_fallback");
  power::detail::force_tape_failures(1);
  JsonArray arr;
  {
    Json op;
    op.set("op", Json("set_size"));
    op.set("node", Json("n22"));
    op.set("value", Json(2.0));
    arr.push_back(op);
  }
  auto r = s.mutate(Json{arr}, nullptr);
  EXPECT_TRUE(r.status.is_ok());  // degraded, not failed
  power::detail::force_tape_failures(0);
  // The estimate after the degraded update still matches a fresh analysis.
  Netlist net = bench_net();
  auto* n1 = net.find("n22") ? &net.node(*net.find("n22")) : nullptr;
  ASSERT_NE(n1, nullptr);
  n1->size = 2.0;
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  auto full = power::analyze(net, ao);
  Json none;
  auto est = s.estimate(none, nullptr);
  ASSERT_TRUE(est.status.is_ok());
  for (auto& [k, v] : est.payload)
    if (k == "power_w")
      EXPECT_EQ(v.as_number(), full.report.breakdown.total_w());
  EXPECT_GE(core::metrics::value("power.inc.tape_fallback"), before);
}

TEST(ServiceDegrade, EvictionDegradesEstimatesWithoutBreakingThem) {
  service::ServiceOptions so;
  so.memory_cap_bytes = 1;  // evict everything not currently in use
  service::Service svc(so);
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("a", bench_blif()))));
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("b", bench_blif()))));
  // Loading b (the later request) evicted a's caches under the 1-byte cap.
  Json stat_a = roundtrip(svc, R"({"verb":"stat","session":"a"})");
  EXPECT_EQ(stat_a.find("cache_bytes")->as_number(), 0);
  EXPECT_FALSE(stat_a.find("analyzer")->as_bool());
  // a's estimates still work — served by full analysis, bit-identical.
  Netlist net = bench_net();
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  auto direct = power::analyze(net, ao);
  Json est = roundtrip(svc, R"({"verb":"estimate","session":"a"})");
  ASSERT_TRUE(resp_ok(est));
  EXPECT_EQ(est.find("power_w")->as_number(),
            direct.report.breakdown.total_w());
  EXPECT_FALSE(est.find("cached")->as_bool());
  Json stat2 = roundtrip(svc, R"({"verb":"stat","session":"a"})");
  EXPECT_GE(stat2.find("estimates_degraded")->as_number(), 1);
}

// ---------------------------------------------------------------------------
// Concurrency: estimates in parallel vs serialized must be bit-identical.

TEST(ServiceConcurrency, ParallelEstimatesMatchSerialized) {
  service::Service svc;
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif()))));

  auto frame_for = [](int seed) {
    Json req;
    req.set("verb", Json("estimate"));
    req.set("session", Json("s1"));
    req.set("seed", Json(seed));
    req.set("id", Json(seed));
    return req.dump();
  };
  constexpr int kThreads = 8, kPerThread = 4;

  // Serialized reference.
  std::vector<std::string> expect(kThreads * kPerThread);
  for (int i = 0; i < kThreads * kPerThread; ++i)
    expect[i] = svc.dispatch(frame_for(i % 5));

  // Concurrent run of the identical request stream.
  std::vector<std::string> got(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int k = t * kPerThread + i;
        got[k] = svc.dispatch(frame_for(k % 5));
      }
    });
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads * kPerThread; ++i)
    EXPECT_EQ(got[i], expect[i]) << "estimate " << i;
}

// ---------------------------------------------------------------------------
// Journal recovery.

TEST(ServiceJournal, RecoverReproducesCommittedState) {
  std::string dir = temp_dir("recover");
  std::string hash_after;
  {
    service::ServiceOptions so;
    so.journal_dir = dir;
    service::Service svc(so);
    ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif()))));
    ASSERT_TRUE(resp_ok(roundtrip(
        svc,
        R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":2.0}]})")));
    Json mut2 = roundtrip(
        svc,
        R"({"verb":"mutate","session":"s1","ops":[{"op":"add_gate","type":"not","fanins":["n17"],"name":"n17_inv"},{"op":"add_output","node":"n17_inv"}]})");
    ASSERT_TRUE(resp_ok(mut2));
    hash_after = mut2.find("hash")->as_string();
  }  // destructor = abrupt end; journal survives

  service::ServiceOptions so;
  so.journal_dir = dir;
  service::Service svc2(so);
  EXPECT_EQ(svc2.recover_sessions(), 1u);
  Json stat = roundtrip(svc2, R"({"verb":"stat","session":"s1"})");
  ASSERT_TRUE(resp_ok(stat));
  EXPECT_EQ(stat.find("hash")->as_string(), hash_after);
  EXPECT_EQ(stat.find("journal_records")->as_number(), 2);
  // The recovered session keeps working (estimate + rollback).
  EXPECT_TRUE(
      resp_ok(roundtrip(svc2, R"({"verb":"estimate","session":"s1"})")));
  EXPECT_TRUE(
      resp_ok(roundtrip(svc2, R"({"verb":"rollback","session":"s1"})")));
}

TEST(ServiceJournal, TornFinalRecordTruncatesToCommittedPrefix) {
  std::string dir = temp_dir("torn");
  std::string hash_mid;
  {
    service::ServiceOptions so;
    so.journal_dir = dir;
    service::Service svc(so);
    ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif()))));
    Json mut1 = roundtrip(
        svc,
        R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":2.0}]})");
    ASSERT_TRUE(resp_ok(mut1));
    hash_mid = mut1.find("hash")->as_string();
    ASSERT_TRUE(resp_ok(roundtrip(
        svc,
        R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n22","value":3.0}]})")));
  }
  // Simulate a kill mid-append of the last record: drop its tail bytes.
  std::string path = dir + "/s1.journal";
  std::ifstream is(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  is.close();
  ASSERT_GT(data.size(), 30u);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(data.data(), static_cast<std::streamsize>(data.size() - 25));
  os.close();

  service::ServiceOptions so;
  so.journal_dir = dir;
  service::Service svc2(so);
  EXPECT_EQ(svc2.recover_sessions(), 1u);
  Json stat = roundtrip(svc2, R"({"verb":"stat","session":"s1"})");
  ASSERT_TRUE(resp_ok(stat));
  // Fully rolled back to the last committed transition — the first mutate.
  EXPECT_EQ(stat.find("journal_records")->as_number(), 1);
  EXPECT_EQ(stat.find("hash")->as_string(), hash_mid);
}

TEST(ServiceJournal, GarbageJournalIsSkippedNotFatal) {
  std::string dir = temp_dir("garbage");
  {
    std::ofstream os(dir + "/bad.journal");
    os << "this is not a journal\n";
  }
  service::ServiceOptions so;
  so.journal_dir = dir;
  service::Service svc(so);
  EXPECT_EQ(svc.recover_sessions(), 0u);
  // The daemon is fine; the broken name is still loadable fresh.
  EXPECT_TRUE(resp_ok(roundtrip(svc, load_frame("bad", bench_blif()))));
}

// ---------------------------------------------------------------------------
// Protocol fuzz: 3000 seeded mutations of valid frames, every one answered.

TEST(ServiceFuzz, MutatedFramesAlwaysGetStructuredAnswers) {
  service::Service svc;
  ASSERT_TRUE(resp_ok(roundtrip(svc, load_frame("s1", bench_blif(), 256))));

  const std::string corpus[] = {
      load_frame("s2", bench_blif(), 256),
      R"({"verb":"ping","id":42})",
      R"({"verb":"estimate","session":"s1","seed":7,"deadline_ms":5000})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"set_size","node":"n17","value":2.0}]})",
      R"({"verb":"mutate","session":"s1","ops":[{"op":"add_gate","type":"and","fanins":["a0","b0"],"name":"t1"}]})",
      R"({"verb":"rollback","session":"s1"})",
      R"({"verb":"stat","session":"s1"})",
      R"({"verb":"stat"})",
  };

  std::mt19937 rng(0xF00D);
  auto mutate_frame = [&](std::string s) {
    int kind = static_cast<int>(rng() % 6);
    if (s.empty()) return s;
    std::size_t pos = rng() % s.size();
    switch (kind) {
      case 0: s[pos] = static_cast<char>(rng() % 256); break;       // smash
      case 1: s.erase(pos, std::min<std::size_t>(s.size() - pos,
                                                 1 + rng() % 8)); break;
      case 2: s.insert(pos, std::string(1 + rng() % 4,
                                        static_cast<char>(rng() % 256)));
              break;
      case 3: s = s.substr(0, pos); break;                          // truncate
      case 4: std::swap(s[pos], s[rng() % s.size()]); break;
      case 5: s += s.substr(0, pos); break;                         // duplicate
    }
    return s;
  };

  int structured = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string frame = corpus[rng() % std::size(corpus)];
    int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) frame = mutate_frame(std::move(frame));
    std::string resp = svc.dispatch(frame);
    auto doc = service::json_parse(resp);
    ASSERT_TRUE(doc.has_value()) << "frame " << i << ": " << frame;
    const Json* ok = doc->find("ok");
    ASSERT_TRUE(ok && ok->is_bool()) << "frame " << i;
    ++structured;
  }
  EXPECT_EQ(structured, 3000);
  // After 3000 hostile frames the daemon still works end to end.
  EXPECT_TRUE(
      resp_ok(roundtrip(svc, R"({"verb":"estimate","session":"s1"})")));
}

// ---------------------------------------------------------------------------
// Sockets.

TEST(ServiceSockets, RoundTripAndHostileClients) {
  std::string dir = temp_dir("sock");
  std::string path = dir + "/d.sock";
  service::Service svc;
  service::SocketServer server(svc, path);
  ASSERT_TRUE(server.start().is_ok());
  std::thread serving([&] { server.serve(); });

  {
    service::SocketClient c;
    ASSERT_TRUE(c.connect(path).is_ok());
    auto pong = c.roundtrip(R"({"verb":"ping"})");
    ASSERT_TRUE(pong.has_value());
    EXPECT_NE(pong->find("\"pong\":true"), std::string::npos);

    auto loaded = c.roundtrip(load_frame("s1", bench_blif()));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_NE(loaded->find("\"ok\":true"), std::string::npos);

    // Pipelining: two frames in one write, two responses back.
    ASSERT_TRUE(c.send_raw("{\"verb\":\"ping\",\"id\":1}\n"
                           "{\"verb\":\"ping\",\"id\":2}\n"));
    auto r1 = c.read_line(), r2 = c.read_line();
    ASSERT_TRUE(r1.has_value() && r2.has_value());
    EXPECT_NE(r1->find("\"id\":1"), std::string::npos);
    EXPECT_NE(r2->find("\"id\":2"), std::string::npos);
  }

  {
    // Hostile: truncated frame then disconnect — daemon must survive.
    service::SocketClient c;
    ASSERT_TRUE(c.connect(path).is_ok());
    ASSERT_TRUE(c.send_raw(R"({"verb":"estimate","ses)"));
    c.close();
  }
  {
    // Hostile: binary garbage with newlines — structured errors back.
    service::SocketClient c;
    ASSERT_TRUE(c.connect(path).is_ok());
    ASSERT_TRUE(c.send_raw("\x01\x02\xff garbage\n"));
    auto r = c.read_line();
    ASSERT_TRUE(r.has_value());
    EXPECT_NE(r->find("bad_frame"), std::string::npos);
  }
  {
    // The daemon still answers a well-behaved client afterwards.
    service::SocketClient c;
    ASSERT_TRUE(c.connect(path).is_ok());
    auto est = c.roundtrip(R"({"verb":"estimate","session":"s1"})");
    ASSERT_TRUE(est.has_value());
    EXPECT_NE(est->find("\"ok\":true"), std::string::npos);
    auto bye = c.roundtrip(R"({"verb":"shutdown"})");
    ASSERT_TRUE(bye.has_value());
  }
  serving.join();
}

}  // namespace
}  // namespace lps
