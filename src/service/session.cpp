#include "service/session.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "netlist/blif.hpp"
#include "power/activity.hpp"

namespace lps::service {

namespace metrics = lps::core::metrics;

std::string format_hash(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::optional<std::uint64_t> parse_hash(const Json& j) {
  if (!j.is_string()) return std::nullopt;
  const std::string& s = j.as_string();
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') return std::nullopt;
  std::uint64_t h = 0;
  for (std::size_t i = 2; i < s.size(); ++i) {
    char c = s[i];
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return std::nullopt;
    h = (h << 4) | static_cast<std::uint64_t>(d);
  }
  return h;
}

std::optional<GateType> gate_type_from(std::string_view s) {
  if (s == "buf") return GateType::Buf;
  if (s == "not") return GateType::Not;
  if (s == "and") return GateType::And;
  if (s == "or") return GateType::Or;
  if (s == "nand") return GateType::Nand;
  if (s == "nor") return GateType::Nor;
  if (s == "xor") return GateType::Xor;
  if (s == "xnor") return GateType::Xnor;
  if (s == "mux") return GateType::Mux;
  return std::nullopt;
}

// Resolve an op operand into a live node: a number is a NodeId, a string is
// a node name.  Returns kNoNode with `err` set on any problem.
NodeId resolve_node(const Netlist& net, const Json* j, std::string& err,
                    const char* what) {
  if (!j) {
    err = std::string("missing node reference '") + what + "'";
    return kNoNode;
  }
  if (j->is_number()) {
    double d = j->as_number(-1);
    if (d < 0 || d >= static_cast<double>(net.size()) ||
        static_cast<double>(static_cast<NodeId>(d)) != d) {
      err = std::string("'") + what + "' is not a valid node id";
      return kNoNode;
    }
    NodeId id = static_cast<NodeId>(d);
    if (net.is_dead(id)) {
      err = std::string("'") + what + "' refers to a removed node";
      return kNoNode;
    }
    return id;
  }
  if (j->is_string()) {
    auto id = net.find(j->as_string());
    if (!id) {
      err = std::string("no node named '") + j->as_string() + "'";
      return kNoNode;
    }
    return *id;
  }
  err = std::string("'") + what + "' must be a node id or a node name";
  return kNoNode;
}

}  // namespace

Session::Session(std::string name, std::string journal_path)
    : name_(std::move(name)), journal_path_(std::move(journal_path)) {}

void Session::poison(const std::string& why) {
  poisoned_.store(true, std::memory_order_relaxed);
  poison_reason_ = why;
  metrics::count("service.session_poisoned");
}

// ---- edit-script interpreter ----------------------------------------------

std::string Session::apply_ops(Netlist& net, const Json& ops,
                               std::vector<NodeId>* created) {
  if (!ops.is_array()) return "'ops' must be an array";
  if (ops.as_array().empty()) return "'ops' must not be empty";
  std::size_t idx = 0;
  for (const Json& op : ops.as_array()) {
    ++idx;
    auto fail = [&](std::string msg) {
      return "op " + std::to_string(idx) + ": " + std::move(msg);
    };
    if (!op.is_object()) return fail("not an object");
    const Json* kind = op.find("op");
    if (!kind || !kind->is_string())
      return fail("missing string field 'op'");
    const std::string& k = kind->as_string();
    std::string err;

    if (k == "add_input") {
      const Json* name = op.find("name");
      if (!name || !name->is_string() || name->as_string().empty())
        return fail("add_input needs a non-empty 'name'");
      if (net.find(name->as_string()))
        return fail("name '" + name->as_string() + "' already exists");
      NodeId id = net.add_input(name->as_string());
      if (created) created->push_back(id);
    } else if (k == "add_gate") {
      const Json* type = op.find("type");
      if (!type || !type->is_string()) return fail("add_gate needs 'type'");
      auto gt = gate_type_from(type->as_string());
      if (!gt) return fail("unknown gate type '" + type->as_string() + "'");
      const Json* fi = op.find("fanins");
      if (!fi || !fi->is_array()) return fail("add_gate needs 'fanins' array");
      std::vector<NodeId> fanins;
      for (const Json& f : fi->as_array()) {
        NodeId id = resolve_node(net, &f, err, "fanin");
        if (id == kNoNode) return fail(std::move(err));
        fanins.push_back(id);
      }
      if (fanins.size() < gate_min_arity(*gt) ||
          fanins.size() > gate_max_arity(*gt))
        return fail("gate type '" + type->as_string() + "' rejects " +
                    std::to_string(fanins.size()) + " fanins");
      std::string name;
      if (const Json* n = op.find("name")) {
        if (!n->is_string()) return fail("'name' must be a string");
        if (net.find(n->as_string()))
          return fail("name '" + n->as_string() + "' already exists");
        name = n->as_string();
      }
      NodeId id = net.add_gate(*gt, std::move(fanins), std::move(name));
      if (created) created->push_back(id);
    } else if (k == "add_output") {
      NodeId id = resolve_node(net, op.find("node"), err, "node");
      if (id == kNoNode) return fail(std::move(err));
      std::string name;
      if (const Json* n = op.find("name")) {
        if (!n->is_string()) return fail("'name' must be a string");
        name = n->as_string();
      }
      net.add_output(id, std::move(name));
    } else if (k == "replace_fanin") {
      NodeId id = resolve_node(net, op.find("node"), err, "node");
      if (id == kNoNode) return fail(std::move(err));
      NodeId with = resolve_node(net, op.find("with"), err, "with");
      if (with == kNoNode) return fail(std::move(err));
      const Json* ix = op.find("index");
      double d = ix && ix->is_number() ? ix->as_number(-1) : -1;
      if (d < 0 || d >= static_cast<double>(net.node(id).fanins.size()))
        return fail("'index' out of range for node's fanins");
      net.replace_fanin(id, static_cast<std::size_t>(d), with);
    } else if (k == "substitute") {
      NodeId old_n = resolve_node(net, op.find("old"), err, "old");
      if (old_n == kNoNode) return fail(std::move(err));
      NodeId with = resolve_node(net, op.find("with"), err, "with");
      if (with == kNoNode) return fail(std::move(err));
      if (old_n == with) return fail("'old' and 'with' are the same node");
      net.substitute(old_n, with);
    } else if (k == "remove") {
      NodeId id = resolve_node(net, op.find("node"), err, "node");
      if (id == kNoNode) return fail(std::move(err));
      if (!net.node(id).fanouts.empty())
        return fail("node still has fanouts; substitute first");
      net.remove(id);
    } else if (k == "set_size") {
      NodeId id = resolve_node(net, op.find("node"), err, "node");
      if (id == kNoNode) return fail(std::move(err));
      const Json* v = op.find("value");
      double d = v && v->is_number() ? v->as_number(0) : 0;
      if (!(d > 0) || d > 64) return fail("'value' must be in (0, 64]");
      net.node(id).size = d;
    } else if (k == "set_delay") {
      NodeId id = resolve_node(net, op.find("node"), err, "node");
      if (id == kNoNode) return fail(std::move(err));
      const Json* v = op.find("value");
      double d = v && v->is_number() ? v->as_number(-1) : -1;
      if (d < 0 || d > 1e6 || std::floor(d) != d)
        return fail("'value' must be an integer in [0, 1e6]");
      net.node(id).delay = static_cast<int>(d);
    } else if (k == "sweep") {
      net.sweep();
    } else if (k == "strash") {
      net = strash(net);
    } else {
      return fail("unknown op '" + k + "'");
    }
  }
  return {};
}

std::string Session::apply_record(Netlist& net, const Json& record,
                                  const core::CancelToken* cancel) {
  const Json* type = record.find("type");
  if (!type || !type->is_string()) return "journal record missing 'type'";
  if (type->as_string() == "mutate") {
    const Json* ops = record.find("ops");
    if (!ops) return "mutate record missing 'ops'";
    net.begin_undo();
    std::string err = apply_ops(net, *ops, nullptr);
    if (err.empty()) {
      err = net.check();
      if (!err.empty()) err = "replayed netlist invalid: " + err;
    }
    if (!err.empty()) {
      net.rollback_undo();
      return err;
    }
    net.commit_undo();
    return {};
  }
  if (type->as_string() == "optimize") {
    const Json* flow = record.find("flow");
    if (!flow || !flow->is_string()) return "optimize record missing 'flow'";
    core::FlowOptions fo;
    fo.estimate_mode = power::ActivityMode::ZeroDelay;
    fo.sim_vectors = cfg_.vectors;
    fo.seed = cfg_.seed;
    fo.cancel = cancel;
    if (flow->as_string() == "combinational")
      net = core::optimize_combinational(net, fo).circuit;
    else if (flow->as_string() == "sequential")
      net = core::optimize_sequential(net, fo).circuit;
    else
      return "unknown flow '" + flow->as_string() + "'";
    return {};
  }
  return "unknown journal record type '" + type->as_string() + "'";
}

std::string Session::replay(Netlist& net, std::size_t n_records,
                            const core::CancelToken* cancel) {
  diag::DiagEngine eng(8);
  auto parsed = blif::parse_string(base_blif_, eng, "<journal-base>");
  if (!parsed) {
    const diag::Diagnostic* d = eng.first_error();
    return "journal base BLIF failed to parse: " + (d ? d->str() : eng.str());
  }
  net = std::move(*parsed);
  for (std::size_t i = 0; i < n_records && i < records_.size(); ++i) {
    core::poll_cancel(cancel);
    std::string err = apply_record(net, records_[i], cancel);
    if (!err.empty())
      return "journal record " + std::to_string(i + 1) + ": " + err;
    if (const Json* h = records_[i].find("hash")) {
      auto want = parse_hash(*h);
      if (!want || *want != structural_hash(net))
        return "journal record " + std::to_string(i + 1) +
               ": structural hash mismatch after replay";
    }
  }
  return {};
}

// ---- analyzer lifecycle ----------------------------------------------------

void Session::rebuild_analyzer(const core::CancelToken* cancel) {
  analyzer_.reset();
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = cfg_.vectors;
  ao.seed = cfg_.seed;
  ao.cancel = cancel;
  try {
    analyzer_.emplace(net_, ao);
    // The request token dies with the request; the analyzer does not.
    // Unbind it so a later reanalyze never polls a dangling pointer —
    // mutate() rebinds its own token around each update.
    analyzer_->set_cancel(nullptr);
    evicted_ = false;
  } catch (const core::CancelledError&) {
    throw;  // deadline: caller maps to a Deadline error, state is consistent
  } catch (...) {
    // Degradation: the session works without an analyzer (estimates run
    // full analyses); never fatal.
    analyzer_.reset();
    metrics::count("service.analyzer_fallback");
  }
  update_cache_bytes();
}

void Session::update_cache_bytes() {
  std::size_t b = 0;
  if (analyzer_) {
    // Approximation: the ZeroDelay trace stores one 64-bit word per node
    // per frame plus two 64-bit counters per node; the compiled tape is on
    // the order of tens of bytes per node.
    std::size_t frames = power::zero_delay_frames(cfg_.vectors);
    b = net_.size() * (frames + 2) * sizeof(std::uint64_t) + net_.size() * 64;
  }
  cache_bytes_.store(b, std::memory_order_relaxed);
}

void Session::evict_caches() {
  analyzer_.reset();
  evicted_ = true;
  cache_bytes_.store(0, std::memory_order_relaxed);
  metrics::count("service.evictions");
}

// ---- journal I/O -----------------------------------------------------------

bool Session::journal_rewrite() {
  if (journal_path_.empty()) return true;
  std::string tmp = journal_path_ + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    // The base hash is of the *parsed* base BLIF, which replays start
    // from — not of net_ (committed records may follow the base).
    diag::DiagEngine eng(2);
    auto parsed = blif::parse_string(base_blif_, eng);
    if (!parsed) return false;
    Json base;
    base.set("type", Json("base"));
    base.set("hash", Json(format_hash(structural_hash(*parsed))));
    base.set("blif", Json(base_blif_));
    os << base.dump() << '\n';
    for (const Json& r : records_) os << r.dump() << '\n';
    os.flush();
    if (!os) return false;
  }
  return std::rename(tmp.c_str(), journal_path_.c_str()) == 0;
}

bool Session::journal_append(const Json& record) {
  if (journal_path_.empty()) return true;
  std::FILE* f = std::fopen(journal_path_.c_str(), "ab");
  if (!f) return false;
  std::string line = record.dump();
  line.push_back('\n');
  bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size();
  ok = std::fflush(f) == 0 && ok;
  std::fclose(f);
  return ok;
}

// ---- verbs -----------------------------------------------------------------

OpResult Session::load(const std::string& blif_text, std::size_t vectors,
                       std::uint64_t seed, bool build_analyzer,
                       const core::CancelToken* cancel) {
  diag::DiagEngine eng(8);
  auto parsed = blif::parse_string(blif_text, eng, "<load>");
  if (!parsed) {
    const diag::Diagnostic* d = eng.first_error();
    return OpResult::error(ErrorCode::ParseError,
                           d ? d->str() : "BLIF parse failed",
                           d ? d->loc : diag::SourceLoc{});
  }
  // Parse succeeded: replace the session state wholesale.  A load also
  // clears a poisoned flag — it is the recovery verb for a wedged session.
  net_ = std::move(*parsed);
  hash_ = structural_hash(net_);
  cfg_.vectors = vectors ? vectors : 2048;
  cfg_.seed = seed;
  // The journal base is the text we just parsed — replaying it trivially
  // reproduces net_ (re-serializing would gratuitously depend on writer
  // round-trip fidelity).
  base_blif_ = blif_text;
  records_.clear();
  loaded_ = true;
  poisoned_.store(false, std::memory_order_relaxed);
  poison_reason_.clear();
  est_cached_ = est_full_ = est_degraded_ = 0;
  if (build_analyzer)
    rebuild_analyzer(cancel);  // CancelledError propagates; state stays valid
  else {
    analyzer_.reset();
    update_cache_bytes();
  }
  if (!journal_rewrite())
    metrics::count("service.journal_write_failed");
  JsonObject payload;
  payload.emplace_back("gates", Json(net_.num_live()));
  payload.emplace_back("inputs", Json(net_.inputs().size()));
  payload.emplace_back("outputs", Json(net_.outputs().size()));
  payload.emplace_back("hash", Json(format_hash(hash_)));
  return OpResult::ok(std::move(payload));
}

OpResult Session::mutate(const Json& ops, const core::CancelToken* cancel) {
  if (!loaded_)
    return OpResult::error(ErrorCode::NoSession, "session has no netlist");
  // Build the analyzer lazily if an eviction (or a load with
  // build_analyzer=false) dropped it — mutate is an exclusive context.
  if (!analyzer_) rebuild_analyzer(cancel);

  net_.begin_undo();
  std::string err = apply_ops(net_, ops, nullptr);
  if (err.empty()) {
    err = net_.check();
    if (!err.empty()) err = "edit script breaks invariants: " + err;
  }
  if (!err.empty()) {
    net_.rollback_undo();
    return OpResult::error(ErrorCode::MutateError, std::move(err));
  }

  // Advance the analyzer BEFORE committing: if the re-estimate is cancelled
  // (deadline) the analyzer restores its own caches and we roll the netlist
  // back, leaving the session exactly as before the request — a cancelled
  // mutate is all-or-nothing, like a killed one.
  auto touched = net_.touched_nodes();
  if (analyzer_) {
    analyzer_->set_cancel(cancel);  // bound only for this update
    try {
      analyzer_->reanalyze(touched);
      analyzer_->set_cancel(nullptr);
    } catch (const core::CancelledError&) {
      analyzer_->set_cancel(nullptr);
      net_.rollback_undo();
      return OpResult::error(ErrorCode::Deadline,
                             "deadline exceeded during re-estimate; "
                             "mutation rolled back");
    } catch (...) {
      // Degradation ladder: the estimate is advisory for a mutate — drop
      // the analyzer (caches already self-restored) and keep the edit.
      analyzer_.reset();
      metrics::count("service.analyzer_fallback");
    }
  }
  net_.commit_undo();
  hash_ = structural_hash(net_);
  update_cache_bytes();

  Json record;
  record.set("type", Json("mutate"));
  record.set("ops", ops);
  record.set("hash", Json(format_hash(hash_)));
  records_.push_back(record);
  if (!journal_append(record))
    metrics::count("service.journal_write_failed");

  JsonObject payload;
  payload.emplace_back("gates", Json(net_.num_live()));
  payload.emplace_back("hash", Json(format_hash(hash_)));
  payload.emplace_back("journal_records", Json(records_.size()));
  if (analyzer_) {
    const auto& st = analyzer_->last_update();
    payload.emplace_back("resim_nodes", Json(st.resim_nodes));
    payload.emplace_back("power_w",
                         Json(analyzer_->analysis().report.breakdown.total_w()));
  }
  return OpResult::ok(std::move(payload));
}

OpResult Session::estimate(const Json& params, const core::CancelToken* cancel) {
  if (!loaded_)
    return OpResult::error(ErrorCode::NoSession, "session has no netlist");

  std::size_t vectors = cfg_.vectors;
  std::uint64_t seed = cfg_.seed;
  bool timed = false;
  if (const Json* v = params.find("vectors")) {
    double d = v->is_number() ? v->as_number(0) : 0;
    if (!(d >= 64) || d > 1e7 || std::floor(d) != d)
      return OpResult::error(ErrorCode::BadRequest,
                             "'vectors' must be an integer in [64, 1e7]");
    vectors = static_cast<std::size_t>(d);
  }
  if (const Json* s = params.find("seed")) {
    double d = s->is_number() ? s->as_number(-1) : -1;
    if (!(d >= 0) || std::floor(d) != d)
      return OpResult::error(ErrorCode::BadRequest,
                             "'seed' must be a non-negative integer");
    seed = static_cast<std::uint64_t>(d);
  }
  if (const Json* m = params.find("mode")) {
    if (!m->is_string() ||
        (m->as_string() != "zero_delay" && m->as_string() != "timed"))
      return OpResult::error(ErrorCode::BadRequest,
                             "'mode' must be \"zero_delay\" or \"timed\"");
    timed = m->as_string() == "timed";
  }

  const power::Analysis* cached = nullptr;
  if (!timed && analyzer_ && vectors == cfg_.vectors && seed == cfg_.seed)
    cached = &analyzer_->analysis();

  power::Analysis fresh;
  if (!cached) {
    power::AnalysisOptions ao;
    ao.mode = timed ? power::ActivityMode::Timed : power::ActivityMode::ZeroDelay;
    ao.n_vectors = vectors;
    ao.seed = seed;
    ao.cancel = cancel;
    // CancelledError propagates to the dispatcher (Deadline response);
    // analyze() is pure, nothing to restore.
    fresh = power::analyze(net_, ao);
    est_full_.fetch_add(1, std::memory_order_relaxed);
    if (evicted_) est_degraded_.fetch_add(1, std::memory_order_relaxed);
  } else {
    est_cached_.fetch_add(1, std::memory_order_relaxed);
  }
  const power::Analysis& a = cached ? *cached : fresh;

  JsonObject payload;
  payload.emplace_back("power_w", Json(a.report.breakdown.total_w()));
  payload.emplace_back("switching_w", Json(a.report.breakdown.switching_w));
  payload.emplace_back("short_circuit_w",
                       Json(a.report.breakdown.short_circuit_w));
  payload.emplace_back("leakage_w", Json(a.report.breakdown.leakage_w));
  payload.emplace_back("weighted_activity", Json(a.report.weighted_activity));
  payload.emplace_back("glitch_fraction", Json(a.glitch_fraction));
  payload.emplace_back("vectors_used", Json(a.vectors_used));
  payload.emplace_back("cached", Json(cached != nullptr));
  payload.emplace_back("hash", Json(format_hash(hash_)));
  return OpResult::ok(std::move(payload));
}

OpResult Session::optimize(const Json& params, const core::CancelToken* cancel) {
  if (!loaded_)
    return OpResult::error(ErrorCode::NoSession, "session has no netlist");
  std::string flow = "combinational";
  if (const Json* f = params.find("flow")) {
    if (!f->is_string() ||
        (f->as_string() != "combinational" && f->as_string() != "sequential"))
      return OpResult::error(
          ErrorCode::BadRequest,
          "'flow' must be \"combinational\" or \"sequential\"");
    flow = f->as_string();
  }
  core::FlowOptions fo;
  fo.estimate_mode = power::ActivityMode::ZeroDelay;
  fo.sim_vectors = cfg_.vectors;
  fo.seed = cfg_.seed;
  fo.cancel = cancel;

  // The flow works on a copy; a cancellation (or failure) leaves the
  // session untouched.  CancelledError maps to a Deadline error here rather
  // than in the dispatcher so the message can say what was (not) kept.
  core::FlowResult res;
  try {
    res = flow == "combinational" ? core::optimize_combinational(net_, fo)
                                  : core::optimize_sequential(net_, fo);
  } catch (const core::CancelledError&) {
    return OpResult::error(ErrorCode::Deadline,
                           "deadline exceeded during optimize; "
                           "session unchanged");
  }

  double before = res.stages.empty() ? 0.0 : res.stages.front().power_w;
  net_ = std::move(res.circuit);
  hash_ = structural_hash(net_);
  rebuild_analyzer(cancel);

  Json record;
  record.set("type", Json("optimize"));
  record.set("flow", Json(flow));
  record.set("hash", Json(format_hash(hash_)));
  records_.push_back(record);
  if (!journal_append(record))
    metrics::count("service.journal_write_failed");

  const core::StageReport* last = res.last_kept_stage();
  JsonObject payload;
  payload.emplace_back("flow", Json(flow));
  payload.emplace_back("stages", Json(res.stages.size()));
  payload.emplace_back("power_before_w", Json(before));
  payload.emplace_back("power_after_w", Json(last ? last->power_w : before));
  payload.emplace_back("saving", Json(res.saving()));
  payload.emplace_back("gates", Json(net_.num_live()));
  payload.emplace_back("hash", Json(format_hash(hash_)));
  payload.emplace_back("journal_records", Json(records_.size()));
  return OpResult::ok(std::move(payload));
}

OpResult Session::rollback(const core::CancelToken* cancel) {
  if (!loaded_)
    return OpResult::error(ErrorCode::NoSession, "session has no netlist");
  if (records_.empty())
    return OpResult::error(ErrorCode::NothingToDo,
                           "journal has no committed records to roll back");
  Netlist rebuilt;
  std::string err = replay(rebuilt, records_.size() - 1, cancel);
  if (!err.empty())
    return OpResult::error(ErrorCode::Internal, "rollback replay: " + err);
  records_.pop_back();
  net_ = std::move(rebuilt);
  hash_ = structural_hash(net_);
  rebuild_analyzer(cancel);
  if (!journal_rewrite())
    metrics::count("service.journal_write_failed");
  JsonObject payload;
  payload.emplace_back("gates", Json(net_.num_live()));
  payload.emplace_back("hash", Json(format_hash(hash_)));
  payload.emplace_back("journal_records", Json(records_.size()));
  return OpResult::ok(std::move(payload));
}

JsonObject Session::stat() const {
  JsonObject o;
  o.emplace_back("name", Json(name_));
  o.emplace_back("loaded", Json(loaded_));
  o.emplace_back("poisoned", Json(poisoned()));
  if (poisoned()) o.emplace_back("poison_reason", Json(poison_reason_));
  if (loaded_) {
    o.emplace_back("gates", Json(net_.num_live()));
    o.emplace_back("inputs", Json(net_.inputs().size()));
    o.emplace_back("outputs", Json(net_.outputs().size()));
    o.emplace_back("hash", Json(format_hash(hash_)));
    o.emplace_back("journal_records", Json(records_.size()));
  }
  o.emplace_back("analyzer", Json(analyzer_.has_value()));
  o.emplace_back("cache_bytes", Json(cache_bytes()));
  o.emplace_back("estimates_cached",
                 Json(est_cached_.load(std::memory_order_relaxed)));
  o.emplace_back("estimates_full",
                 Json(est_full_.load(std::memory_order_relaxed)));
  o.emplace_back("estimates_degraded",
                 Json(est_degraded_.load(std::memory_order_relaxed)));
  return o;
}

OpResult Session::recover(const core::CancelToken* cancel) {
  if (journal_path_.empty())
    return OpResult::error(ErrorCode::Internal, "session has no journal file");
  std::ifstream is(journal_path_, std::ios::binary);
  if (!is)
    return OpResult::error(ErrorCode::Internal,
                           "cannot open journal '" + journal_path_ + "'");
  std::string line;
  std::vector<Json> lines;
  bool torn = false;
  while (std::getline(is, line)) {
    // A torn final line (the daemon died mid-append) is detected by its
    // JSON being incomplete — a partial fwrite of a record cannot parse.
    // The record never committed, so ending the journal there is correct.
    auto doc = json_parse(line);
    if (!doc || !doc->is_object()) {
      torn = true;
      break;
    }
    lines.push_back(std::move(*doc));
  }
  if (lines.empty())
    return OpResult::error(ErrorCode::Internal,
                           "journal has no valid base record");
  const Json* type = lines[0].find("type");
  const Json* blif_j = lines[0].find("blif");
  if (!type || !type->is_string() || type->as_string() != "base" || !blif_j ||
      !blif_j->is_string())
    return OpResult::error(ErrorCode::Internal,
                           "journal base record malformed");

  base_blif_ = blif_j->as_string();
  records_.assign(lines.begin() + 1, lines.end());

  // Replay; a failing or hash-mismatching record truncates the journal at
  // that point (replay() validated everything before it), so retry with
  // progressively shorter prefixes.
  std::size_t keep = records_.size();
  Netlist rebuilt;
  std::string err;
  for (;;) {
    err = replay(rebuilt, keep, cancel);
    if (err.empty()) break;
    if (keep == 0) {
      records_.clear();
      return OpResult::error(ErrorCode::Internal,
                             "journal base replay failed: " + err);
    }
    --keep;
    torn = true;
  }
  bool truncated = torn || keep != records_.size();
  records_.resize(keep);
  net_ = std::move(rebuilt);
  hash_ = structural_hash(net_);
  loaded_ = true;
  poisoned_.store(false, std::memory_order_relaxed);
  rebuild_analyzer(cancel);
  if (truncated && !journal_rewrite())
    metrics::count("service.journal_write_failed");
  if (truncated) metrics::count("service.journal_truncated");
  metrics::count("service.sessions_recovered");

  JsonObject payload;
  payload.emplace_back("gates", Json(net_.num_live()));
  payload.emplace_back("hash", Json(format_hash(hash_)));
  payload.emplace_back("journal_records", Json(records_.size()));
  payload.emplace_back("truncated", Json(truncated));
  return OpResult::ok(std::move(payload));
}

}  // namespace lps::service
