#include "power/incremental.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/aligned.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"

namespace lps::power {

namespace detail {

namespace {
std::atomic<int> g_forced_tape_failures{0};

bool consume_forced_tape_failure() {
  int cur = g_forced_tape_failures.load(std::memory_order_relaxed);
  while (cur > 0) {
    if (g_forced_tape_failures.compare_exchange_weak(
            cur, cur - 1, std::memory_order_relaxed))
      return true;
  }
  return false;
}
}  // namespace

void force_tape_failures(int n) {
  g_forced_tape_failures.store(n, std::memory_order_relaxed);
}

}  // namespace detail

IncrementalAnalyzer::IncrementalAnalyzer(const Netlist& net,
                                         AnalysisOptions opt)
    : net_(&net), opt_(std::move(opt)) {
  run_full();
}

const Analysis& IncrementalAnalyzer::previous_analysis() const {
  if (!snap_)
    throw std::logic_error(
        "IncrementalAnalyzer::previous_analysis: no update pending");
  return snap_->analysis;
}

std::uint64_t IncrementalAnalyzer::outputs_digest() const {
  if (!have_trace_)
    throw std::logic_error(
        "IncrementalAnalyzer::outputs_digest: no cached trace");
  std::uint64_t d = 0x9E3779B97F4A7C15ull;
  const auto& outs = net_->outputs();
  for (const sim::Frame& f : trace_.frames)
    for (std::size_t j = 0; j < outs.size(); ++j)
      d = core::mix64(d ^ (f[outs[j]] + 0x9E3779B97F4A7C15ull * (j + 1)));
  return d;
}

void IncrementalAnalyzer::run_full() {
  if (opt_.mode == ActivityMode::ZeroDelay) {
    try {
      // Same frames/seed/arithmetic as analyze()'s ZeroDelay branch, plus
      // the raw trace capture the cone updates replay against.
      auto st = sim::measure_activity(*net_, zero_delay_frames(opt_.n_vectors),
                                      opt_.seed, opt_.pi_one_prob, &trace_,
                                      opt_.cancel);
      analysis_ = detail::assemble_zero_delay(*net_, st, opt_);
      have_trace_ = true;
    } catch (...) {
      // A cancelled or failed baseline leaves no usable cache: the capture
      // buffer was partially overwritten, so forget it wholesale rather
      // than risk splicing against garbage.  Callers in reanalyze() restore
      // their own snapshot on top of this.
      trace_ = {};
      have_trace_ = false;
      csim_.reset();
      throw;
    }
    // Fresh compact tape for the cone updates (patched per mutation from
    // here on).
    if (csim_)
      csim_->rebuild();
    else
      csim_.emplace(*net_);
  } else {
    // Timed mode keeps no per-frame cache; every update is a full run.
    analysis_ = analyze(*net_, opt_);
    trace_ = {};
    have_trace_ = false;
    csim_.reset();
  }
}

void IncrementalAnalyzer::rebaseline() {
  snap_.reset();
  last_ = {};
  run_full();
}

const Analysis& IncrementalAnalyzer::reanalyze(
    const Netlist::TouchedNodes& touched) {
  const Netlist& net = *net_;
  last_ = {};
  last_.live_nodes = net.num_live();
  core::metrics::count("power.inc.updates");

  std::size_t n_frames = trace_.frames.size();
  bool cone_ok = have_trace_ && !touched.all &&
                 net.size() >= trace_.ones.size();
  if (!cone_ok) {
    // Full fallback: the old cache moves wholesale into the snapshot (no
    // copies), then the baseline is rebuilt for the mutated netlist.
    Snapshot s;
    s.full = true;
    s.trace = std::move(trace_);
    s.have_trace = have_trace_;
    s.analysis = std::move(analysis_);
    try {
      run_full();
    } catch (...) {
      // Restore the pre-call cache (run_full already cleared its partial
      // state): once the caller rolls back its netlist mutation the
      // analyzer is bit-for-bit consistent again.  The compiled tape was
      // dropped; it is recompiled lazily.
      trace_ = std::move(s.trace);
      have_trace_ = s.have_trace;
      analysis_ = std::move(s.analysis);
      throw;
    }
    if (snap_) recycle(*snap_);  // retire the superseded snapshot's buffers
    snap_ = std::move(s);
    last_.full_rebaseline = true;
    last_.resim_nodes = last_.live_nodes;
    core::metrics::count("power.inc.fallback_full");
    // Frame-equivalent eval volume (Timed keeps no trace; use the request).
    double frames_eq = static_cast<double>(
        have_trace_ ? trace_.frames.size() : opt_.n_vectors);
    double evals = static_cast<double>(last_.live_nodes) * frames_eq;
    core::metrics::count("power.inc.node_evals", evals);
    core::metrics::count("power.inc.node_evals_full", evals);
    return analysis_;
  }

  // ---- Cone-scoped update -------------------------------------------------
  // Dirty set: transitive fanout of the *value-relevant* touched nodes,
  // crossing registers (a changed D/EN driver changes the register's value
  // stream from the next frame on).  Touched nodes whose pre-image differs
  // only in fanouts/size/delay/name seed nothing — their value streams are
  // unchanged, and capacitance is recomputed from the live netlist below.
  auto mask = net.fanout_cone_of(touched.value_roots, /*through_dffs=*/true);

  // Engine selection.  The compiled tape persists across updates and is
  // patched from the same touched-node report (O(edit)).  If the patch
  // fails, the update falls back to LogicSim, which re-walks the topo order
  // (O(netlist)).  Both produce bit-identical cone words, so the splice
  // below is engine-agnostic and the fallback changes no result: the tape
  // is dropped (recompiled lazily next update), the failure is counted, and
  // the update proceeds.
  bool compiled_path = true;
  std::optional<sim::LogicSim> isim;
  sim::ConeSchedule sched;
  try {
    if (detail::consume_forced_tape_failure())
      throw std::runtime_error("injected compiled-tape failure (chaos)");
    if (csim_)
      csim_->update(touched);
    else
      csim_.emplace(net);
    sched = csim_->cone_schedule(mask);
  } catch (const std::exception&) {
    // The tape may be partially patched and can no longer be trusted to
    // mirror the netlist; discard it and fall back to the interpreter.
    csim_.reset();
    compiled_path = false;
    last_.tape_fallback = true;
    core::metrics::count("power.inc.tape_fallback");
    isim.emplace(net);
    sched = isim->cone_schedule(mask);
  }

  Snapshot s;
  s.full = false;
  s.old_size = trace_.ones.size();
  s.patched.assign(touched.value_roots.begin(), touched.value_roots.end());
  s.analysis = analysis_;

  // Grow the cache for appended nodes (cone path never shrinks: compact()
  // and wholesale restores report `all` and take the fallback above).
  if (net.size() > s.old_size) {
    trace_.ones.resize(net.size(), 0);
    trace_.toggles.resize(net.size(), 0);
    for (auto& f : trace_.frames) f.resize(net.size(), 0);
  }

  // Count-update set: every non-input cone node.  Gates and registers get
  // re-simulated; cone nodes that are now dead just have their counters
  // zeroed (full analysis skips dead nodes).  Inputs never change value.
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!mask[id] || net.node(id).type == GateType::Input) continue;
    if (id < s.old_size) {
      s.count_ids.push_back(id);
      s.counts.emplace_back(trace_.ones[id], trace_.toggles[id]);
    }
    trace_.ones[id] = 0;
    trace_.toggles[id] = 0;
  }

  // Snapshot the frame columns the sweep will overwrite.  Buffers come from
  // the scratch pool when a prior probe retired some, so a candidate loop
  // stops paying one allocation per cone node per candidate.
  auto snapshot_column = [&](NodeId id) {
    if (id >= s.old_size) return;  // truncated away on revert
    s.resim_ids.push_back(id);
    std::vector<std::uint64_t> col;
    if (!col_pool_.empty()) {
      col = std::move(col_pool_.back());
      col_pool_.pop_back();
      col.clear();
    }
    col.reserve(n_frames);
    for (std::size_t fr = 0; fr < n_frames; ++fr)
      col.push_back(trace_.frames[fr][id]);
    s.columns.push_back(std::move(col));
  };
  for (NodeId id : sched.gates) snapshot_column(id);
  for (NodeId id : sched.dffs) snapshot_column(id);

  // In-place sweep.  frames[fr-1] is already updated when frame fr is
  // processed, so register stepping and toggle counting read the new value
  // stream exactly as a full re-simulation would.  The sweep polls the
  // cancellation token per frame (per block on the blocked path); on any
  // throw the snapshot just built is played back immediately, so partially
  // rewritten columns never escape — the exception-safety contract in the
  // header.
  //
  // Register-free cones on the compiled tape take a blocked drive: B
  // frames' worth of cone-boundary words are gathered node-major into an
  // aligned value block, one exec_gates replay evaluates all B lanes with
  // the SIMD kernels, and the gate columns are scattered back.  Each lane
  // is an independent frame of a combinational cone, so lane j's words
  // equal the frame-by-frame path's words exactly; the counting pass below
  // then reads identical frames either way.
  const std::size_t block_frames =
      (compiled_path && sched.dffs.empty() && n_frames > 1)
          ? sim::normalize_block(sim::sim_options().block)
          : 1;
  try {
    if (block_frames > 1) {
      const std::size_t B = block_frames;
      // Slots a replay touches: the cone gates and every boundary fanin.
      std::vector<NodeId> slots(sched.gates.begin(), sched.gates.end());
      for (NodeId g : sched.gates)
        for (NodeId f : net.node(g).fanins) slots.push_back(f);
      std::sort(slots.begin(), slots.end());
      slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
      core::AlignedWords val(net.size() * B, 0);
      std::uint64_t* v = val.data();
      for (std::size_t f0 = 0; f0 < n_frames; f0 += B) {
        core::poll_cancel(opt_.cancel);
        // Tail blocks evaluate all B lanes but only the first `b` carry
        // real frames; stale trailing lanes are inert (never scattered).
        const std::size_t b = std::min(B, n_frames - f0);
        for (NodeId s : slots) {
          std::uint64_t* w = v + static_cast<std::size_t>(s) * B;
          for (std::size_t j = 0; j < b; ++j) w[j] = trace_.frames[f0 + j][s];
        }
        csim_->exec_gates(v, B, sched.gates);
        for (NodeId g : sched.gates) {
          const std::uint64_t* w = v + static_cast<std::size_t>(g) * B;
          for (std::size_t j = 0; j < b; ++j) trace_.frames[f0 + j][g] = w[j];
        }
      }
      // Counting pass over the now-updated frames — same arithmetic, same
      // order as the frame-by-frame path (no registers in this cone).
      for (std::size_t fr = 0; fr < n_frames; ++fr) {
        const sim::Frame& f = trace_.frames[fr];
        const sim::Frame* prev =
            trace_.shard_start[fr] ? nullptr : &trace_.frames[fr - 1];
        for (NodeId id : sched.gates) {
          trace_.ones[id] += std::popcount(f[id]);
          if (prev) trace_.toggles[id] += std::popcount(f[id] ^ (*prev)[id]);
        }
      }
    } else {
      for (std::size_t fr = 0; fr < n_frames; ++fr) {
        core::poll_cancel(opt_.cancel);
        sim::Frame& f = trace_.frames[fr];
        const sim::Frame* prev =
            trace_.shard_start[fr] ? nullptr : &trace_.frames[fr - 1];
        for (NodeId d : sched.dffs) {
          const Node& nd = net.node(d);
          if (!prev) {
            f[d] = nd.init_value ? ~0ULL : 0ULL;
          } else {
            std::uint64_t next = (*prev)[nd.fanins[0]];
            if (nd.fanins.size() == 2) {
              std::uint64_t en = (*prev)[nd.fanins[1]];
              next = (en & next) | (~en & (*prev)[d]);  // hold on EN = 0
            }
            f[d] = next;
          }
        }
        if (compiled_path)
          csim_->exec_gates(f.data(), 1, sched.gates);
        else
          isim->eval_cone_into(f, sched);
        auto count = [&](NodeId id) {
          trace_.ones[id] += std::popcount(f[id]);
          if (prev) trace_.toggles[id] += std::popcount(f[id] ^ (*prev)[id]);
        };
        for (NodeId id : sched.dffs) count(id);
        for (NodeId id : sched.gates) count(id);
      }
    }

    // Splice: derive the report from the updated integer counters through
    // the exact arithmetic analyze() uses.
    auto st = sim::stats_from_counts(trace_.ones, trace_.toggles,
                                     trace_.patterns, trace_.seam_patterns);
    analysis_ = detail::assemble_zero_delay(net, st, opt_);
  } catch (...) {
    // The patched tape reflects the mutated netlist, which the caller is
    // about to roll back — a revert_to() replay would re-read the still-
    // mutated nodes, so drop the tape instead (recompiled lazily).
    csim_.reset();
    restore_cone(s);
    recycle(s);
    throw;
  }
  if (snap_) recycle(*snap_);  // retire the superseded snapshot's buffers
  snap_ = std::move(s);

  last_.resim_nodes = sched.resim_nodes();
  core::metrics::count(
      "power.inc.node_evals",
      static_cast<double>(last_.resim_nodes) * static_cast<double>(n_frames));
  core::metrics::count(
      "power.inc.node_evals_full",
      static_cast<double>(last_.live_nodes) * static_cast<double>(n_frames));
  return analysis_;
}

void IncrementalAnalyzer::revert_last() {
  if (!snap_)
    throw std::logic_error(
        "IncrementalAnalyzer::revert_last: no update to revert");
  Snapshot s = std::move(*snap_);
  snap_.reset();
  core::metrics::count("power.inc.reverts");
  if (s.full) {
    trace_ = std::move(s.trace);
    have_trace_ = s.have_trace;
    analysis_ = std::move(s.analysis);
    // The netlist was restored wholesale; recompile against it.
    if (csim_) csim_->rebuild();
    return;
  }
  // Truncate nodes appended by the reverted mutation, restore the cone's
  // old frame words and counters.  The compiled tape re-emits the patch
  // roots' records from the restored netlist (O(edit)).
  if (csim_) csim_->revert_to(s.old_size, s.patched);
  restore_cone(s);
  recycle(s);
}

void IncrementalAnalyzer::recycle(Snapshot& s) {
  constexpr std::size_t kPoolCap = 1024;
  for (auto& col : s.columns) {
    if (col_pool_.size() >= kPoolCap) break;
    col_pool_.push_back(std::move(col));
  }
  s.columns.clear();
}

void IncrementalAnalyzer::restore_cone(Snapshot& s) {
  trace_.ones.resize(s.old_size);
  trace_.toggles.resize(s.old_size);
  for (auto& f : trace_.frames) f.resize(s.old_size);
  for (std::size_t i = 0; i < s.resim_ids.size(); ++i) {
    NodeId id = s.resim_ids[i];
    for (std::size_t fr = 0; fr < trace_.frames.size(); ++fr)
      trace_.frames[fr][id] = s.columns[i][fr];
  }
  for (std::size_t i = 0; i < s.count_ids.size(); ++i) {
    trace_.ones[s.count_ids[i]] = s.counts[i].first;
    trace_.toggles[s.count_ids[i]] = s.counts[i].second;
  }
  analysis_ = std::move(s.analysis);
}

double IncrementalAnalyzer::score_candidate(
    const Netlist::TouchedNodes& touched) {
  const Analysis& a = reanalyze(touched);
  core::metrics::count("power.inc.probes");
  return a.report.breakdown.total_w();
}

}  // namespace lps::power
