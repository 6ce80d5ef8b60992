#include "sim/logicsim.hpp"

#include <bit>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/aligned.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "sim/compiled.hpp"

namespace lps::sim {

LogicSim::LogicSim(const Netlist& net)
    : net_(&net), order_(net.topo_order()), dff_list_(net.dffs()) {}

namespace {

// Shared per-gate word evaluation of eval_into and eval_cone_into: both
// must produce bit-identical words for the incremental splice to hold.
inline void eval_gate_word(const Node& nd, NodeId id, Frame& f) {
  switch (nd.type) {
    case GateType::Input:
    case GateType::Dff:
      break;
    case GateType::Const0:
      f[id] = 0;
      break;
    case GateType::Const1:
      f[id] = ~0ULL;
      break;
    default: {
      std::uint64_t fin[64];
      std::size_t k = nd.fanins.size();
      if (k <= 64) {
        for (std::size_t j = 0; j < k; ++j) fin[j] = f[nd.fanins[j]];
        f[id] = eval_gate(nd.type, {fin, k});
      } else {
        // One LogicSim instance is shared read-only across shard threads,
        // so the wide-gate scratch cannot live in the object; thread_local
        // reuses the allocation across gates and frames without racing.
        static thread_local std::vector<std::uint64_t> big;
        big.resize(k);
        for (std::size_t j = 0; j < k; ++j) big[j] = f[nd.fanins[j]];
        f[id] = eval_gate(nd.type, big);
      }
    }
  }
}

}  // namespace

void LogicSim::eval_into(Frame& f, std::span<const std::uint64_t> pi_words,
                         std::span<const std::uint64_t> dff_words) const {
  const Netlist& n = *net_;
  if (pi_words.size() != n.inputs().size())
    throw std::invalid_argument("LogicSim::eval: PI word count mismatch");
  f.assign(n.size(), 0);
  for (std::size_t i = 0; i < pi_words.size(); ++i)
    f[n.inputs()[i]] = pi_words[i];
  for (std::size_t i = 0; i < dff_list_.size(); ++i) {
    const Node& d = n.node(dff_list_[i]);
    f[dff_list_[i]] = dff_words.empty()
                          ? (d.init_value ? ~0ULL : 0ULL)
                          : dff_words[i];
  }
  for (NodeId id : order_) eval_gate_word(n.node(id), id, f);
}

ConeSchedule LogicSim::cone_schedule(const std::vector<bool>& mask) const {
  if (mask.size() != net_->size())
    throw std::invalid_argument("LogicSim::cone_schedule: mask size mismatch");
  ConeSchedule s;
  for (NodeId id : order_) {
    if (!mask[id]) continue;
    const Node& nd = net_->node(id);
    if (nd.type == GateType::Input) continue;
    if (nd.type == GateType::Dff)
      s.dffs.push_back(id);
    else
      s.gates.push_back(id);
  }
  return s;
}

void LogicSim::eval_cone_into(Frame& f, const ConeSchedule& sched) const {
  const Netlist& n = *net_;
  for (NodeId id : sched.gates) eval_gate_word(n.node(id), id, f);
}

Frame LogicSim::eval(std::span<const std::uint64_t> pi_words,
                     std::span<const std::uint64_t> dff_words) const {
  Frame f;
  eval_into(f, pi_words, dff_words);
  return f;
}

std::vector<std::uint64_t> LogicSim::outputs_of(const Frame& f) const {
  std::vector<std::uint64_t> r;
  r.reserve(net_->outputs().size());
  for (NodeId o : net_->outputs()) r.push_back(f[o]);
  return r;
}

void LogicSim::next_state_into(const Frame& f,
                               std::vector<std::uint64_t>& state) const {
  // `state` holds the current Q values, which load-enabled Dffs recirculate
  // on EN = 0; they equal f[d], so the update is safe in place.
  state.resize(dff_list_.size());
  for (std::size_t i = 0; i < dff_list_.size(); ++i) {
    NodeId d = dff_list_[i];
    const Node& nd = net_->node(d);
    std::uint64_t next = f[nd.fanins[0]];
    if (nd.fanins.size() == 2) {
      std::uint64_t en = f[nd.fanins[1]];
      next = (en & next) | (~en & f[d]);  // hold on EN = 0
    }
    state[i] = next;
  }
}

std::vector<std::uint64_t> LogicSim::next_state_of(const Frame& f) const {
  std::vector<std::uint64_t> r(dff_list_.size());
  next_state_into(f, r);
  return r;
}

namespace {

// Word whose bits are 1 with probability p (16-bit resolution).
std::uint64_t biased_word(std::mt19937_64& rng, double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~0ULL;
  std::uint64_t w = 0;
  auto thr = static_cast<std::uint32_t>(p * 65536.0);
  for (int b = 0; b < 64; ++b)
    if ((rng() & 0xFFFF) < thr) w |= 1ULL << b;
  return w;
}

// Per-chunk accumulator: exact integer counts merge associatively, so a
// chunk may fold several consecutive shards into one accumulator and the
// chunk-order merge still equals the shard-order merge bit for bit.
// alignas keeps adjacent chunks' hot scalar fields off a shared cache line.
struct alignas(64) ActivityAccum {
  std::vector<std::uint64_t> ones;
  std::vector<std::uint64_t> toggles;
  std::size_t frames = 0;
  std::size_t seams = 0;  // consecutive-frame boundaries counted
};

// Scratch buffers reused across every shard of one chunk (one allocation
// per worker per run instead of per shard).  The compiled value block is
// cache-line aligned (core/aligned.hpp) so the SIMD kernels' vector
// accesses of any node block never straddle a line.
struct ActivityScratch {
  // interpreted engine
  Frame f, prev;
  std::vector<std::uint64_t> pi_words;
  std::vector<std::uint64_t> state;
  // compiled engine
  core::AlignedWords val;   // node-major value block, n * B words
  core::AlignedWords last;  // previous frame's word per node
};

// Frames between cancellation polls inside one shard: bounds cancellation
// latency for single-shard (sequential) streams without measurable cost.
constexpr std::size_t kCancelBatchFrames = 32;

void simulate_activity_shard(const Netlist& net, const LogicSim& sim,
                             std::span<const NodeId> dffs,
                             std::size_t n_frames, std::uint64_t seed,
                             std::span<const double> pi_one_prob,
                             Frame* capture_frames, ActivityAccum& a,
                             ActivityScratch& sc,
                             const core::CancelToken* cancel) {
  const auto& pis = net.inputs();
  a.frames += n_frames;
  a.seams += n_frames > 1 ? n_frames - 1 : 0;

  std::mt19937_64 rng(seed);
  sc.pi_words.resize(pis.size());
  sc.state.resize(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i)
    sc.state[i] = net.node(dffs[i]).init_value ? ~0ULL : 0ULL;

  Frame& f = sc.f;
  Frame& prev = sc.prev;
  for (std::size_t fr = 0; fr < n_frames; ++fr) {
    if (fr % kCancelBatchFrames == 0) core::poll_cancel(cancel);
    for (std::size_t i = 0; i < pis.size(); ++i) {
      double p = pi_one_prob.empty() ? 0.5 : pi_one_prob[i];
      sc.pi_words[i] = (p == 0.5) ? rng() : biased_word(rng, p);
    }
    sim.eval_into(f, sc.pi_words, sc.state);
    if (capture_frames) capture_frames[fr] = f;
    for (NodeId id = 0; id < net.size(); ++id) {
      if (net.is_dead(id)) continue;
      a.ones[id] += std::popcount(f[id]);
      // Each of the 64 bit lanes carries an independent trajectory;
      // transitions are counted per lane between consecutive frames.  This
      // is exact for sequential circuits and, with iid inputs, for
      // combinational ones too.
      if (fr > 0) a.toggles[id] += std::popcount(f[id] ^ prev[id]);
    }
    sim.next_state_into(f, sc.state);
    std::swap(prev, f);
  }
}

// Compiled-tape twin of simulate_activity_shard: same RNG consumption
// order, same counting rules, bit-identical counters.  Combinational
// streams evaluate `block` 64-pattern words per tape replay (PI words are
// drawn frame-major — lane j fully before lane j+1 — preserving the exact
// per-frame stream of the interpreted engine); sequential streams carry
// register state frame to frame and run with block == 1.
void simulate_activity_shard_compiled(const Netlist& net,
                                      const CompiledSim& cs, std::size_t block,
                                      std::size_t n_frames, std::uint64_t seed,
                                      std::span<const double> pi_one_prob,
                                      Frame* capture_frames, ActivityAccum& a,
                                      ActivityScratch& sc,
                                      const core::CancelToken* cancel) {
  const auto& pis = net.inputs();
  const auto& live = cs.live();
  const auto& dffs = cs.dffs();
  a.frames += n_frames;
  a.seams += n_frames > 1 ? n_frames - 1 : 0;

  std::mt19937_64 rng(seed);
  auto pi_word = [&](std::size_t i) {
    double p = pi_one_prob.empty() ? 0.5 : pi_one_prob[i];
    return (p == 0.5) ? rng() : biased_word(rng, p);
  };
  std::uint64_t* val = sc.val.data();
  std::uint64_t* last = sc.last.data();

  if (dffs.empty()) {
    const std::size_t B = block;
    for (std::size_t f0 = 0; f0 < n_frames; f0 += B) {
      if ((f0 / B) % kCancelBatchFrames == 0) core::poll_cancel(cancel);
      // Tail blocks evaluate all B lanes but only the first `b` are drawn,
      // counted and captured; stale trailing lanes are inert.
      const std::size_t b = std::min(B, n_frames - f0);
      for (std::size_t j = 0; j < b; ++j)
        for (std::size_t i = 0; i < pis.size(); ++i)
          val[static_cast<std::size_t>(pis[i]) * B + j] = pi_word(i);
      cs.exec_all(val, B);
      // Counting dominates the compiled path (the replay itself amortizes
      // to near-memory speed), so it goes through the dispatched per-ISA
      // kernel: identical integer counts, hardware POPCNT where available.
      count_columns(val, live, B, b, f0 == 0, a.ones.data(), a.toggles.data(),
                    last);
      if (capture_frames)
        for (std::size_t j = 0; j < b; ++j) {
          Frame& fr = capture_frames[f0 + j];
          fr.assign(net.size(), 0);
          for (NodeId id : live)
            fr[id] = val[static_cast<std::size_t>(id) * B + j];
        }
    }
  } else {
    // Sequential: one symbolic trajectory, state stepped per frame.
    sc.state.resize(dffs.size());
    for (std::size_t i = 0; i < dffs.size(); ++i)
      sc.state[i] = net.node(dffs[i]).init_value ? ~0ULL : 0ULL;
    for (std::size_t fr = 0; fr < n_frames; ++fr) {
      if (fr % kCancelBatchFrames == 0) core::poll_cancel(cancel);
      for (std::size_t i = 0; i < pis.size(); ++i) val[pis[i]] = pi_word(i);
      for (std::size_t i = 0; i < dffs.size(); ++i)
        val[dffs[i]] = sc.state[i];
      cs.exec_all(val, 1);
      count_columns(val, live, 1, 1, fr == 0, a.ones.data(), a.toggles.data(),
                    last);
      if (capture_frames) {
        Frame& cf = capture_frames[fr];
        cf.assign(net.size(), 0);
        for (NodeId id : live) cf[id] = val[id];
      }
      for (std::size_t i = 0; i < dffs.size(); ++i) {
        const Node& nd = net.node(dffs[i]);
        std::uint64_t next = val[nd.fanins[0]];
        if (nd.fanins.size() == 2) {
          std::uint64_t en = val[nd.fanins[1]];
          next = (en & next) | (~en & val[dffs[i]]);  // hold on EN = 0
        }
        sc.state[i] = next;
      }
    }
  }
}

}  // namespace

ActivityStats stats_from_counts(std::span<const std::uint64_t> ones,
                                std::span<const std::uint64_t> toggles,
                                std::size_t patterns,
                                std::size_t seam_patterns) {
  ActivityStats st;
  st.signal_prob.assign(ones.size(), 0.0);
  st.transition_prob.assign(ones.size(), 0.0);
  double total = static_cast<double>(patterns);
  double seams = static_cast<double>(seam_patterns);
  st.patterns = patterns;
  for (std::size_t id = 0; id < ones.size(); ++id) {
    st.signal_prob[id] = total > 0 ? ones[id] / total : 0.0;
    st.transition_prob[id] = seams > 0 ? toggles[id] / seams : 0.0;
  }
  return st;
}

namespace {

// The Monte Carlo activity loop behind both entry points: `compiled`
// picks the engine that evaluates each shard (the tape or the LogicSim
// reference); the shard plan, seeds, counting rules and merge order are
// shared, which is what makes the two bit-identical.
ActivityStats drive_activity(const Netlist& net, std::size_t n_frames,
                             std::uint64_t seed,
                             std::span<const double> pi_one_prob,
                             ActivityTrace* capture,
                             const core::CancelToken* cancel, bool compiled) {
  auto dffs = net.dffs();
  // Sequential streams carry state frame to frame: no lane blocking.
  const std::size_t block =
      dffs.empty() ? normalize_block(sim_options().block) : 1;

  // Sequential nets form one continuous state trajectory — one shard.
  // Combinational frame streams are iid and shard freely; the plan depends
  // only on n_frames, so results are thread-count independent.
  auto plan = core::plan_shards(dffs.empty() ? n_frames : 0, 64);
  if (capture) {
    capture->frames.assign(n_frames, Frame{});
    capture->shard_start.assign(n_frames, 0);
    if (plan.shards == 1) {
      if (n_frames > 0) capture->shard_start[0] = 1;
    } else {
      for (std::size_t s = 0; s < plan.shards; ++s)
        capture->shard_start[plan.begin(s)] = 1;
    }
  }

  std::optional<CompiledSim> csim;
  std::optional<LogicSim> isim;
  if (compiled)
    csim.emplace(net);
  else
    isim.emplace(net);

  // Dispatch grain: up to two pool indices per execution lane
  // (core::plan_chunks — oversubscription evens out lane load imbalance),
  // each chunk walking a contiguous shard range serially with persistent
  // scratch.  Chunk boundaries depend on the thread count, but per-shard
  // seeds and frame counts do not, and the chunk accumulators fold integer
  // counts of consecutive shards — so the chunk-order merge below
  // reproduces the shard-order merge exactly at any thread count.
  const std::size_t n_chunks = core::plan_chunks(plan.shards);
  std::vector<ActivityAccum> parts(n_chunks);
  std::vector<ActivityScratch> scratch(n_chunks);
  // First-touch NUMA placement: each chunk's accumulators and value block
  // are written first by whichever worker runs the chunk, so their pages
  // land on that worker's node.  The LPS_SIM_NUMA=0 baseline faults
  // everything on the submitting thread instead (single-node placement).
  auto init_chunk = [&](std::size_t c) {
    ActivityAccum& a = parts[c];
    ActivityScratch& sc = scratch[c];
    a.ones.assign(net.size(), 0);
    a.toggles.assign(net.size(), 0);
    if (compiled) {
      // Dead slots must read 0 (LogicSim's f.assign contract); records
      // never write them, so zeroing once per chunk suffices.
      sc.val.assign(net.size() * block, 0);
      sc.last.assign(net.size(), 0);
    }
  };
  const bool first_touch = core::numa_first_touch();
  if (!first_touch)
    for (std::size_t c = 0; c < n_chunks; ++c) init_chunk(c);
  auto run_chunk = [&](std::size_t c) {
    const std::size_t s_begin = c * plan.shards / n_chunks;
    const std::size_t s_end = (c + 1) * plan.shards / n_chunks;
    ActivityAccum& a = parts[c];
    ActivityScratch& sc = scratch[c];
    if (first_touch) init_chunk(c);
    for (std::size_t s = s_begin; s < s_end; ++s) {
      core::poll_cancel(cancel);
      // A single-shard plan keeps the legacy RNG stream (`seed` itself)
      // and runs all frames (sequential plans carry total == 0).
      const bool solo = plan.shards == 1;
      const std::uint64_t sseed = solo ? seed : core::shard_seed(seed, s);
      const std::size_t shard_frames = solo ? n_frames : plan.count(s);
      Frame* cap =
          capture ? capture->frames.data() + plan.begin(s) : nullptr;
      if (compiled)
        simulate_activity_shard_compiled(net, *csim, block, shard_frames,
                                         sseed, pi_one_prob, cap, a, sc,
                                         cancel);
      else
        simulate_activity_shard(net, *isim, dffs, shard_frames, sseed,
                                pi_one_prob, cap, a, sc, cancel);
    }
  };
  if (n_chunks == 1)
    run_chunk(0);
  else
    core::parallel_for(n_chunks, run_chunk);

  // Fixed chunk-order merge of exact integer counts: bit-identical results
  // at any thread count.
  std::vector<std::uint64_t> ones(net.size(), 0), toggles(net.size(), 0);
  std::size_t frames = 0, seams = 0;
  for (const auto& p : parts) {
    for (NodeId id = 0; id < net.size(); ++id) {
      ones[id] += p.ones[id];
      toggles[id] += p.toggles[id];
    }
    frames += p.frames;
    seams += p.seams;
  }

  core::metrics::count("sim.logic.runs");
  core::metrics::count("sim.logic.frames", static_cast<double>(frames));
  core::metrics::count("sim.logic.patterns",
                       static_cast<double>(frames) * 64.0);

  ActivityStats st = stats_from_counts(ones, toggles, frames * 64, seams * 64);
  if (capture) {
    capture->ones = std::move(ones);
    capture->toggles = std::move(toggles);
    capture->patterns = frames * 64;
    capture->seam_patterns = seams * 64;
  }
  return st;
}

}  // namespace

ActivityStats measure_activity(const Netlist& net, std::size_t n_frames,
                               std::uint64_t seed,
                               std::span<const double> pi_one_prob,
                               ActivityTrace* capture,
                               const core::CancelToken* cancel) {
  return drive_activity(net, n_frames, seed, pi_one_prob, capture, cancel,
                        /*compiled=*/true);
}

ActivityStats measure_activity_reference(const Netlist& net,
                                         std::size_t n_frames,
                                         std::uint64_t seed,
                                         std::span<const double> pi_one_prob,
                                         ActivityTrace* capture,
                                         const core::CancelToken* cancel) {
  return drive_activity(net, n_frames, seed, pi_one_prob, capture, cancel,
                        /*compiled=*/false);
}

bool equivalent_random(const Netlist& a, const Netlist& b,
                       std::size_t n_frames, std::uint64_t seed) {
  if (a.inputs().size() != b.inputs().size()) return false;
  if (a.outputs().size() != b.outputs().size()) return false;
  LogicSim sa(a), sb(b);
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> pi(a.inputs().size());
  auto da = a.dffs(), db = b.dffs();
  std::vector<std::uint64_t> qa(da.size()), qb(db.size());
  for (std::size_t i = 0; i < da.size(); ++i)
    qa[i] = a.node(da[i]).init_value ? ~0ULL : 0ULL;
  for (std::size_t i = 0; i < db.size(); ++i)
    qb[i] = b.node(db[i]).init_value ? ~0ULL : 0ULL;
  Frame fa, fb;
  for (std::size_t fr = 0; fr < n_frames; ++fr) {
    for (auto& w : pi) w = rng();
    sa.eval_into(fa, pi, qa);
    sb.eval_into(fb, pi, qb);
    for (std::size_t i = 0; i < a.outputs().size(); ++i)
      if (fa[a.outputs()[i]] != fb[b.outputs()[i]]) return false;
    sa.next_state_into(fa, qa);
    sb.next_state_into(fb, qb);
  }
  return true;
}

SimTrace functional_trace(const Netlist& net, std::size_t n_frames,
                          std::uint64_t seed) {
  SimTrace t;
  t.n_inputs = net.inputs().size();
  t.n_outputs = net.outputs().size();
  t.frames = n_frames;
  t.seed = seed;

  LogicSim sim(net);
  auto dffs = net.dffs();
  t.n_dffs = dffs.size();
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> pi(net.inputs().size());
  std::vector<std::uint64_t> q(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i)
    q[i] = net.node(dffs[i]).init_value ? ~0ULL : 0ULL;
  std::uint64_t digest = 0x5CA1AB1Eu;
  Frame f;
  for (std::size_t fr = 0; fr < n_frames; ++fr) {
    for (auto& w : pi) w = rng();
    sim.eval_into(f, pi, q);
    for (NodeId o : net.outputs()) digest = core::mix64(digest ^ f[o]);
    sim.next_state_into(f, q);
  }
  t.digest = digest;
  return t;
}

}  // namespace lps::sim
