// bdd.hpp — reduced ordered binary decision diagrams at synthesis scale.
//
// Several surveyed techniques are symbolic: exact signal-probability
// computation under spatial correlation (§IV-A / [16]), controllability and
// observability don't-care extraction (§III-A.1 / [37,38,19]), universal
// quantification for precomputation-logic selection ([30]), formal
// equivalence checking of every rewrite, and BDD-derived MUX-network
// synthesis (Popel).  The synthesis workload is what forced the package
// past "simplicity over peak capacity": this manager supports
//
//  * complement edges on the else-arm.  A Ref is (node_index << 1) | c;
//    the complement bit negates the pointed-to function, so negation is
//    O(1) and f / !f share one DAG.  Canonical form: the then-edge of every
//    node is regular (never complemented), which keeps equality-of-Ref
//    equivalent to equality-of-function.  kFalse (0) and kTrue (1) are the
//    two polarities of the single terminal at node index 0.
//    `Config::complement_edges = false` disables the normalization and the
//    complement-based ITE canonicalization, reproducing the historical
//    two-terminal manager's structure: the seed encoding the canonicity
//    test and the E27 footprint baseline compare against.
//
//  * reference-counted roots + mark-and-sweep garbage collection.  ref() /
//    deref() pin externally held functions; gc() sweeps everything
//    unreachable from the pinned set onto a free list that mk() reuses, so
//    long build/discard churn no longer grows the node array
//    monotonically.  With `Config::auto_gc`, collection also runs
//    automatically at public-operation entry once live_nodes() crosses
//    gc_trigger (the operation's own arguments are pinned for the sweep).
//    Auto-GC contract: every Ref held across a public call must be
//    rooted or be an argument of that call — chains like
//    `h = op2(op1(f, g), k)` are safe, but holding two unrooted temporaries
//    across a second call is not.  Raw managers default to auto_gc=false.
//
//  * a 2-way set-associative aging computed table for ITE (MRU entry
//    first within each set) replacing the direct-mapped lossy cache, and
//    the same allocation-lean open-addressing unique table as before
//    (slots store node indices; keys are re-read from the node array).
//
//  * sifting-based dynamic reordering (sift()).  Variables move through
//    the order by adjacent-level swaps that rewrite affected nodes in
//    place, so rooted Refs survive reordering with their functions intact
//    (unrooted Refs do not: sift collects on entry).  Swaps are
//    level-local: sift builds per-variable node lists and in-degrees once,
//    and each swap touches only its two levels, freeing a node the moment
//    its in-degree reaches zero.  The cost function is sum over variables
//    of live-node-count × weight, so a caller can weight levels by
//    per-variable switching activity (SiftOptions::weights, fed from
//    sim::ActivityTrace) and the order optimizes toward cheap MUX networks
//    rather than raw size.
//
// Counter lifetime: the bdd.* metrics (allocation, table and GC counters)
// are flushed to the global registry by clear_caches() and by the
// destructor, and reset to zero on each flush — a long-lived manager
// (e.g. a per-round resynthesis BDD view) reports per-window deltas, not
// stale lifetime totals.  Accessors (cache_hits() etc.) read the
// counters accumulated since the last flush.  bdd.gc.runs / bdd.gc.swept
// count real mark-and-sweep collections only (gc(), auto-GC, sift's entry
// and its node-limit recovery), never the nodes a sift swap frees;
// bdd.sift.visited counts the nodes swaps examine.  bdd.peak_live is a
// high-water gauge: the largest single manager's peak, not a sum.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace lps::bdd {

/// Tagged reference to a function: (node index << 1) | complement bit.
/// Node index 0 is the terminal, so kFalse = 0 and kTrue = 1 keep their
/// historical values.
using Ref = std::uint32_t;
inline constexpr Ref kFalse = 0;
inline constexpr Ref kTrue = 1;

/// Complement-bit helpers (meaningful only for refs of one manager).
inline constexpr bool is_complemented(Ref r) { return (r & 1u) != 0; }
inline constexpr Ref regular(Ref r) { return r & ~Ref{1}; }
inline constexpr std::uint32_t index_of(Ref r) { return r >> 1; }

/// Thrown when a construction exceeds the manager's live-node budget.
struct NodeLimitExceeded : std::runtime_error {
  NodeLimitExceeded() : std::runtime_error("BDD node limit exceeded") {}
};

/// Manager construction knobs.  default_config() keeps complement edges on
/// and seeds gc_trigger from the LPS_BDD_GC_TRIGGER environment knob
/// (parsed once through core/env); auto_gc always defaults to off — opting
/// in is the caller's promise that it roots everything it holds across
/// public calls (build_bdds does).
struct Config {
  /// Bounds *live* nodes (free-listed ones don't count).
  std::size_t node_limit = 4u << 20;
  bool complement_edges = true;
  bool auto_gc = false;
  /// Live-node threshold that arms automatic collection.
  std::size_t gc_trigger = std::size_t{1} << 15;
};
/// Defaults with the environment-seeded gc_trigger (LPS_BDD_GC_TRIGGER).
Config default_config();

class Manager {
 public:
  explicit Manager(unsigned num_vars, const Config& config);
  /// Historical constructor: default_config() with `node_limit` overridden
  /// (complement edges on, no auto-GC).
  explicit Manager(unsigned num_vars, std::size_t node_limit = 4u << 20);
  /// Flushes the bdd.* counters (see header comment) and counts
  /// bdd.managers.
  ~Manager();

  Manager(Manager&&) noexcept = default;
  Manager& operator=(Manager&&) noexcept = default;

  unsigned num_vars() const { return num_vars_; }
  /// Allocated node-array entries (terminal + live + free-listed).
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Alias of num_nodes() for instrumentation call sites.
  std::size_t nodes() const { return nodes_.size(); }
  /// Internal nodes currently reachable-or-allocated (excludes the
  /// terminal and the free list).  This is what node_limit bounds.
  std::size_t live_nodes() const { return live_nodes_; }
  /// High-water mark of live_nodes() over the manager's lifetime.
  std::size_t peak_live_nodes() const { return peak_live_nodes_; }

  /// Counters since the last flush (see header comment on lifetime).
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_lookups() const { return cache_lookups_; }
  std::uint64_t unique_hits() const { return unique_hits_; }
  std::uint64_t gc_runs() const { return gc_runs_; }
  std::uint64_t gc_swept() const { return gc_swept_; }
  std::uint64_t sift_swaps() const { return sift_swaps_; }
  /// Nodes the swaps examined: both level lists of every swap.
  std::uint64_t sift_visited() const { return sift_visited_; }

  /// Capacity hint: pre-size the node array and unique table for about `n`
  /// nodes, avoiding growth rehashes during a large build.
  void reserve(std::size_t n);

  /// Add another variable at the bottom of the order; returns its index.
  unsigned add_var();

  /// Current position of variable v in the order (top = 0).
  unsigned level_of(unsigned v) const { return level_of_[v]; }
  /// Variable at each level, top to bottom.
  const std::vector<unsigned>& var_order() const { return var_at_; }

  Ref var(unsigned v);   // projection function x_v
  Ref nvar(unsigned v);  // !x_v

  Ref ite(Ref f, Ref g, Ref h);
  Ref land(Ref f, Ref g) { return ite(f, g, kFalse); }
  Ref lor(Ref f, Ref g) { return ite(f, kTrue, g); }
  Ref lnot(Ref f) {
    return complement_ ? (f ^ 1u) : ite(f, kFalse, kTrue);
  }
  Ref lxor(Ref f, Ref g);
  Ref lxnor(Ref f, Ref g) { return lnot(lxor(f, g)); }
  Ref implies(Ref f, Ref g) { return ite(f, g, kTrue); }

  /// Shannon cofactor with respect to x_v = value.
  Ref cofactor(Ref f, unsigned v, bool value);
  /// Existential / universal quantification over one variable or a set.
  Ref exists(Ref f, unsigned v);
  Ref forall(Ref f, unsigned v);
  Ref exists(Ref f, std::span<const unsigned> vars);
  Ref forall(Ref f, std::span<const unsigned> vars);
  /// Substitute g for variable v in f.
  Ref compose(Ref f, unsigned v, Ref g);

  /// Root management: a ref()'d function survives gc() and sift().
  /// Calls nest (a per-node use count); deref() of an unref()'d ref is an
  /// error.  Constants need no rooting.  Returns r for chaining.
  Ref ref(Ref r);
  void deref(Ref r);

  /// Mark-and-sweep collection: everything not reachable from ref()'d
  /// roots moves to the free list for reuse.  Unrooted Refs are invalid
  /// afterwards.  Clears the computed table.  Returns nodes swept.
  std::size_t gc();
  bool auto_gc_enabled() const { return auto_gc_; }
  void set_auto_gc(bool on) { auto_gc_ = on; }

  /// Dynamic reordering by sifting.  Requires every function the caller
  /// still cares about to be ref()'d: sift collects once on entry, then
  /// each adjacent-level swap rewrites the affected nodes of its two
  /// levels in place (rooted Refs keep their identity and function) and
  /// frees exactly the nodes it orphans — no per-swap collection, rehash
  /// or scan of the node array.  The computed table is cleared once, at
  /// exit.  weights[v] scales the cost of a live node labelled v (missing
  /// entries count 1.0) — pass per-variable switching activity to bias
  /// the order toward low-power MUX networks.  May throw
  /// NodeLimitExceeded mid-sift; the manager stays valid and garbage-free
  /// (order moved only by completed swaps, functions preserved, the failed
  /// swap's partial cofactors collected).
  struct SiftOptions {
    std::span<const double> weights{};
    /// Abandon a variable's walk when cost exceeds best × growth_limit.
    double growth_limit = 2.0;
    /// Sift only the max_vars highest-count variables (0 = all).
    std::size_t max_vars = 0;
  };
  void sift(const SiftOptions& opt);
  void sift() { sift(SiftOptions()); }

  /// Number of satisfying assignments over all num_vars() variables.
  double sat_count(Ref f);
  /// P(f = 1) when each x_v independently equals 1 with probability p[v].
  /// This is the exact correlation-aware signal probability of [16].
  double probability(Ref f, std::span<const double> p);

  /// Variables f actually depends on.
  std::vector<unsigned> support(Ref f);
  /// Dag size (number of internal nodes reachable from f).
  std::size_t size(Ref f);

  /// One satisfying assignment (value per variable; unconstrained vars are
  /// false).  Empty optional iff f == FALSE.
  std::optional<std::vector<bool>> any_sat(Ref f);

  /// Evaluate under a complete assignment.
  bool eval(Ref f, const std::vector<bool>& assignment) const;

  /// Enumerate all satisfying minterms as cube strings over the first
  /// `width` variables ('0'/'1'/'-').  For tests on small functions.
  std::vector<std::string> cubes(Ref f, unsigned width);

  /// Drop the computed table and flush the bdd.* metrics window (unique
  /// table stays; refs remain valid — this never collects).
  void clear_caches();

  /// then/else children of an internal node.  With complement edges the
  /// stored edges describe the *regular* function of the node; a
  /// complemented parent Ref negates both resolved children
  /// (lo ^ (r & 1), hi ^ (r & 1)).
  struct Node {
    unsigned var;
    Ref lo, hi;
  };
  const Node& node(Ref r) const { return nodes_[index_of(r)]; }
  bool is_const(Ref r) const { return r <= kTrue; }
  bool complement_edges() const { return complement_; }

 private:
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
  static constexpr unsigned kConstVar = 0xFFFFFFFFu;
  static constexpr unsigned kFreeVar = 0xFFFFFFFEu;
  static constexpr std::uint32_t kNoFree = 0xFFFFFFFFu;

  static std::size_t hash3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
    std::uint64_t h = a;
    h = h * 0x9E3779B97F4A7C15ull + b;
    h = h * 0x9E3779B97F4A7C15ull + c;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  // Re-entrancy guard for public operations: collection may only run at
  // the outermost entry, with that operation's arguments pinned.
  class OpGuard;
  friend class OpGuard;

  Ref mk(unsigned var, Ref lo, Ref hi);
  Ref ite_rec(Ref f, Ref g, Ref h);
  void grow_unique(std::size_t min_slots);
  void rebuild_unique();
  void unique_insert(std::uint32_t idx);
  /// Backward-shift deletion of a live node's slot (keys re-read from
  /// nodes_, so call it before the node changes).
  void unique_erase(std::uint32_t idx);
  /// Mark from roots + `pins`, sweep the rest to the free list, rebuild
  /// the unique table, clear the computed table.  Returns nodes swept.
  std::size_t collect(std::span<const Ref> pins);
  void maybe_gc(std::span<const Ref> pins);
  struct SiftState;
  /// One adjacent-level swap (levels l, l+1): rewrites, re-keys and frees
  /// nodes of those two levels only, keeping `st` exact.
  void swap_levels(unsigned l, SiftState& st);
  void flush_metrics();

  // One computed-table entry; `f == kEmptySlot` marks unused.  Entries
  // live in 2-way sets (even/odd pairs), most recently used first.
  struct IteEntry {
    Ref f = kEmptySlot;
    Ref g = 0, h = 0, result = 0;
  };
  IteEntry* ite_find(Ref f, Ref g, Ref h);
  void ite_insert(Ref f, Ref g, Ref h, Ref result);

  unsigned num_vars_;
  std::size_t node_limit_;
  bool complement_;
  bool auto_gc_;
  std::size_t gc_trigger_base_;
  std::size_t gc_trigger_;
  std::size_t gc_low_water_ = 0;  // live nodes after the last collection
  int op_depth_ = 0;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> ref_count_;  // per node index, external roots
  std::uint32_t free_head_ = kNoFree;     // free list threaded through .lo
  std::size_t free_count_ = 0;
  std::size_t live_nodes_ = 0;
  std::size_t peak_live_nodes_ = 0;

  std::vector<unsigned> level_of_;  // var -> level
  std::vector<unsigned> var_at_;    // level -> var

  std::vector<std::uint32_t> unique_slots_;  // node indices; open addressing
  std::size_t unique_used_ = 0;
  std::vector<IteEntry> ite_cache_;  // 2-way sets: entries 2k, 2k+1

  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_lookups_ = 0;
  std::uint64_t unique_hits_ = 0;
  std::uint64_t nodes_allocated_ = 0;
  std::uint64_t gc_runs_ = 0;
  std::uint64_t gc_swept_ = 0;
  std::uint64_t sift_swaps_ = 0;
  std::uint64_t sift_visited_ = 0;
};

}  // namespace lps::bdd
