// pass.hpp — pass manager for netlist-level optimization pipelines.
//
// Wraps the individual techniques behind a uniform interface so flows
// (flows.hpp) and user pipelines can chain them, with functional
// verification and invariant checking after every pass — every rewrite in
// this library is supposed to be safe, and the pass manager enforces it.
//
// Failure containment: a pass that throws, breaks a netlist invariant
// (Netlist::check()/validate()), or changes the circuit function is *rolled
// back* — the pre-pass state is restored, the failure is recorded as a
// Diagnostic on its PassRecord, and the remaining passes still run.  Set
// Options::rollback = false to get the old abort-on-first-failure behavior
// (the failure is then rethrown as diag::CheckError).
//
// Every pass runs under a TransformGuard, the same guard the flows
// (flows.hpp) run each stage under: the pass is journaled in one Netlist
// undo epoch (rollback costs O(edit size), not a whole-netlist copy), its
// function is checked against a pre-pass functional_trace() digest (no
// pre-pass clone is kept alive), and the journal's touched set scopes the
// per-pass power estimate to the pass's fanout cone.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/diag.hpp"
#include "logicopt/bdd_synth.hpp"
#include "logicopt/dontcare.hpp"
#include "logicopt/rewrite/engine.hpp"
#include "netlist/netlist.hpp"
#include "power/activity.hpp"
#include "power/incremental.hpp"

namespace lps::core {

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  /// Transform the netlist; return a one-line human-readable summary.
  virtual std::string run(Netlist& net) = 0;
};

/// Adapter for lambda passes.
class FnPass final : public Pass {
 public:
  FnPass(std::string name, std::function<std::string(Netlist&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  std::string name() const override { return name_; }
  std::string run(Netlist& net) override { return fn_(net); }

 private:
  std::string name_;
  std::function<std::string(Netlist&)> fn_;
};

struct PassRecord {
  std::string pass;
  std::string summary;
  bool verified = false;     // equivalence check ran and passed
  bool ok = true;            // pass ran without throwing/breaking anything
  bool rolled_back = false;  // pre-pass snapshot was restored
  diag::Diagnostic diag;     // why the pass failed (when !ok)
  /// Estimated total power after this pass (Options::estimate_power only;
  /// rolled-back passes report the restored circuit's power).
  double power_w = 0.0;
};

/// True when every record succeeded.
bool all_ok(const std::vector<PassRecord>& records);

/// The measured-keep guard shared by PassManager::run (per pass) and the
/// flow stage loop (flows.cpp, per stage).  run() applies one transform
/// inside a fresh journal epoch and then:
///   - absorbs any inner epochs the transform left open (counted as
///     `<scope>.stray_epochs`) into that epoch;
///   - checks netlist invariants and the function against a pre-transform
///     functional_trace() digest;
///   - on any failure, a throw, or cancellation, unwinds the journal to and
///     including its epoch, so no half-applied transform survives (a
///     cancellation is rethrown, never recorded as a failure);
///   - estimates power with the epoch still open (the touched set scopes
///     the cone update) and commits or rolls back per the caller's keep
///     policy.
/// Estimates degrade instead of failing a transform: cone update → full
/// rebaseline (`<scope>.estimate_fallback`) → drop the analyzer for
/// full power::analyze runs (`<scope>.estimate_dropped`).
class TransformGuard {
 public:
  enum class Outcome { Kept, Reverted, Failed };
  struct Result {
    Outcome outcome = Outcome::Kept;
    std::string summary;        // what the transform returned
    diag::Diagnostic failure;   // why the transform was rolled back (Failed)
    /// Nodes the estimate re-simulated vs what a full re-analysis
    /// evaluates; both 0 unless a cone update ran.
    std::size_t resim_nodes = 0;
    std::size_t full_nodes = 0;
  };

  /// Guard transforms of `net`.  `scope` prefixes the guard's metrics.
  /// `verify_frames` == 0 skips the function check.  With `estimate` set,
  /// the guard keeps a power estimate of `net` across transforms.
  TransformGuard(Netlist& net, std::string scope, std::size_t verify_frames,
                 std::uint64_t verify_seed, bool check_invariants,
                 std::optional<power::AnalysisOptions> estimate);

  /// Apply `transform` under the guard.  `keep` sees the estimated power
  /// after the transform and decides commit (true) or rollback (false);
  /// without it (or without an estimate) a passing transform is kept.
  Result run(const std::function<std::string(Netlist&)>& transform,
             const std::function<bool(double)>& keep = {});

  /// Estimate of the circuit as it stands (requires an `estimate`).
  const power::Analysis& analysis();

 private:
  void drop_analyzer();

  Netlist& net_;
  std::string scope_;
  std::size_t verify_frames_;
  std::uint64_t verify_seed_;
  bool check_invariants_;
  std::optional<power::AnalysisOptions> estimate_;
  std::optional<power::IncrementalAnalyzer> inc_;
  std::optional<power::Analysis> full_;  // full-analyze estimate, cached
};

class PassManager {
 public:
  struct Options {
    /// Check each pass against the pre-pass circuit with random patterns.
    bool verify = true;
    /// Run the structural invariant checker after every pass.
    bool check_invariants = true;
    /// Contain failures: restore the pre-pass state and keep going.  When
    /// false a failing pass rethrows (diag::CheckError) after restoring the
    /// input.
    bool rollback = true;
    std::size_t verify_vectors = 1024;
    std::uint64_t verify_seed = 0xABCD;
    /// Record an estimated power number on every PassRecord, through the
    /// cone-scoped incremental analyzer (power/incremental.hpp) fed by the
    /// pass epoch's touched set.
    bool estimate_power = false;
    /// Analysis options for the per-pass estimate (estimate_power only).
    power::AnalysisOptions estimate;
  };

  explicit PassManager(Options opt) : opt_(opt) {}
  /// Back-compat shorthand: verification on/off, rollback containment on.
  explicit PassManager(bool verify = true) { opt_.verify = verify; }

  const Options& options() const { return opt_; }

  void add(std::unique_ptr<Pass> p) { passes_.push_back(std::move(p)); }
  void add(std::string name, std::function<std::string(Netlist&)> fn) {
    passes_.push_back(std::make_unique<FnPass>(std::move(name), std::move(fn)));
  }

  /// Run all passes in order; returns a record per pass (failed passes are
  /// recorded, rolled back and skipped — the flow continues).
  std::vector<PassRecord> run(Netlist& net) const;

 private:
  Options opt_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

// Ready-made passes over this library's techniques.
std::unique_ptr<Pass> make_strash_pass();
std::unique_ptr<Pass> make_sweep_pass();
/// ODC rewriting (logicopt/dontcare.hpp).  The summary names a stop at
/// the rewrite cap or the BDD budget, so neither reads like a fixpoint.
std::unique_ptr<Pass> make_dontcare_pass(logicopt::DontCareOptions opt = {});
std::unique_ptr<Pass> make_balance_pass(int buffer_budget = -1);  // -1 = full
/// Power-driven datapath rewriting (logicopt/rewrite/engine.hpp).  The
/// engine journals each candidate in a nested undo epoch, which composes
/// with the manager's own pass epoch.
std::unique_ptr<Pass> make_datapath_rewrite_pass(
    logicopt::rewrite::RewriteOptions opt = {});
/// Hybrid BDD→MUX extraction (logicopt/bdd_synth.hpp): per-cone BDDs on
/// the complement-edge manager, activity-weighted sifting, each kept cone
/// proven and power-scored individually.  Candidate epochs nest inside the
/// manager's pass epoch like the datapath engine's.
std::unique_ptr<Pass> make_bdd_synth_pass(logicopt::BddSynthOptions opt = {});

}  // namespace lps::core
