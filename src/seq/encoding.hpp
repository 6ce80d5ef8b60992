// encoding.hpp — state assignment for low power (§III-C.1).
//
// "If a state s has a large number of transitions to state q, then the two
// states should be given uni-distant codes, so as to minimize switching
// activity at the flip-flop outputs."  Implements the weighted-Hamming
// objective of [35]/[47] with a simulated-annealing search, reference
// encodings (binary, gray-walk, one-hot, random), logic synthesis of the
// encoded machine into a gate/flip-flop netlist, and the re-encoding flow
// of Hachtel et al. [18] (extract the STG back out of a logic-level design
// and re-assign codes).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "seq/stg.hpp"
#include "sop/sop.hpp"

namespace lps::seq {

/// One code word per state, each `bits` wide (bit i = 1 << i).
struct Encoding {
  int bits = 0;
  std::vector<std::uint32_t> codes;

  /// Σ over STG edges of weight(s,q) · hamming(code_s, code_q): the expected
  /// number of flip-flop transitions per clock cycle.
  double weighted_switching(const Stg& stg) const;
  bool valid(int num_states) const;  // distinct codes, width respected
};

Encoding binary_encoding(const Stg& stg);
Encoding onehot_encoding(const Stg& stg);
Encoding random_encoding(const Stg& stg, std::uint32_t seed);
/// Greedy gray-like walk: order states by steady-state probability and give
/// consecutive hot states unit-distance codes where possible.
Encoding gray_walk_encoding(const Stg& stg);

struct AnnealOptions {
  int bits = 0;  // 0 = minimum width
  int iterations = 20000;
  double t0 = 2.0;
  double cooling = 0.9995;
  std::uint32_t seed = 1;
};

/// Simulated-annealing minimization of weighted switching (the cost of
/// [35,47]).  Starts from binary encoding; swap/reassign moves.
Encoding low_power_encoding(const Stg& stg, const AnnealOptions& opt = {});

/// Synthesize the encoded machine: inputs i0..i(k-1), one Dff per code bit
/// (reset state = code of stg.reset_state), two-level next-state and output
/// logic built from the STG cubes.  Output names o0..; state bits exposed
/// for inspection as "st<i>".
Netlist synthesize_fsm(const Stg& stg, const Encoding& enc,
                       const std::string& name = "fsm");

/// The state codes `enc` leaves unused, as a don't-care cover over `nv`
/// variables whose state bits start at `first_var`: one cube per code-bit
/// prefix that no used code extends (at most codes x bits cubes, where
/// listing every unused minterm takes 2^bits - codes).  Empty when
/// enc.bits >= 30.  synthesize_fsm and gate_self_loops_from_stg minimize
/// against it.
sop::Sop unused_code_dontcares(unsigned nv, unsigned first_var,
                               const Encoding& enc);

/// Extract the STG of a small sequential netlist by exhaustive reachability
/// (2^(FFs+PIs) enumeration; throws if beyond `max_states_bits`).  State
/// names are the code words; used by the re-encoding flow [18].
Stg extract_stg(const Netlist& net, int max_state_bits = 16);

struct ReencodeResult {
  Netlist circuit;        // re-synthesized netlist
  double wswitch_before = 0.0;
  double wswitch_after = 0.0;
};

/// Re-encoding flow of [18]: extract STG, anneal a new encoding, re-build.
ReencodeResult reencode_for_power(const Netlist& net,
                                  const AnnealOptions& opt = {});

/// Benini & De Micheli [4] proper: synthesize the self-loop predicate
/// directly from the STG ("checking for loop-edges in the State Transition
/// Graph") as a minimized two-level cover over (inputs, state bits), and
/// use it to disable the state registers.  Far cheaper than the generic
/// XOR comparator when the loop structure is simple (a polling FSM's
/// predicate is a single literal).  `net` must be the synthesize_fsm()
/// output for (stg, enc).  Returns the number of predicate gates added.
int gate_self_loops_from_stg(Netlist& net, const Stg& stg,
                             const Encoding& enc);

}  // namespace lps::seq
