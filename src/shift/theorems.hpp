#pragma once
// Executable versions of the paper's lower-bound constructions
// (Theorems 2-5).  Each experiment instantiates an *unsafe* variant of
// Algorithm 1 -- identical logic, timers shortened below the theorem's bound,
// which is precisely the "assume |OP| < bound" premise of the proof -- and
// realizes the adversarial schedule from the proof (delay matrices, clock
// offsets, invocation times).  The linearizability checker then certifies
// the violation.  Each experiment also runs the *standard* Algorithm 1 under
// the same adversary and certifies it survives, so the violation is
// attributable to timing alone.  Every run is a harness::RunSpec with an
// explicit timing policy, executed by harness::execute.
//
// Theorem 2 additionally exercises the classic shifting technique on the
// recorded run (shift, admissibility re-check, re-check linearizability),
// and Theorems 4 and 5 exercise the new shift-and-chop machinery
// mechanically, verifying the bookkeeping claims of the proofs (which edge
// becomes invalid, where each view is cut, which operations survive the
// cut).

#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "harness/runner.hpp"
#include "shift/shift.hpp"

namespace lintime::shift {

/// Common outcome fields for all theorem experiments.
struct ExperimentResult {
  std::string name;
  sim::Time bound = 0;           ///< the theorem's lower bound (time units)
  sim::Time unsafe_latency = 0;  ///< the violating |OP| (or sum) actually used
  bool unsafe_violated = false;  ///< adversary produced a non-linearizable run
  bool safe_survived = false;    ///< standard Algorithm 1 stayed linearizable
  std::string details;           ///< multi-line human-readable report

  [[nodiscard]] bool demonstrated() const { return unsafe_violated && safe_survived; }
};

/// Theorem 2 (|AOP| >= u/4 for pure accessors), via classic shifting.
///
/// Runs the proof's run R1 -- a mutator instance at p2 surrounded by k+2
/// alternating pure-accessor instances at p0/p1 under uniform delays d-u/2 --
/// with an unsafe algorithm whose AOP latency is `unsafe_fraction * u/4`.
/// R1 itself is linearizable; the experiment then shifts p0/p1 by +-u/4
/// around the last old-value accessor (the proof's index j), verifies the
/// shifted run is admissible, and certifies it is NOT linearizable.
///
/// `mutator_op` must be visible to `aop` (the proof's op/aop/aop' triple);
/// `rho` is executed at p0 first (may be empty).
struct Theorem2Spec {
  std::string aop;
  adt::Value aop_arg;
  std::string mutator_op;
  adt::Value mutator_arg;
  std::vector<harness::ScriptOp> rho;
  double unsafe_fraction = 0.8;  ///< AOP latency as a fraction of u/4
};
[[nodiscard]] ExperimentResult theorem2_pure_accessor(const adt::DataType& type,
                                                      const Theorem2Spec& spec,
                                                      const sim::ModelParams& params);

/// Theorem 3 (|OP| >= (1-1/k)u for last-sensitive mutators).
///
/// Live realization of the proof's shifted run R2: k concurrent instances of
/// the mutator at p0..p(k-1), clock offsets -x_i and invocation times t+x_i
/// (so every timestamp equals t, pinning last(pi) = p_{k-1} = the proof's z),
/// delays given by the shifted matrix of Claim 3.  The unsafe mutator ACKs
/// after `unsafe_fraction * (1-1/k) u`, making op_z respond before
/// op_{(z+1)%k} is invoked; the probe script then exposes that op_z's effect
/// is nevertheless last.
struct Theorem3Spec {
  std::string op;
  std::vector<adt::Value> args;  ///< k distinct arguments, one per process
  std::vector<harness::ScriptOp> rho;    ///< prefix executed at p0
  std::vector<harness::ScriptOp> probe;  ///< executed at p0 after quiescence
  double unsafe_fraction = 0.9;
};
[[nodiscard]] ExperimentResult theorem3_last_sensitive(const adt::DataType& type,
                                                       const Theorem3Spec& spec,
                                                       const sim::ModelParams& params);

/// Theorem 4 (|OP| >= d + m, m = min{eps, u, d/3}, for pair-free ops).
///
/// Live realization of the proof's run R4: clock offsets (-m, 0, ...), p1
/// invokes OP(arg1) at t, p0 invokes OP(arg0) at t+m; edges into p1 carry
/// delay d so p1 cannot learn of op0 before responding.  With the unsafe
/// OOP latency d + m/2 (< d+m but >= d, i.e. strictly beyond the previously
/// known bound), both instances return their solo values, which pair-freeness
/// makes jointly illegal.
struct Theorem4Spec {
  std::string op;
  adt::Value arg0;
  adt::Value arg1;
  std::vector<harness::ScriptOp> rho;  ///< prefix executed at p0
};
[[nodiscard]] ExperimentResult theorem4_pair_free(const adt::DataType& type,
                                                  const Theorem4Spec& spec,
                                                  const sim::ModelParams& params);

/// Theorem 4's shift-and-chop bookkeeping (Figures 2-6), mechanically:
/// records the proof's R2, shifts p1 earlier by m (x = (0,-m,0,...)),
/// verifies exactly the edge p1->p0 becomes invalid at d+m, chops at
/// delta = d-m, and verifies p1's view survives past op1's response while
/// all remaining delays are valid (Lemma 2).
struct ChopDemoResult {
  bool one_invalid_edge = false;
  bool chop_valid = false;         ///< Lemma 2 postconditions hold
  bool op_survives_chop = false;   ///< the proof's target op completes in the fragment
  std::string details;

  [[nodiscard]] bool ok() const { return one_invalid_edge && chop_valid && op_survives_chop; }
};
[[nodiscard]] ChopDemoResult theorem4_chop_demo(const adt::DataType& type,
                                                const Theorem4Spec& spec,
                                                const sim::ModelParams& params);

/// Theorem 5 (|OP| + |AOP| >= d + m for a transposable mutator and a
/// discriminating pure accessor).
///
/// Live realization: offsets (0, -m, 0), both mutator instances invoked at
/// real time t (p1's timestamp is m smaller, fixing the linearization
/// order), then concurrent accessors at p0 (which has heard both mutators)
/// and p2 (which has heard neither).  With the unsafe sum below d, p2's
/// accessor returns the initial-state value although both mutators completed
/// before it began -- jointly non-linearizable with p0's accessor.
struct Theorem5Spec {
  std::string op;
  adt::Value arg0;
  adt::Value arg1;
  std::string aop;
  adt::Value aop_arg;
  std::vector<harness::ScriptOp> rho;
};
[[nodiscard]] ExperimentResult theorem5_sum(const adt::DataType& type, const Theorem5Spec& spec,
                                            const sim::ModelParams& params);

/// Theorem 5's shift-and-chop bookkeeping (Figures 8-10): records R1, shifts
/// p1 later by m, verifies the single invalid edge p1->p0 (= d-2m; requires
/// parameters with 2m > u), chops at d-m, and verifies the accessors at p1
/// and p2 survive the cut (Claim 8).
[[nodiscard]] ChopDemoResult theorem5_chop_demo(const adt::DataType& type,
                                                const Theorem5Spec& spec,
                                                const sim::ModelParams& params);

/// The full Theorem 4 proof pipeline (Figures 3-7), run LIVE: the five runs
/// R1..R5 are executed against the unsafe algorithm (|OOP| = d + m/2 < d+m)
/// with the proof's exact offsets and (repaired) delay matrices, and the
/// proof's indistinguishability claims are verified mechanically on the
/// records:
///   Claim 4: p0's view through its response is identical in R1 and R2
///            (so p0 answers as if alone);
///   Claim 5: p1's view through its response is identical in R4 and R5
///            (so p1 cannot know whether op0 happened);
/// and the punchline: the algorithm returns the same value for op1 in R4 and
/// R5, which makes at least one of them non-linearizable.
struct Theorem4Pipeline {
  bool claim4_view_identity = false;
  bool claim5_view_identity = false;
  bool same_ret_r4_r5 = false;      ///< op1's return identical in R4 and R5
  bool contradiction = false;       ///< R4 or R5 fails the checker
  adt::Value ret0_solo;             ///< op0's return when alone (R1)
  adt::Value ret1_solo;             ///< op1's return when alone (R5)
  std::string details;

  [[nodiscard]] bool ok() const {
    return claim4_view_identity && claim5_view_identity && same_ret_r4_r5 && contradiction;
  }
};
[[nodiscard]] Theorem4Pipeline theorem4_full_pipeline(const adt::DataType& type,
                                                      const Theorem4Spec& spec,
                                                      const sim::ModelParams& params);

/// The Theorem 5 proof pipeline (Figures 8-10), run LIVE in the
/// reversed-role form our timestamp algorithm selects (it linearizes p0's
/// mutator first, the proof's symmetric case):
///   R1: both mutators at t, three accessors -- all replicas agree, run
///       linearizable;
///   R2: p0 shifted later by m with the invalid p0->p1 edge repaired to d
///       (the chop's effect realized as a live run): p1's accessor can no
///       longer hear p0's mutator, yet p0's mutator now strictly follows
///       p1's in real time -- the accessor at p0 still answers by timestamp
///       order, which no linearization allows;
///   R3: R2 with p0's mutator deleted -- p1's view through its accessor's
///       response is IDENTICAL (verified on the records), and R3 is
///       linearizable: the contradiction the proof derives.
struct Theorem5Pipeline {
  bool r1_linearizable = false;
  bool aop1_misses_op0 = false;     ///< in R2, p1's accessor answers pre-op0
  bool view_identity_r2_r3 = false; ///< p1's view identical through its response
  bool r2_violated = false;
  bool r3_linearizable = false;
  std::string details;

  [[nodiscard]] bool ok() const {
    return r1_linearizable && aop1_misses_op0 && view_identity_r2_r3 && r2_violated &&
           r3_linearizable;
  }
};
[[nodiscard]] Theorem5Pipeline theorem5_full_pipeline(const adt::DataType& type,
                                                      const Theorem5Spec& spec,
                                                      const sim::ModelParams& params);

/// Section 6.1's generalized Lipton-Sandberg bound: for any *interfering*
/// pair (a mutator op1 whose occurrence changes an accessor op2's return
/// value), |OP1| + |OP2| >= d -- the accessor must have time to hear about
/// the mutator.  Live demonstration: an unsafe split with sum < d produces a
/// stale read after the mutator completed; the standard algorithm (sum
/// d + eps) survives.
struct InterferenceSpec {
  std::string mutator_op;
  adt::Value mutator_arg;
  std::string aop;
  adt::Value aop_arg;
  std::vector<harness::ScriptOp> rho;
  double unsafe_fraction = 0.9;  ///< sum as a fraction of d
};
[[nodiscard]] ExperimentResult interference_sum(const adt::DataType& type,
                                                const InterferenceSpec& spec,
                                                const sim::ModelParams& params);

}  // namespace lintime::shift
