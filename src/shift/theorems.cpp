#include "shift/theorems.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/timing_policy.hpp"
#include "lin/checker.hpp"
#include "shift/render.hpp"

namespace lintime::shift {

namespace {

using adt::Value;
using core::TimingPolicy;
using harness::Call;
using harness::ScriptOp;
using sim::ModelParams;
using sim::ProcId;
using sim::Time;

/// The run every experiment starts from: Algorithm 1 under `timing`, with
/// the prefix `rho` scripted at p0 from time 0.  Each experiment adds its
/// adversary (clock offsets, delays) and its open-loop calls.
harness::RunSpec algorithm_one_run(const ModelParams& params, const TimingPolicy& timing,
                                   const std::vector<ScriptOp>& rho) {
  harness::RunSpec run;
  run.params = params;
  run.timing = timing;
  run.scripts.assign(static_cast<std::size_t>(params.n), {});
  run.scripts[0] = rho;
  return run;
}

/// `base` under the given clock offsets, delay matrix and open-loop calls.
sim::RunRecord run_under(const adt::DataType& type, harness::RunSpec base,
                         std::vector<Time> offsets, const std::vector<std::vector<Time>>& delays,
                         std::vector<Call> calls) {
  base.clock_offsets = std::move(offsets);
  base.delays = std::make_shared<sim::MatrixDelay>(delays);
  base.calls = std::move(calls);
  return harness::execute(type, base).record;
}

/// Conservative upper bound on the quiescence time of a sequential script of
/// `count` operations started at time 0 under Algorithm 1 (any policy: the
/// slowest class is OOP at d+eps, plus u+eps of queue-settling tail per op).
Time quiescence_bound(const ModelParams& p, std::size_t count) {
  return (static_cast<Time>(count) + 1.0) * (p.d + p.u + p.eps + 1.0);
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// The delays of shift(R, x) for a run R under the pair-wise uniform delay
/// matrix `delays` (Theorem 1): p_i -> p_j carries D_ij - x_i + x_j.
std::vector<std::vector<Time>> shift_delays(std::vector<std::vector<Time>> delays,
                                            const std::vector<Time>& x) {
  for (std::size_t i = 0; i < delays.size(); ++i) {
    for (std::size_t j = 0; j < delays.size(); ++j) {
      delays[i][j] -= x[i] - x[j];
    }
  }
  return delays;
}

/// What a chop demo's shift-and-chop steps produced.
struct ShiftChop {
  std::vector<std::vector<Time>> delays;  ///< the shifted run's delay matrix
  int invalid_edges = 0;
  bool delay_valid = false;  ///< the fragment breaks no delay bound (skew may)
  sim::RunRecord fragment;
};

/// The shift-and-chop steps of the Theorem 4 and 5 proofs on run `r` (under
/// `delays`): shift by x, print the shifted matrix and each invalid edge,
/// chop at d - m, and accept the fragment if it meets Lemma 2's
/// postconditions -- every received delay valid, every unreceived message's
/// recipient view ended before send + d -- so that only clock skew may be
/// violated.  `shifted` and `expected_edge` are the demo's words for the
/// shift and for the invalid edge it expects.
ShiftChop shift_and_chop(const sim::RunRecord& r, const std::vector<std::vector<Time>>& delays,
                         const std::vector<Time>& x, const ModelParams& params,
                         const std::string& shifted, const std::string& expected_edge,
                         std::ostream& details) {
  ShiftChop out;
  out.delays = shift_delays(delays, x);
  details << "delays after shifting " << shifted << ":\n"
          << render_delay_matrix(out.delays, params);
  for (std::size_t i = 0; i < out.delays.size(); ++i) {
    for (std::size_t j = 0; j < out.delays.size(); ++j) {
      if (i == j) continue;
      const Time delay = out.delays[i][j];
      if (delay < params.min_delay() - 1e-9 || delay > params.d + 1e-9) {
        ++out.invalid_edges;
        details << "invalid edge p" << i << "->p" << j << " = " << delay << "\n";
      }
    }
  }
  details << "invalid edges: " << out.invalid_edges << " (expected exactly " << expected_edge
          << ")\n";

  out.fragment = chop_run(shift_run(r, x), out.delays, params.d - params.m());
  out.delay_valid = true;
  for (const auto& v : check_admissibility(out.fragment).violations) {
    if (v.kind != Violation::Kind::kSkew) out.delay_valid = false;
  }
  details << "chopped fragment delay-valid: " << (out.delay_valid ? "yes" : "NO") << "\n";
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Theorem 2
// ---------------------------------------------------------------------------

ExperimentResult theorem2_pure_accessor(const adt::DataType& type, const Theorem2Spec& spec,
                                        const ModelParams& params) {
  params.validate();
  if (params.n < 3) throw std::invalid_argument("theorem2: needs n >= 3");
  if (params.eps + 1e-12 < params.u / 2) {
    throw std::invalid_argument("theorem2: needs eps >= u/2 (holds for eps = (1-1/n)u, n>=3)");
  }

  ExperimentResult result;
  result.name = "Theorem 2: pure accessor |AOP| >= u/4 (" + type.name() + "::" + spec.aop + ")";
  result.bound = params.u / 4;

  const Time quarter = params.u / 4;

  TimingPolicy unsafe = TimingPolicy::standard(params, /*X=*/0);
  unsafe.aop_respond = spec.unsafe_fraction * quarter;
  unsafe.aop_backdate = 0;
  result.unsafe_latency = unsafe.aop_respond;

  // If the visible mutator is a pure mutator, slow its ACK beyond the
  // announce-propagation time (a perfectly legal algorithm choice -- only
  // the accessor's speed is under test).  Otherwise the mutator would
  // respond long before any replica could have heard of it, the accessors
  // after its response would trivially return stale values, and the run
  // would break for the crude d-propagation reason rather than exercising
  // the u/4 shifting argument.
  const adt::OpCategory mutator_cat = type.category(spec.mutator_op);
  if (mutator_cat == adt::OpCategory::kPureMutator) {
    unsafe.mop_respond = std::max(unsafe.mop_respond, params.d - quarter);
  }

  // The mutator's latency determines how many accessor instances are needed
  // to straddle it (the proof's k = ceil(|OP| / (u/4))).
  const Time mutator_latency = (mutator_cat == adt::OpCategory::kPureMutator)
                                   ? unsafe.mop_bound()
                                   : unsafe.oop_bound();
  const int k = static_cast<int>(std::ceil(mutator_latency / quarter));

  const Time t = quiescence_bound(params, spec.rho.size());

  harness::RunSpec run = algorithm_one_run(params, unsafe, spec.rho);
  run.delays = std::make_shared<sim::MatrixDelay>(
      sim::MatrixDelay::uniform(params.n, params.d - params.u / 2));
  for (int i = 0; i <= k + 1; ++i) {
    run.calls.push_back(
        Call{t + i * quarter, static_cast<ProcId>(i % 2), spec.aop, spec.aop_arg});
  }
  run.calls.push_back(Call{t + quarter, 2, spec.mutator_op, spec.mutator_arg});
  const sim::RunRecord r1 = harness::execute(type, run).record;

  // Locate the proof's index j: the last accessor instance returning the
  // "old" value.  Accessor instances are the aop calls at p0/p1 from time t.
  std::vector<sim::OpRecord> aops;
  for (const auto& op : r1.ops) {
    if (op.op == spec.aop && op.invoke_real >= t - 1e-9 && op.proc <= 1) aops.push_back(op);
  }
  std::sort(aops.begin(), aops.end(),
            [](const sim::OpRecord& a, const sim::OpRecord& b) {
              return a.invoke_real < b.invoke_real;
            });

  std::ostringstream details;
  details << "k = " << k << ", accessors = " << aops.size() << "\n";

  const Value old_ret = aops.front().ret;
  int j = -1;
  bool monotone = true;
  for (std::size_t i = 0; i < aops.size(); ++i) {
    if (aops[i].ret == old_ret) {
      if (j >= 0 && static_cast<std::size_t>(j) + 1 != i) monotone = false;
      j = static_cast<int>(i);
    }
  }
  if (!monotone || j < 0 || j > k) {
    result.details = details.str() + "transition index j invalid (j=" + fmt(j) +
                     "); construction inapplicable under these parameters";
    return result;
  }
  details << "transition index j = " << j << " (aop_j at p" << (j % 2) << ")\n";

  // R1 itself must be linearizable (the unsafe algorithm looks correct here).
  const bool r1_ok = lin::check_linearizability(type, r1).linearizable;
  details << "R1 linearizable: " << (r1_ok ? "yes" : "NO") << "\n";

  // The proof's shift: the process that executed aop_j moves later by u/4,
  // the other earlier by u/4.
  std::vector<Time> x(static_cast<std::size_t>(params.n), 0.0);
  if (j % 2 == 0) {
    x[0] = quarter;
    x[1] = -quarter;
  } else {
    x[0] = -quarter;
    x[1] = quarter;
  }
  const sim::RunRecord r2 = shift_run(r1, x);
  const AdmissibilityReport adm = check_admissibility(r2);
  details << "R2 admissible: " << (adm.admissible ? "yes" : "NO") << " (max skew "
          << adm.max_skew << ", delays in [" << adm.min_delay << ", " << adm.max_delay << "])\n";

  {
    RenderOptions ro;
    ro.t_min = t - params.u;
    ro.t_max = t + (k + 2) * quarter + params.u;
    details << "R1 (recorded):\n" << render_timeline(r1, ro) << "R2 (shifted):\n"
            << render_timeline(r2, ro);
  }
  const auto r2_check = lin::check_linearizability(type, r2);
  details << "R2 linearizable: " << (r2_check.linearizable ? "yes (NOT the expected violation)"
                                                           : "NO (violation as proven)")
          << "\n";
  result.unsafe_violated = r1_ok && adm.admissible && !r2_check.linearizable;

  // Standard Algorithm 1 under the same adversary -- closed-loop workload of
  // the same shape -- stays linearizable, and stays linearizable even after
  // the same shift (a correct algorithm is correct in every admissible run).
  run.timing = TimingPolicy::standard(params, /*X=*/0);
  for (int i = 0; i < (k + 2 + 1) / 2; ++i) {
    run.scripts[0].push_back(ScriptOp{spec.aop, spec.aop_arg});
  }
  run.scripts[1].assign((k + 2) / 2, ScriptOp{spec.aop, spec.aop_arg, t});
  run.calls = {Call{t + quarter, 2, spec.mutator_op, spec.mutator_arg}};
  const sim::RunRecord safe_run = harness::execute(type, run).record;
  const bool safe_live = lin::check_linearizability(type, safe_run).linearizable;
  const sim::RunRecord safe_shifted = shift_run(safe_run, x);
  const AdmissibilityReport safe_adm = check_admissibility(safe_shifted);
  const bool safe_after_shift =
      !safe_adm.admissible || lin::check_linearizability(type, safe_shifted).linearizable;
  result.safe_survived = safe_live && safe_after_shift;
  details << "standard Algorithm 1: live " << (safe_live ? "linearizable" : "VIOLATED")
          << ", after same shift "
          << (safe_after_shift ? "linearizable/na" : "VIOLATED") << "\n";

  result.details = details.str();
  return result;
}

// ---------------------------------------------------------------------------
// Theorem 3
// ---------------------------------------------------------------------------

ExperimentResult theorem3_last_sensitive(const adt::DataType& type, const Theorem3Spec& spec,
                                         const ModelParams& params) {
  params.validate();
  const int k = static_cast<int>(spec.args.size());
  if (k < 2) throw std::invalid_argument("theorem3: needs k >= 2 arguments");
  if (params.n < k) throw std::invalid_argument("theorem3: needs n >= k");
  const Time bound = (1.0 - 1.0 / k) * params.u;
  if (params.eps + 1e-12 < bound) {
    throw std::invalid_argument("theorem3: needs eps >= (1-1/k)u");
  }

  ExperimentResult result;
  result.name = "Theorem 3: last-sensitive |OP| >= (1-1/k)u, k=" + std::to_string(k) + " (" +
                type.name() + "::" + spec.op + ")";
  result.bound = bound;

  // The proof's shift vector with z = k-1 (timestamps tie at t, broken by
  // process id, so the algorithm linearizes p_{k-1}'s instance last).
  const int z = k - 1;
  std::vector<Time> x(static_cast<std::size_t>(params.n), 0.0);
  for (int i = 0; i < k; ++i) {
    const int mod = ((z - i) % k + k) % k;
    x[static_cast<std::size_t>(i)] =
        (-(k - 1.0) / (2.0 * k) + static_cast<double>(mod) / k) * params.u;
  }

  // Live equivalent of R2 = shift(R1, x): clock offsets -x_i, invocations at
  // t + x_i, delays D'_ij = D_ij - x_i + x_j (Claim 3 proves validity).
  std::vector<std::vector<Time>> base(
      static_cast<std::size_t>(params.n),
      std::vector<Time>(static_cast<std::size_t>(params.n), params.d - params.u / 2));
  for (int i = 0; i < k; ++i) {
    for (int jj = 0; jj < k; ++jj) {
      const int mod = ((i - jj) % k + k) % k;
      base[static_cast<std::size_t>(i)][static_cast<std::size_t>(jj)] =
          params.d - static_cast<double>(mod) / k * params.u;
    }
  }
  TimingPolicy unsafe = TimingPolicy::standard(params, /*X=*/0);
  unsafe.mop_respond = spec.unsafe_fraction * bound;
  result.unsafe_latency = unsafe.mop_respond;

  harness::RunSpec run = algorithm_one_run(params, unsafe, spec.rho);
  run.delays = std::make_shared<sim::MatrixDelay>(shift_delays(base, x));
  for (const Time xi : x) run.clock_offsets.push_back(-xi);

  const Time t = quiescence_bound(params, spec.rho.size()) + params.u;
  const Time t_probe = t + 3 * (params.d + params.u + params.eps + 1);
  for (const auto& step : spec.probe) {
    run.scripts[0].push_back(ScriptOp{step.op, step.arg, t_probe});
  }

  // A tiny per-process stagger makes the timestamp order strictly
  // increasing in the process id (the proof gets the same effect from the
  // (clock, id) tie-break over exact reals; with floating-point times an
  // explicit margin is the robust way to pin last(pi) = p_{k-1}).  gamma is
  // five orders of magnitude below every bound margin in the construction.
  const Time gamma = 1e-6;
  for (int i = 0; i < k; ++i) {
    run.calls.push_back(Call{t + x[static_cast<std::size_t>(i)] + i * gamma,
                             static_cast<ProcId>(i), spec.op,
                             spec.args[static_cast<std::size_t>(i)]});
  }

  std::ostringstream details;

  const sim::RunRecord unsafe_run = harness::execute(type, run).record;
  const auto unsafe_check = lin::check_linearizability(type, unsafe_run);
  result.unsafe_violated = !unsafe_check.linearizable;
  {
    // The Figure 1 timeline: the k concurrent instances under the shifted
    // schedule (op_z finishes before op_{z+1 mod k} begins).
    RenderOptions ro;
    ro.t_min = t - params.u;
    ro.t_max = t + 2 * params.u;
    details << render_timeline(unsafe_run, ro);
  }

  // Sanity detail: op_z must respond strictly before op_{(z+1)%k} is
  // invoked, which is what pins its place in real-time order.
  Time z_response = -1, next_invoke = -1;
  for (const auto& op : unsafe_run.ops) {
    if (op.op == spec.op && op.proc == z) z_response = op.response_real;
    if (op.op == spec.op && op.proc == (z + 1) % k) next_invoke = op.invoke_real;
  }
  details << "op_z responds at " << z_response << ", op_{z+1} invoked at " << next_invoke
          << " (precedes: " << (z_response < next_invoke ? "yes" : "NO") << ")\n";
  for (const auto& op : unsafe_run.ops) {
    if (op.invoke_real >= t - 1.0) details << "  " << op.to_string() << "\n";
  }
  details << "unsafe run linearizable: " << (unsafe_check.linearizable ? "yes (unexpected)" : "NO (violation as proven)")
          << "\n";

  run.timing = TimingPolicy::standard(params, /*X=*/0);
  const sim::RunRecord safe_run = harness::execute(type, run).record;
  result.safe_survived = lin::check_linearizability(type, safe_run).linearizable;
  details << "standard Algorithm 1 (|MOP| = eps = " << run.timing->mop_respond
          << "): " << (result.safe_survived ? "linearizable" : "VIOLATED") << "\n";

  result.details = details.str();
  return result;
}

// ---------------------------------------------------------------------------
// Theorem 4
// ---------------------------------------------------------------------------

namespace {

/// The proof's delay matrix D^1 (Figure 2): edges into p0 carry d-m except
/// from p1; edges out of p1 carry d-m except to p0; everything else d.
std::vector<std::vector<Time>> theorem4_matrix(const ModelParams& params) {
  const auto n = static_cast<std::size_t>(params.n);
  const Time m = params.m();
  std::vector<std::vector<Time>> D(n, std::vector<Time>(n, params.d));
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 1) D[i][0] = params.d - m;
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (j != 0) D[1][j] = params.d - m;
  }
  return D;
}

}  // namespace

ExperimentResult theorem4_pair_free(const adt::DataType& type, const Theorem4Spec& spec,
                                    const ModelParams& params) {
  params.validate();
  if (params.n < 2) throw std::invalid_argument("theorem4: needs n >= 2");
  const Time m = params.m();

  ExperimentResult result;
  result.name = "Theorem 4: pair-free |OP| >= d + min{eps,u,d/3} (" + type.name() +
                "::" + spec.op + ")";
  result.bound = params.d + m;

  // Unsafe: |OOP| = d + m/2, strictly between the previously known bound d
  // and the paper's new bound d + m.
  TimingPolicy unsafe = TimingPolicy::standard(params, /*X=*/0);
  unsafe.execute_delay = params.u + m / 2;
  result.unsafe_latency = unsafe.oop_bound();

  harness::RunSpec run = algorithm_one_run(params, unsafe, spec.rho);
  run.delays = std::make_shared<sim::MatrixDelay>(theorem4_matrix(params));
  run.clock_offsets.assign(static_cast<std::size_t>(params.n), 0.0);
  run.clock_offsets[0] = -m;  // the proof's C_0

  const Time t = quiescence_bound(params, spec.rho.size()) + m + 1;

  // p0's timestamp must be strictly below p1's so every replica linearizes
  // op0 first; the explicit gamma margin makes this robust to
  // floating-point rounding of the otherwise exactly-tied clock values.
  const Time gamma = 1e-6;
  run.calls = {Call{t, 1, spec.op, spec.arg1}, Call{t + m - gamma, 0, spec.op, spec.arg0}};

  std::ostringstream details;

  const sim::RunRecord unsafe_run = harness::execute(type, run).record;
  const auto unsafe_check = lin::check_linearizability(type, unsafe_run);
  result.unsafe_violated = !unsafe_check.linearizable;
  {
    RenderOptions ro;
    ro.t_min = t - 1;
    ro.t_max = t + params.d + 2 * m;
    details << render_timeline(unsafe_run, ro);
  }
  for (const auto& op : unsafe_run.ops) {
    if (op.op == spec.op) details << "  " << op.to_string() << "\n";
  }
  details << "unsafe run (|OOP| = " << result.unsafe_latency << ") linearizable: "
          << (unsafe_check.linearizable ? "yes (unexpected)" : "NO (violation as proven)") << "\n";

  run.timing = TimingPolicy::standard(params, /*X=*/0);
  const sim::RunRecord safe_run = harness::execute(type, run).record;
  result.safe_survived = lin::check_linearizability(type, safe_run).linearizable;
  details << "standard Algorithm 1 (|OOP| = " << run.timing->oop_bound()
          << "): " << (result.safe_survived ? "linearizable" : "VIOLATED") << "\n";

  result.details = details.str();
  return result;
}

ChopDemoResult theorem4_chop_demo(const adt::DataType& type, const Theorem4Spec& spec,
                                  const ModelParams& params) {
  params.validate();
  if (params.n < 3) throw std::invalid_argument("theorem4_chop_demo: needs n >= 3");
  const Time m = params.m();

  ChopDemoResult result;
  std::ostringstream details;

  TimingPolicy unsafe = TimingPolicy::standard(params, /*X=*/0);
  unsafe.execute_delay = params.u + m / 2;  // |OOP| = d + m/2 < d + m

  // The proof's R2: offsets C_1 = (0, -m, 0, ...), delays D^1, p0 invokes
  // OP(arg0) at t, p1 invokes OP(arg1) at t + m.
  harness::RunSpec run = algorithm_one_run(params, unsafe, spec.rho);
  run.clock_offsets.assign(static_cast<std::size_t>(params.n), 0.0);
  run.clock_offsets[1] = -m;
  run.delays = std::make_shared<sim::MatrixDelay>(theorem4_matrix(params));
  const Time t = quiescence_bound(params, spec.rho.size()) + m + 1;
  run.calls = {Call{t, 0, spec.op, spec.arg0}, Call{t + m, 1, spec.op, spec.arg1}};
  const sim::RunRecord r2 = harness::execute(type, run).record;

  // Step 3 of the proof: shift p1 earlier by m.  Message delays from p1 to
  // p0 become d + m -- the single invalid edge (Figure 4).
  std::vector<Time> x(static_cast<std::size_t>(params.n), 0.0);
  x[1] = -m;
  const ShiftChop sc =
      shift_and_chop(r2, theorem4_matrix(params), x, params, "p1 earlier by m (Figure 4)",
                     "p1->p0 = d+m = " + fmt(params.d + m), details);
  result.one_invalid_edge = sc.invalid_edges == 1 && sc.delays[1][0] > params.d + 1e-9;
  result.chop_valid = sc.delay_valid;

  // p1's operation (invoked at t+m, shifted to t) must complete within the
  // fragment: the proof shows p1's view is chopped at t + d + m or later
  // while op1' responds before t + d + m.
  for (const auto& op : sc.fragment.ops) {
    if (op.proc == 1 && op.op == spec.op) {
      result.op_survives_chop = op.complete();
      details << "p1's " << op.to_string() << " survives chop: "
              << (op.complete() ? "yes" : "NO") << "\n";
    }
  }

  result.details = details.str();
  return result;
}

// ---------------------------------------------------------------------------
// Theorem 5
// ---------------------------------------------------------------------------

namespace {

/// The proof's delay matrix for Theorem 5 (Figure 8): edges into p0 and p1
/// carry d - m; everything else d.
std::vector<std::vector<Time>> theorem5_matrix(const ModelParams& params) {
  const auto n = static_cast<std::size_t>(params.n);
  const Time m = params.m();
  std::vector<std::vector<Time>> D(n, std::vector<Time>(n, params.d));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 2 && j < n; ++j) {
      if (i != j) D[i][j] = params.d - m;
    }
  }
  return D;
}

}  // namespace

ExperimentResult theorem5_sum(const adt::DataType& type, const Theorem5Spec& spec,
                              const ModelParams& params) {
  params.validate();
  if (params.n < 3) throw std::invalid_argument("theorem5: needs n >= 3");
  const Time m = params.m();

  ExperimentResult result;
  result.name = "Theorem 5: |OP| + |AOP| >= d + min{eps,u,d/3} (" + type.name() + "::" +
                spec.op + " + " + spec.aop + ")";
  result.bound = params.d + m;

  // Unsafe split: |OP| = m/2, |AOP| = d - m; sum = d - m/2 < d <= d + m.
  TimingPolicy unsafe = TimingPolicy::standard(params, /*X=*/0);
  unsafe.mop_respond = m / 2;
  unsafe.aop_respond = params.d - m;
  unsafe.aop_backdate = 0;
  result.unsafe_latency = unsafe.mop_respond + unsafe.aop_respond;

  harness::RunSpec run = algorithm_one_run(params, unsafe, spec.rho);
  run.delays = std::make_shared<sim::MatrixDelay>(theorem5_matrix(params));
  run.clock_offsets.assign(static_cast<std::size_t>(params.n), 0.0);
  run.clock_offsets[1] = -m;  // the shifted run's C_2

  const Time t = quiescence_bound(params, spec.rho.size()) + m + 1;
  // Both mutators at t, then the accessors at p0 and p2 at t_aop.
  const auto schedule = [&](Time t_aop) {
    return std::vector<Call>{Call{t, 0, spec.op, spec.arg0}, Call{t, 1, spec.op, spec.arg1},
                             Call{t_aop, 0, spec.aop, spec.aop_arg},
                             Call{t_aop, 2, spec.aop, spec.aop_arg}};
  };
  run.calls = schedule(t + unsafe.mop_respond + m / 4);

  std::ostringstream details;

  const sim::RunRecord unsafe_run = harness::execute(type, run).record;
  const auto unsafe_check = lin::check_linearizability(type, unsafe_run);
  result.unsafe_violated = !unsafe_check.linearizable;
  {
    RenderOptions ro;
    ro.t_min = t - 1;
    ro.t_max = t + params.d + 2 * m;
    details << render_timeline(unsafe_run, ro);
  }
  for (const auto& op : unsafe_run.ops) {
    if (op.invoke_real >= t - 1e-9) details << "  " << op.to_string() << "\n";
  }
  details << "unsafe run (sum = " << result.unsafe_latency << ") linearizable: "
          << (unsafe_check.linearizable ? "yes (unexpected)" : "NO (violation as proven)") << "\n";

  // Claims 6/7 analogue: the replicas linearize op1 (timestamp t - m) before
  // op0 (timestamp t); the accessor at p0 -- which has heard both -- must
  // return the rho.op1.op0 value, while the accessor at p2 -- which has
  // heard neither -- returns the rho value.
  {
    adt::Sequence rho_insts;
    auto state = type.make_initial_state();
    for (const auto& step : spec.rho) {
      rho_insts.push_back(adt::Instance{step.op, step.arg, state->apply(step.op, step.arg)});
    }
    const adt::Value ret_both = [&] {
      auto probe = state->clone();
      probe->apply(spec.op, spec.arg1);
      probe->apply(spec.op, spec.arg0);
      return probe->apply(spec.aop, spec.aop_arg);
    }();
    const adt::Value ret_neither = state->clone()->apply(spec.aop, spec.aop_arg);
    adt::Value aop_p0, aop_p2;
    for (const auto& op : unsafe_run.ops) {
      if (op.op != spec.aop || op.invoke_real < t - 1e-9) continue;
      if (op.proc == 0) aop_p0 = op.ret;
      if (op.proc == 2) aop_p2 = op.ret;
    }
    details << "claims: aop@p0 = " << aop_p0.to_string() << " (expects rho.op1.op0 value "
            << ret_both.to_string() << "), aop@p2 = " << aop_p2.to_string()
            << " (expects rho value " << ret_neither.to_string() << ")\n";
  }

  // The standard algorithm under the same adversary and schedule.  Its AOPs
  // take d - X and MOPs X + eps; with X = 0 the accessor calls at t_aop are
  // fine (the mutators responded at t + eps <= t_aop requires eps <= m/2 +
  // m/4 -- not guaranteed), so give the safe run its own valid schedule:
  // the accessors are invoked m/4 after the standard mutators respond.
  TimingPolicy safe = TimingPolicy::standard(params, /*X=*/0);
  run.timing = safe;
  run.calls = schedule(t + safe.mop_respond + m / 4);
  const sim::RunRecord safe_run = harness::execute(type, run).record;
  result.safe_survived = lin::check_linearizability(type, safe_run).linearizable;
  details << "standard Algorithm 1 (sum = " << safe.mop_bound() + safe.aop_bound()
          << "): " << (result.safe_survived ? "linearizable" : "VIOLATED") << "\n";

  result.details = details.str();
  return result;
}

ChopDemoResult theorem5_chop_demo(const adt::DataType& type, const Theorem5Spec& spec,
                                  const ModelParams& params) {
  params.validate();
  if (params.n < 3) throw std::invalid_argument("theorem5_chop_demo: needs n >= 3");
  const Time m = params.m();

  ChopDemoResult result;
  std::ostringstream details;

  if (2 * m <= params.u + 1e-12) {
    result.details = "inapplicable: needs 2m > u so that d - 2m is an invalid delay";
    return result;
  }

  // The proof's R1: offsets all 0, delays per Figure 8, OP at p0 and p1 at
  // t, accessors at p0/p1 at t_max and at p2 at t_max + m.
  TimingPolicy unsafe = TimingPolicy::standard(params, /*X=*/0);
  unsafe.mop_respond = m / 2;
  unsafe.aop_respond = params.d - m;
  unsafe.aop_backdate = 0;

  harness::RunSpec run = algorithm_one_run(params, unsafe, spec.rho);
  run.delays = std::make_shared<sim::MatrixDelay>(theorem5_matrix(params));
  const Time t = quiescence_bound(params, spec.rho.size()) + m + 1;
  const Time t_max = t + unsafe.mop_respond;
  run.calls = {Call{t, 0, spec.op, spec.arg0}, Call{t, 1, spec.op, spec.arg1},
               Call{t_max, 0, spec.aop, spec.aop_arg}, Call{t_max, 1, spec.aop, spec.aop_arg},
               Call{t_max + m, 2, spec.aop, spec.aop_arg}};
  const sim::RunRecord r1 = harness::execute(type, run).record;

  // Shift p1 later by m: the single invalid edge becomes p1->p0 = d - 2m
  // (Figure 10).
  std::vector<Time> x(static_cast<std::size_t>(params.n), 0.0);
  x[1] = m;
  const ShiftChop sc =
      shift_and_chop(r1, theorem5_matrix(params), x, params, "p1 later by m (Figure 10)",
                     "p1->p0 = d-2m = " + fmt(params.d - 2 * m), details);
  result.one_invalid_edge = sc.invalid_edges == 1 && sc.delays[1][0] < params.min_delay() - 1e-9;
  result.chop_valid = sc.delay_valid;

  // Claim 8: aop at p1 and aop at p2 survive the chop.
  bool aop1_ok = false, aop2_ok = false;
  for (const auto& op : sc.fragment.ops) {
    if (op.op == spec.aop && op.proc == 1 && op.complete()) aop1_ok = true;
    if (op.op == spec.aop && op.proc == 2 && op.complete()) aop2_ok = true;
  }
  result.op_survives_chop = aop1_ok && aop2_ok;
  details << "aop at p1 survives: " << (aop1_ok ? "yes" : "NO") << ", aop at p2 survives: "
          << (aop2_ok ? "yes" : "NO") << "\n";

  result.details = details.str();
  return result;
}

}  // namespace lintime::shift

// ---------------------------------------------------------------------------
// Section 6.1: interfering pairs
// ---------------------------------------------------------------------------

namespace lintime::shift {

ExperimentResult interference_sum(const adt::DataType& type, const InterferenceSpec& spec,
                                  const sim::ModelParams& params) {
  params.validate();
  if (params.n < 2) throw std::invalid_argument("interference: needs n >= 2");

  ExperimentResult result;
  result.name = "Section 6.1: interfering pair |" + spec.mutator_op + "| + |" + spec.aop +
                "| >= d (" + type.name() + ")";
  result.bound = params.d;

  // Unsafe split: mutator at fraction/3 of d, accessor at 2*fraction/3.
  TimingPolicy unsafe = TimingPolicy::standard(params, /*X=*/0);
  const double s1 = spec.unsafe_fraction * params.d / 3.0;
  const double s2 = spec.unsafe_fraction * params.d * 2.0 / 3.0;
  const adt::OpCategory mutator_cat = type.category(spec.mutator_op);
  if (mutator_cat == adt::OpCategory::kPureMutator) {
    unsafe.mop_respond = s1;
  } else {
    // Mixed mutator: shorten the execute path instead.
    unsafe.add_delay = s1 / 2;
    unsafe.execute_delay = s1 / 2;
  }
  unsafe.aop_respond = s2;
  unsafe.aop_backdate = 0;
  result.unsafe_latency = s1 + s2;

  const double t = quiescence_bound(params, spec.rho.size());

  // Mutator at p0 completes, accessor at p1 starts right after; under the
  // max-delay adversary the announcement arrives at p1 only at t + d, after
  // the accessor responded at t + s1 + gamma + s2 < t + d.
  const double gamma = (params.d - result.unsafe_latency) / 4;
  auto run_with = [&](const TimingPolicy& timing) {
    harness::RunSpec run = algorithm_one_run(params, timing, spec.rho);
    run.delays = std::make_shared<sim::ConstantDelay>(params.d);
    // The accessor starts after the mutator's response under either policy:
    // schedule it at t + (that policy's mutator latency) + gamma.
    const double mutator_latency =
        (mutator_cat == adt::OpCategory::kPureMutator) ? timing.mop_bound() : timing.oop_bound();
    run.calls = {Call{t, 0, spec.mutator_op, spec.mutator_arg},
                 Call{t + mutator_latency + gamma, 1, spec.aop, spec.aop_arg}};
    return harness::execute(type, run).record;
  };

  std::ostringstream details;

  const sim::RunRecord unsafe_run = run_with(unsafe);
  const auto unsafe_check = lin::check_linearizability(type, unsafe_run);
  result.unsafe_violated = !unsafe_check.linearizable;
  {
    RenderOptions ro;
    ro.t_min = t - 1;
    ro.t_max = t + params.d + 1;
    details << render_timeline(unsafe_run, ro);
  }
  details << "unsafe run (sum = " << fmt(result.unsafe_latency) << " < d = " << fmt(params.d)
          << ") linearizable: "
          << (unsafe_check.linearizable ? "yes (unexpected)" : "NO (stale read, as proven)")
          << "\n";

  const sim::RunRecord safe_run = run_with(TimingPolicy::standard(params, 0.0));
  result.safe_survived = lin::check_linearizability(type, safe_run).linearizable;
  details << "standard Algorithm 1 (sum = " << fmt(params.d + params.eps)
          << "): " << (result.safe_survived ? "linearizable" : "VIOLATED") << "\n";

  result.details = details.str();
  return result;
}

}  // namespace lintime::shift

// ---------------------------------------------------------------------------
// Theorem 4: the full five-run pipeline
// ---------------------------------------------------------------------------

namespace lintime::shift {

namespace {

/// A view fingerprint for indistinguishability claims: the sequence of
/// (trigger kind, local clock, responded, response) of one process's steps
/// in the local-clock window [c_lo, c_hi].  Message/timer ids differ across
/// runs and are excluded -- the model's "view" is exactly what the process
/// can observe.
std::vector<std::string> view_fingerprint(const sim::RunRecord& record, sim::ProcId proc,
                                          double c_lo, double c_hi) {
  std::vector<std::string> out;
  for (const auto& step : record.view_of(proc)) {
    if (step.clock_time < c_lo - 1e-9 || step.clock_time > c_hi + 1e-9) continue;
    std::ostringstream os;
    os << to_string(step.trigger) << '@' << step.clock_time << '/'
       << (step.responded ? step.response.to_string() : std::string("-"));
    out.push_back(os.str());
  }
  return out;
}

}  // namespace

Theorem4Pipeline theorem4_full_pipeline(const adt::DataType& type, const Theorem4Spec& spec,
                                        const sim::ModelParams& params) {
  params.validate();
  if (params.n < 3) throw std::invalid_argument("theorem4_full_pipeline: needs n >= 3");

  Theorem4Pipeline result;
  std::ostringstream details;

  const double m = params.m();
  const double gamma = 1e-6;

  TimingPolicy unsafe = TimingPolicy::standard(params, /*X=*/0);
  unsafe.execute_delay = params.u + m / 2;  // |OOP| = d + m/2 < d + m
  const double L = unsafe.oop_bound();

  const double t = quiescence_bound(params, spec.rho.size()) + m + 1;
  const auto n = static_cast<std::size_t>(params.n);

  // Each of R1..R5 is the unsafe algorithm under its own offsets, delay
  // matrix and calls.
  const harness::RunSpec base = algorithm_one_run(params, unsafe, spec.rho);

  // The proof's D^1 (Figure 2).
  auto d1 = theorem4_matrix(params);

  // D^3: D^1 after shifting p1 earlier by m and repairing p1->p0 back to
  // d-m (Figure 5): into p0 all d-m, p1's other outgoing d, everyone->p1
  // d-m, rest d.
  std::vector<std::vector<double>> d3(n, std::vector<double>(n, params.d));
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) d3[i][0] = params.d - m;
    if (i != 1) d3[i][1] = params.d - m;
  }
  for (std::size_t j = 2; j < n; ++j) d3[1][j] = params.d;
  d3[0][1] = params.d - m;

  // D^4: D^3 after shifting p0 later by m and repairing p0->p1 back to d
  // (Figure 7): into p0 all d, p0->p1 = d, p0->others d-m, into p1 (from
  // i >= 2) d-m, p1->others d, rest d.
  std::vector<std::vector<double>> d4(n, std::vector<double>(n, params.d));
  for (std::size_t j = 2; j < n; ++j) d4[0][j] = params.d - m;
  for (std::size_t i = 2; i < n; ++i) d4[i][1] = params.d - m;

  // ---- R1: solo op0 at p0, offsets C1 = (0, -m, 0...), delays D^1.
  std::vector<double> c1(n, 0.0);
  c1[1] = -m;
  const sim::RunRecord r1 = run_under(type, base, c1, d1, {Call{t, 0, spec.op, spec.arg0}});
  for (const auto& op : r1.ops) {
    if (op.proc == 0 && op.op == spec.op) result.ret0_solo = op.ret;
  }
  details << "R1: p0 solo " << spec.op << " -> " << result.ret0_solo.to_string() << "\n";

  // ---- R2: R1 plus op1 at p1 at t+m.
  const sim::RunRecord r2 = run_under(
      type, base, c1, d1,
      {Call{t, 0, spec.op, spec.arg0}, Call{t + m + gamma, 1, spec.op, spec.arg1}});
  adt::Value ret0_r2, ret1_prime;
  double p0_resp_r2 = t + params.d + m;
  for (const auto& op : r2.ops) {
    if (op.invoke_real < t - 0.5) continue;
    if (op.proc == 0) {
      ret0_r2 = op.ret;
      p0_resp_r2 = op.response_real;
    }
    if (op.proc == 1) ret1_prime = op.ret;
  }
  details << "R2: p0 -> " << ret0_r2.to_string() << " (Claim 4 expects "
          << result.ret0_solo.to_string() << "), p1 -> " << ret1_prime.to_string() << "\n";

  // Claim 4: p0's view through its response is identical in R1 and R2.
  const double c_window_hi = p0_resp_r2;  // clock == real for p0 (offset 0)
  result.claim4_view_identity =
      view_fingerprint(r1, 0, t, c_window_hi) == view_fingerprint(r2, 0, t, c_window_hi) &&
      ret0_r2 == result.ret0_solo;
  details << "Claim 4 (p0 view identity R1/R2): "
          << (result.claim4_view_identity ? "HOLDS" : "FAILS") << "\n";

  // ---- R3: offsets 0, delays D^3, both ops at t (op1 gamma-later).
  const sim::RunRecord r3 =
      run_under(type, base, std::vector<double>(n, 0.0), d3,
                {Call{t, 0, spec.op, spec.arg0}, Call{t + gamma, 1, spec.op, spec.arg1}});
  adt::Value ret0_r3, ret1_r3;
  for (const auto& op : r3.ops) {
    if (op.invoke_real < t - 0.5) continue;
    if (op.proc == 0) ret0_r3 = op.ret;
    if (op.proc == 1) ret1_r3 = op.ret;
  }
  details << "R3: p0 -> " << ret0_r3.to_string() << " (proof: still " 
          << result.ret0_solo.to_string() << "), p1 -> " << ret1_r3.to_string() << "\n";

  // ---- R4: offsets C0 = (-m, 0...), delays D^4, op1 at t, op0 at t+m.
  std::vector<double> c0(n, 0.0);
  c0[0] = -m;
  const sim::RunRecord r4 = run_under(
      type, base, c0, d4,
      {Call{t, 1, spec.op, spec.arg1}, Call{t + m - gamma, 0, spec.op, spec.arg0}});
  adt::Value ret0_r4, ret1_r4;
  double p1_resp_r4 = t + L;
  for (const auto& op : r4.ops) {
    if (op.invoke_real < t - 0.5) continue;
    if (op.proc == 0) ret0_r4 = op.ret;
    if (op.proc == 1) {
      ret1_r4 = op.ret;
      p1_resp_r4 = op.response_real;
    }
  }

  // ---- R5: R4 without op0.
  const sim::RunRecord r5 = run_under(type, base, c0, d4, {Call{t, 1, spec.op, spec.arg1}});
  adt::Value ret1_r5;
  for (const auto& op : r5.ops) {
    if (op.invoke_real < t - 0.5) continue;
    if (op.proc == 1) ret1_r5 = op.ret;
  }
  result.ret1_solo = ret1_r5;
  details << "R4: p0 -> " << ret0_r4.to_string() << ", p1 -> " << ret1_r4.to_string()
          << "; R5 (op0 deleted): p1 -> " << ret1_r5.to_string() << "\n";

  // Claim 5: p1's view through its response is identical in R4 and R5.
  result.claim5_view_identity =
      view_fingerprint(r4, 1, t, p1_resp_r4) == view_fingerprint(r5, 1, t, p1_resp_r4);
  result.same_ret_r4_r5 = (ret1_r4 == ret1_r5);
  details << "Claim 5 (p1 view identity R4/R5): "
          << (result.claim5_view_identity ? "HOLDS" : "FAILS") << "\n";

  // The punchline: with identical views p1 answers identically, so R4 or R5
  // must be non-linearizable.
  const bool r4_ok = lin::check_linearizability(type, r4).linearizable;
  const bool r5_ok = lin::check_linearizability(type, r5).linearizable;
  result.contradiction = !(r4_ok && r5_ok);
  details << "checker: R4 " << (r4_ok ? "linearizable" : "NOT linearizable") << ", R5 "
          << (r5_ok ? "linearizable" : "NOT linearizable") << " -> contradiction "
          << (result.contradiction ? "exhibited" : "NOT exhibited") << "\n";

  result.details = details.str();
  return result;
}

}  // namespace lintime::shift

// ---------------------------------------------------------------------------
// Theorem 5: the full pipeline (reversed-role form)
// ---------------------------------------------------------------------------

namespace lintime::shift {

Theorem5Pipeline theorem5_full_pipeline(const adt::DataType& type, const Theorem5Spec& spec,
                                        const sim::ModelParams& params) {
  params.validate();
  if (params.n < 3) throw std::invalid_argument("theorem5_full_pipeline: needs n >= 3");

  Theorem5Pipeline result;
  std::ostringstream details;

  const double m = params.m();
  const double gamma = 1e-6;
  const auto n = static_cast<std::size_t>(params.n);

  // Unsafe sum below the bound: |OP| = m/2, |AOP| = d - m.
  TimingPolicy unsafe = TimingPolicy::standard(params, /*X=*/0);
  unsafe.mop_respond = m / 2;
  unsafe.aop_respond = params.d - m;
  unsafe.aop_backdate = 0;
  const double s_m = unsafe.mop_respond;

  const double t = quiescence_bound(params, spec.rho.size()) + m + 1;
  // Strictly after both mutators' responses (op1 is invoked gamma late, so
  // its response lands at t + gamma + s_m).
  const double t_max = t + s_m + 2 * gamma;

  // Each of R1..R3 is the unsafe algorithm under its own offsets, delay
  // matrix and calls.
  const harness::RunSpec base = algorithm_one_run(params, unsafe, spec.rho);

  // ---- R1: the proof's Figure 8 run, offsets 0, delays D (into p0/p1: d-m,
  // else d).  p0's mutator gets the gamma-smaller timestamp, pinning the
  // linearization order the reversed-role case assumes.
  const auto d_r1 = theorem5_matrix(params);
  const sim::RunRecord r1 =
      run_under(type, base, std::vector<double>(n, 0.0), d_r1,
          {Call{t, 0, spec.op, spec.arg0}, Call{t + gamma, 1, spec.op, spec.arg1},
           Call{t_max, 0, spec.aop, spec.aop_arg}, Call{t_max, 1, spec.aop, spec.aop_arg},
           Call{t_max + m, 2, spec.aop, spec.aop_arg}});
  result.r1_linearizable = lin::check_linearizability(type, r1).linearizable;
  details << "R1 linearizable: " << (result.r1_linearizable ? "yes" : "NO") << "\n";

  // ---- R2: p0 shifted later by m, the invalid edge p0->p1 repaired to d
  // (the run the proof reaches after shift+chop+append+extend).  Delays:
  // into p0 all d; p0->p1 d; p0->others d-m; into p1 (from i>=2) d-m;
  // p1->others d; rest d.
  std::vector<std::vector<double>> d_r2(n, std::vector<double>(n, params.d));
  for (std::size_t j = 2; j < n; ++j) d_r2[0][j] = params.d - m;
  for (std::size_t i = 2; i < n; ++i) d_r2[i][1] = params.d - m;
  std::vector<double> c_r2(n, 0.0);
  c_r2[0] = -m;

  std::vector<Call> calls = {
      Call{t + m, 0, spec.op, spec.arg0},  // shifted later by m
      Call{t + gamma, 1, spec.op, spec.arg1},
      Call{t_max + m, 0, spec.aop, spec.aop_arg},
      Call{t_max, 1, spec.aop, spec.aop_arg},
      Call{t_max + m, 2, spec.aop, spec.aop_arg},
  };
  const sim::RunRecord r2 = run_under(type, base, c_r2, d_r2, calls);

  // ---- R3: R2 without p0's mutator.
  calls.erase(calls.begin());
  const sim::RunRecord r3 = run_under(type, base, c_r2, d_r2, calls);

  // p1's accessor in R2 answers without having heard op0 (the repaired d
  // delay makes p0's announcement arrive only at t+m+d).
  adt::Value aop1_r2, aop1_r3;
  double aop1_resp = t + params.d;
  for (const auto& op : r2.ops) {
    if (op.op == spec.aop && op.proc == 1) {
      aop1_r2 = op.ret;
      aop1_resp = op.response_real;
    }
  }
  for (const auto& op : r3.ops) {
    if (op.op == spec.aop && op.proc == 1) aop1_r3 = op.ret;
  }
  result.aop1_misses_op0 = (aop1_r2 == aop1_r3);
  details << "aop@p1: R2 -> " << aop1_r2.to_string() << ", R3 -> " << aop1_r3.to_string()
          << "\n";

  // View identity for p1 through its accessor's response (the proof's
  // indistinguishability step).
  result.view_identity_r2_r3 =
      view_fingerprint(r2, 1, t, aop1_resp) == view_fingerprint(r3, 1, t, aop1_resp);
  details << "p1 view identity R2/R3 through aop response: "
          << (result.view_identity_r2_r3 ? "HOLDS" : "FAILS") << "\n";

  const bool r2_ok = lin::check_linearizability(type, r2).linearizable;
  result.r2_violated = !r2_ok;
  result.r3_linearizable = lin::check_linearizability(type, r3).linearizable;
  details << "checker: R2 " << (r2_ok ? "linearizable (unexpected)" : "NOT linearizable")
          << ", R3 " << (result.r3_linearizable ? "linearizable" : "NOT linearizable") << "\n";

  result.details = details.str();
  return result;
}

}  // namespace lintime::shift
