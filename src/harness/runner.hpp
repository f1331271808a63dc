#pragma once
// Run orchestration: build a World for a chosen algorithm, drive a workload
// (open-loop scheduled calls and/or closed-loop per-process scripts), and
// collect the recorded run plus per-operation latency statistics.  Campaigns,
// scenarios, the table benches and the Theorem 2-5 experiments
// (shift/theorems.cpp) all run through this harness, so their configurations
// are declarative and reproducible.  Only these build a sim::World
// themselves: the tie-break ablation (bench/ablations.cpp and
// tests/core/ablation_test.cpp flip WorldConfig::timers_before_deliveries),
// the clock-synchronization round (src/clocksync), the tests and
// micro-benchmarks that inspect processes (construction, composite,
// Algorithm 1, sharded store), and the sim unit tests.  Plans come either as
// explicit calls/scripts or from a WorkloadGen (harness/workload.hpp), which
// is also the only source of serving plans over a ShardedStore.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "core/sharded_store.hpp"
#include "core/timing_policy.hpp"
#include "sim/delay_model.hpp"
#include "sim/run_record.hpp"
#include "sim/world.hpp"

namespace lintime::harness {

class WorkloadGen;  // harness/workload.hpp

/// Which shared-object implementation to run.
enum class AlgoKind {
  kAlgorithmOne,    ///< the paper's Algorithm 1 (core/algorithm_one.hpp)
  kCentralized,     ///< folklore 2d baseline
  kAllOop,          ///< Algorithm 1 with every op treated as mixed (d+eps TOB)
  kZeroWait,        ///< UNSAFE zero-latency comparator
  kSeqConsistent,   ///< sequentially consistent (weaker condition, faster ops)
  kShardedServing,  ///< per-shard Algorithm 1 over a ShardedStore keyspace
};

[[nodiscard]] constexpr const char* to_string(AlgoKind k) {
  switch (k) {
    case AlgoKind::kAlgorithmOne: return "algorithm1";
    case AlgoKind::kCentralized: return "centralized";
    case AlgoKind::kAllOop: return "all-oop";
    case AlgoKind::kZeroWait: return "zero-wait";
    case AlgoKind::kSeqConsistent: return "seq-consistent";
    case AlgoKind::kShardedServing: return "sharded-serving";
  }
  return "?";
}

/// One open-loop (scheduled) invocation.
struct Call {
  sim::Time when = 0;
  sim::ProcId proc = 0;
  std::string op;
  adt::Value arg;
};

/// One step of a closed-loop script.
struct ScriptOp {
  std::string op;
  adt::Value arg;
  sim::Time not_before = 0;  ///< earliest real time the step may be invoked at
};

struct RunSpec {
  sim::ModelParams params;
  AlgoKind algo = AlgoKind::kAlgorithmOne;
  sim::Time X = 0;  ///< Algorithm 1 tradeoff parameter, in [0, d-eps]

  /// Explicit timer constants for Algorithm 1 / all-OOP runs, overriding the
  /// standard policy derived from X.  Used to run deliberately unsafe
  /// variants (timers below the paper's bounds) through the same harness.
  std::optional<core::TimingPolicy> timing;

  std::vector<sim::Time> clock_offsets;         ///< empty = all zero
  std::shared_ptr<sim::DelayModel> delays;      ///< null = ConstantDelay(d)

  /// EXTENSIONS mirrored from sim::WorldConfig (outside the paper's model;
  /// used by the robustness campaigns): clock drift rates (empty = all 1)
  /// and deterministic message loss.
  std::vector<sim::Time> clock_rates;
  double drop_probability = 0;
  std::uint64_t drop_seed = 0;

  /// EXTENSION: deterministic crash / link-drop schedule (sim/fault.hpp),
  /// validated against n when the World is built.  An empty schedule leaves
  /// the run byte-identical to one without it.
  sim::FaultSchedule faults;

  /// Simulator knobs (see sim::WorldConfig).  Serving-scale runs use
  /// kOpsOnly recording and a raised max_events.  Measured by perfbench's
  /// ledger at n = 8 with 50/50 reads and writes, a serving op costs about
  /// 10.0 events (1 invoke, 3.5 deliveries, 5.48 timers set), and only 0.03
  /// cancelled timers per op are still popped (0.66 in the closed loops
  /// under random delays of check-search), so 10^6 ops need about 10^7
  /// events.
  sim::SchedulerKind scheduler = sim::SchedulerKind::kEventRing;  ///< not read; see SchedulerKind
  sim::RecordDetail record_detail = sim::RecordDetail::kFull;
  std::uint64_t max_events = 10'000'000;

  /// Open-loop invocations.  Each call's name is resolved to its interned
  /// adt::OpId once at submission; a name the type does not know goes
  /// through the string overload of World::invoke_at.
  std::vector<Call> calls;

  /// Closed-loop scripts: scripts[p] is invoked back-to-back at process p,
  /// the first step at max(script_start, not_before), each next one at
  /// max(previous response + script_gap, not_before).  A step's not_before
  /// starts a script late or chains a later script behind an earlier one at
  /// the same process.  Open-loop calls may target a process that runs a
  /// script: a response advances p's script only if it answers the step in
  /// flight, which is recognized by its operation and argument.  An
  /// open-loop call that responds at p while a step is in flight must differ
  /// from that step in one of the two.
  std::vector<std::vector<ScriptOp>> scripts;
  sim::Time script_start = 0;
  sim::Time script_gap = 0;

  /// Declarative alternative to calls/scripts: a generator asked for the
  /// plan at execute() time (harness/workload.hpp).  Shareable across jobs
  /// (generators are stateless by contract); mutually exclusive with
  /// explicit calls/scripts.
  std::shared_ptr<const WorkloadGen> workload;
};

/// Latency summary for one operation name.
struct LatencyStats {
  std::size_t count = 0;
  sim::Time min = 0;
  sim::Time max = 0;
  sim::Time mean = 0;
};

struct RunResult {
  sim::RunRecord record;
  std::map<std::string, LatencyStats> latency;  ///< by operation name

  /// End-of-run replica state canonical encodings (index = process), for
  /// convergence / History Oblivion assertions.  Present for replicated
  /// algorithms (Algorithm 1, all-OOP, zero-wait); the centralized baseline
  /// reports only the coordinator's state at index 0.
  std::vector<std::string> final_states;

  /// Stats for `op`; throws std::out_of_range naming the operation if the
  /// run completed no instance of it.
  [[nodiscard]] const LatencyStats& stats_for(const std::string& op) const;
};

/// Executes the spec to quiescence and collects results.
[[nodiscard]] RunResult execute(const adt::DataType& type, const RunSpec& spec);

/// Computes latency stats from any record.
[[nodiscard]] std::map<std::string, LatencyStats> latency_by_op(const sim::RunRecord& record);

/// Generates a pseudo-random closed-loop workload: `ops_per_proc` operations
/// at each of `params.n` processes, drawn uniformly from `type`'s operations
/// and sample arguments.  Deterministic per seed.
[[nodiscard]] std::vector<std::vector<ScriptOp>> random_scripts(const adt::DataType& type,
                                                                int n, int ops_per_proc,
                                                                std::uint64_t seed);

}  // namespace lintime::harness
