#pragma once
// Pluggable, seeded workload generators.  A RunSpec can carry a WorkloadGen
// instead of materialized calls/scripts; harness::execute asks it for the
// plan at run time, so scenario files (src/scenario) describe workloads
// declaratively and campaigns materialize them lazily inside each job.
//
// Determinism contract: generate() is const and a pure function of
// (constructor options, type, params) -- no hidden state, no wall clock --
// so one generator instance is safe to share across campaign jobs running
// on different threads, and the same spec always replays the same plan.
// The random-scripts generators draw through harness::random_scripts;
// ShardedWorkloadGen is the only source of serving plans.  Each consumes its
// seeded RNG in a fixed order, pinned by the scenario goldens and by
// tests/harness/workload_test.cpp.

#include <cstdint>
#include <string>
#include <vector>

#include "adt/value.hpp"
#include "harness/runner.hpp"
#include "sim/model_params.hpp"

namespace lintime::harness {

/// A fully materialized workload for one run: open-loop scheduled calls
/// and/or closed-loop per-process scripts (same semantics as the matching
/// RunSpec fields).
struct WorkloadPlan {
  std::vector<Call> calls;
  std::vector<std::vector<ScriptOp>> scripts;  ///< empty, or one per process
  sim::Time script_start = 0;
  sim::Time script_gap = 0;
};

/// Interface: materializes a plan for a (type, params) pair.
class WorkloadGen {
 public:
  WorkloadGen() = default;
  WorkloadGen(const WorkloadGen&) = delete;
  WorkloadGen& operator=(const WorkloadGen&) = delete;
  WorkloadGen(WorkloadGen&&) = delete;
  WorkloadGen& operator=(WorkloadGen&&) = delete;
  virtual ~WorkloadGen() = default;

  [[nodiscard]] virtual WorkloadPlan generate(const adt::DataType& type,
                                              const sim::ModelParams& params) const = 0;

  /// One-line canonical description, mixed into scenario job digests.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Closed-loop scripts drawn uniformly from the type's operations: exactly
/// harness::random_scripts(type, n, ops_per_proc, seed), driven from `start`
/// with `gap` between a response and the next invocation.
class RandomScriptsGen final : public WorkloadGen {
 public:
  RandomScriptsGen(int ops_per_proc, std::uint64_t seed, sim::Time start = 0, sim::Time gap = 0)
      : ops_per_proc_(ops_per_proc), seed_(seed), start_(start), gap_(gap) {}

  [[nodiscard]] WorkloadPlan generate(const adt::DataType& type,
                                      const sim::ModelParams& params) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  int ops_per_proc_;
  std::uint64_t seed_;
  sim::Time start_;
  sim::Time gap_;
};

/// Open-loop staggered rounds (the robustness-campaign shape): the scripts
/// of random_scripts(type, n, rounds, seed) flattened into scheduled calls,
/// round i's call at process p arriving at i*round_gap + p*stagger.
class StaggeredRoundsGen final : public WorkloadGen {
 public:
  StaggeredRoundsGen(int rounds, std::uint64_t seed, sim::Time stagger = 0.25,
                     sim::Time round_gap = 40.0)
      : rounds_(rounds), seed_(seed), stagger_(stagger), round_gap_(round_gap) {}

  [[nodiscard]] WorkloadPlan generate(const adt::DataType& type,
                                      const sim::ModelParams& params) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  int rounds_;
  std::uint64_t seed_;
  sim::Time stagger_;
  sim::Time round_gap_;
};

/// Serving workload over a ShardedStore keyspace (the type must be a
/// core::ShardedStore).  Dimensions:
///  - key popularity: uniform, or Zipf(theta) over ranks 0..num_keys-1
///    (rank 0 the hottest key), sampled by binary search over the
///    precomputed CDF;
///  - arrival discipline: open-loop pre-scheduled calls (steady `spacing`,
///    or bursty: `burst` back-to-back arrival epochs at `spacing` separated
///    by `burst_gap` of silence), or closed-loop scripts with `think` time
///    between a response and the next call.
/// Every shape draws, per operation, the component op uniformly and then the
/// key, and writes a globally unique value (1 + p*ops_per_proc + i).  A
/// steady open loop schedules process p's i-th call at (i + p/n) * spacing;
/// `spacing` must exceed the worst-case response latency (about d for
/// Algorithm 1), since a process may hold only one outstanding invocation.
class ShardedWorkloadGen final : public WorkloadGen {
 public:
  struct Options {
    int ops_per_proc = 0;
    std::uint64_t seed = 0;
    double zipf_theta = 0;   ///< 0 = uniform keys; > 0 = Zipf exponent
    bool closed_loop = false;
    double spacing = 20.0;   ///< open loop: time between arrival epochs
    double think = 0;        ///< closed loop: response -> next-call gap
    int burst = 0;           ///< open loop: epochs per burst; 0 = steady
    double burst_gap = 0;    ///< open loop: silence between bursts
  };

  explicit ShardedWorkloadGen(Options opts) : opts_(opts) {}

  [[nodiscard]] WorkloadPlan generate(const adt::DataType& type,
                                      const sim::ModelParams& params) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  Options opts_;
};

/// The table-bench shape (bench::MeasureBatch): a prefix script `rho`
/// at p0, then the single measured call (op, arg) at p1 at real time
/// (|rho| + 2) * (d + u + eps + 1), well after the prefix quiesces.
class WorstLatencyGen final : public WorkloadGen {
 public:
  WorstLatencyGen(std::string op, adt::Value arg, std::vector<ScriptOp> rho)
      : op_(std::move(op)), arg_(std::move(arg)), rho_(std::move(rho)) {}

  [[nodiscard]] WorkloadPlan generate(const adt::DataType& type,
                                      const sim::ModelParams& params) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::string op_;
  adt::Value arg_;
  std::vector<ScriptOp> rho_;
};

}  // namespace lintime::harness
