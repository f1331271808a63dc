#include "harness/runner.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "harness/workload.hpp"

#include "baseline/all_oop.hpp"
#include "baseline/centralized.hpp"
#include "baseline/seq_consistent.hpp"
#include "baseline/zero_wait.hpp"
#include "core/algorithm_one.hpp"
#include "core/timing_policy.hpp"

namespace lintime::harness {

namespace {

/// Closed-loop driver state shared by the response hook.  It reads the
/// scripts in place.  Operation names are resolved to interned ids ONCE up
/// front; every subsequent invocation goes through the id overload of
/// invoke_at, so a million-op serving script performs a million hash-map
/// lookups fewer than the string path would.
struct ScriptDriver {
  const std::vector<std::vector<ScriptOp>>& scripts;
  std::vector<std::vector<adt::OpId>> ids;  ///< parallel to scripts
  std::vector<std::size_t> next;            ///< per-process cursor
  sim::Time gap;

  ScriptDriver(const adt::DataType& type, const std::vector<std::vector<ScriptOp>>& s,
               sim::Time script_gap)
      : scripts(s), ids(s.size()), next(s.size(), 0), gap(script_gap) {
    for (std::size_t p = 0; p < s.size(); ++p) {
      ids[p].reserve(s[p].size());
      for (const auto& step : s[p]) ids[p].push_back(type.op_id(step.op));
    }
  }

  void advance(sim::World& world, sim::ProcId p, sim::Time when) {
    const auto pi = static_cast<std::size_t>(p);
    auto& cursor = next[pi];
    const auto& script = scripts[pi];
    if (cursor >= script.size()) return;
    const auto& step = script[cursor];
    world.invoke_at(std::max(when, step.not_before), p, ids[pi][cursor], step.arg);
    ++cursor;
  }

  /// Advances op.proc's script if `op` answers the step it has in flight
  /// (the last one invoked); an open-loop call at that process does not.
  void on_response(sim::World& world, const sim::OpRecord& op) {
    const auto pi = static_cast<std::size_t>(op.proc);
    const std::size_t cursor = next[pi];
    if (cursor == 0 || op.op_id != ids[pi][cursor - 1] ||
        op.arg != scripts[pi][cursor - 1].arg) {
      return;
    }
    advance(world, op.proc, world.now() + gap);
  }
};

}  // namespace

const LatencyStats& RunResult::stats_for(const std::string& op) const {
  const auto it = latency.find(op);
  if (it == latency.end()) {
    throw std::out_of_range("RunResult: no completed instances of operation '" + op + "'");
  }
  return it->second;
}

std::map<std::string, LatencyStats> latency_by_op(const sim::RunRecord& record) {
  // Accumulate on the interned op id (dense vector, no string hashing per
  // record) whenever the record carries one; names are resolved into the
  // sorted output map once at the end.  Records without ids (e.g. loaded
  // from traces) fall back to string keys directly.
  struct Bucket {
    std::string name;
    LatencyStats stats;
  };
  std::vector<Bucket> by_id;
  std::map<std::string, LatencyStats> out;

  const auto accumulate = [](LatencyStats& s, sim::Time latency) {
    if (s.count == 0) {
      s.min = s.max = latency;
    } else {
      s.min = std::min(s.min, latency);
      s.max = std::max(s.max, latency);
    }
    s.mean = (s.mean * static_cast<double>(s.count) + latency) / static_cast<double>(s.count + 1);
    ++s.count;
  };

  for (const auto& op : record.ops) {
    if (!op.complete()) continue;
    if (op.op_id.valid()) {
      const auto idx = static_cast<std::size_t>(op.op_id.index());
      if (idx >= by_id.size()) by_id.resize(idx + 1);
      auto& bucket = by_id[idx];
      if (bucket.stats.count == 0) bucket.name = op.op;
      accumulate(bucket.stats, op.latency());
    } else {
      accumulate(out[op.op], op.latency());
    }
  }
  for (auto& bucket : by_id) {
    if (bucket.stats.count > 0) out[bucket.name] = bucket.stats;
  }
  return out;
}

RunResult execute(const adt::DataType& type, const RunSpec& spec) {
  sim::WorldConfig config;
  config.type = &type;
  config.params = spec.params;
  config.clock_offsets = spec.clock_offsets;
  config.delays = spec.delays;
  config.clock_rates = spec.clock_rates;
  config.drop_probability = spec.drop_probability;
  config.drop_seed = spec.drop_seed;
  config.faults = spec.faults;
  config.record_detail = spec.record_detail;

  const bool full_detail = spec.record_detail == sim::RecordDetail::kFull;

  // A workload generator materializes the plan here; explicit calls/scripts
  // are read from the spec in place.
  WorkloadPlan plan;
  const std::vector<Call>* calls = &spec.calls;
  const std::vector<std::vector<ScriptOp>>* scripts = &spec.scripts;
  sim::Time script_start = spec.script_start;
  sim::Time script_gap = spec.script_gap;
  if (spec.workload != nullptr) {
    if (!spec.calls.empty() || !spec.scripts.empty()) {
      throw std::invalid_argument(
          "RunSpec: workload generator and explicit calls/scripts are mutually exclusive");
    }
    plan = spec.workload->generate(type, spec.params);
    calls = &plan.calls;
    scripts = &plan.scripts;
    script_start = plan.script_start;
    script_gap = plan.script_gap;
  }

  // The all-OOP baseline reuses Algorithm 1 against a category-erased view
  // of the type; the decorator must outlive the world.
  std::optional<baseline::AllMixedDataType> all_mixed;
  if (spec.algo == AlgoKind::kAllOop) all_mixed.emplace(type);

  // Keep raw handles for end-of-run state inspection.
  std::vector<core::AlgorithmOneProcess*> algo1_procs;
  std::vector<core::ShardedServingProcess*> sharded_procs;
  std::vector<baseline::CentralizedProcess*> central_procs;

  // Sharded serving keeps the n processes' replica states of each key in one
  // row (core::ShardedReplicas); the set must outlive the world.
  const core::ShardedStore* store = nullptr;
  std::optional<core::ShardedReplicas> replicas;
  if (spec.algo == AlgoKind::kShardedServing) {
    store = dynamic_cast<const core::ShardedStore*>(&type);
    if (store == nullptr) {
      throw std::invalid_argument(
          "RunSpec: AlgoKind::kShardedServing requires a ShardedStore data type");
    }
    replicas.emplace(*store, spec.params.n);
  }

  // Lazily resolved so baselines never validate an Algorithm-1 X they do
  // not use.
  const auto timing = [&spec]() {
    return spec.timing.value_or(core::TimingPolicy::standard(spec.params, spec.X));
  };

  sim::World::ProcessFactory factory = [&](sim::ProcId p) -> std::unique_ptr<sim::Process> {
    switch (spec.algo) {
      case AlgoKind::kAlgorithmOne: {
        auto proc = std::make_unique<core::AlgorithmOneProcess>(type, timing());
        proc->set_execution_logging(full_detail);
        algo1_procs.push_back(proc.get());
        return proc;
      }
      case AlgoKind::kAllOop: {
        auto proc = std::make_unique<core::AlgorithmOneProcess>(*all_mixed, timing());
        proc->set_execution_logging(full_detail);
        algo1_procs.push_back(proc.get());
        return proc;
      }
      case AlgoKind::kShardedServing: {
        auto proc = std::make_unique<core::ShardedServingProcess>(*store, timing(), *replicas, p);
        proc->set_execution_logging(full_detail);
        sharded_procs.push_back(proc.get());
        return proc;
      }
      case AlgoKind::kCentralized: {
        auto proc = std::make_unique<baseline::CentralizedProcess>(type, p);
        central_procs.push_back(proc.get());
        return proc;
      }
      case AlgoKind::kZeroWait:
        return std::make_unique<baseline::ZeroWaitProcess>(type);
      case AlgoKind::kSeqConsistent:
        return std::make_unique<baseline::SeqConsistentProcess>(type, spec.params);
    }
    throw std::logic_error("unknown AlgoKind");
  };

  sim::World world(config, factory);

  for (const auto& call : *calls) {
    // Intern once per call here rather than per call inside the World; names
    // the type doesn't know stay on the string overload (the process's
    // on_invoke decides what they mean).
    const adt::OpId id = type.find_op(call.op);
    if (id.valid()) {
      world.invoke_at(call.when, call.proc, id, call.arg);
    } else {
      world.invoke_at(call.when, call.proc, call.op, call.arg);
    }
  }

  std::optional<ScriptDriver> driver;
  if (!scripts->empty()) {
    if (scripts->size() != static_cast<std::size_t>(spec.params.n)) {
      throw std::invalid_argument("RunSpec: scripts.size() must equal n");
    }
    driver.emplace(type, *scripts, script_gap);
    world.set_response_hook(
        [&driver](sim::World& w, const sim::OpRecord& op) { driver->on_response(w, op); });
    for (sim::ProcId p = 0; p < spec.params.n; ++p) driver->advance(world, p, script_start);
  }

  world.run(spec.max_events);

  RunResult result;
  result.record = world.take_record();
  result.latency = latency_by_op(result.record);
  // Canonical state extraction walks every replica (every materialized key,
  // for sharded stores) -- skip it in ops-only runs, where the caller asked
  // for throughput numbers, not convergence evidence.
  if (full_detail) {
    for (auto* p : algo1_procs) result.final_states.push_back(p->state_canonical());
    for (auto* p : sharded_procs) result.final_states.push_back(p->state_canonical());
    for (auto* p : central_procs) {
      result.final_states.push_back(p->state_canonical());
      break;  // only the coordinator's state is meaningful
    }
  }
  return result;
}

std::vector<std::vector<ScriptOp>> random_scripts(const adt::DataType& type, int n,
                                                  int ops_per_proc, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto& specs = type.ops();
  std::vector<std::vector<ScriptOp>> scripts(static_cast<std::size_t>(n));
  for (auto& script : scripts) {
    script.reserve(static_cast<std::size_t>(ops_per_proc));
    for (int i = 0; i < ops_per_proc; ++i) {
      const auto& spec = specs[rng() % specs.size()];
      const auto args = type.sample_args(spec.name);
      script.push_back(ScriptOp{spec.name, args[rng() % args.size()]});
    }
  }
  return scripts;
}

}  // namespace lintime::harness
