// Open-loop plans read in place (World::set_plan) against the same calls
// submitted one by one through World::invoke_at.  Over 60 seeds of seven
// plan shapes -- uniform, Zipf and bursty serving plans, a staggered plan in
// shuffled order, same-time ties, a plan sharing a process with a script,
// and a crash -- both paths must record byte-identically at both
// RecordDetail levels, stamp the same op ids and end in equal states; and
// harness::execute, which hands its calls to set_plan, must record what the
// plan path records.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "core/algorithm_one.hpp"
#include "core/sharded_store.hpp"
#include "core/timing_policy.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "sim/trace_io.hpp"
#include "sim/world.hpp"

namespace lintime::sim {
namespace {

enum class Submit { kPlan, kInvokeAt };

struct Run {
  RunRecord record;
  std::vector<std::string> final_states;  ///< per process
};

/// Runs `spec` -- Algorithm 1, or sharded serving when `type` is a
/// ShardedStore -- on a World built here.  The open-loop calls go in as a
/// plan or through invoke_at, in plan order; then the scripts start, driven
/// as harness::execute drives them.
Run run(const adt::DataType& type, const harness::RunSpec& spec, RecordDetail detail,
        Submit submit) {
  WorldConfig config;
  config.type = &type;
  config.params = spec.params;
  config.clock_offsets = spec.clock_offsets;
  config.delays = spec.delays;
  config.faults = spec.faults;
  config.record_detail = detail;
  const auto timing = core::TimingPolicy::standard(spec.params, spec.X);
  const bool full = detail == RecordDetail::kFull;
  const auto* store = dynamic_cast<const core::ShardedStore*>(&type);
  std::optional<core::ShardedReplicas> replicas;
  if (store != nullptr) replicas.emplace(*store, spec.params.n);

  std::vector<std::function<std::string()>> states;
  World world(config, [&](ProcId p) -> std::unique_ptr<Process> {
    if (store != nullptr) {
      auto proc = std::make_unique<core::ShardedServingProcess>(*store, timing, *replicas, p);
      proc->set_execution_logging(full);
      states.emplace_back([q = proc.get()] { return q->state_canonical(); });
      return proc;
    }
    auto proc = std::make_unique<core::AlgorithmOneProcess>(type, timing);
    proc->set_execution_logging(full);
    states.emplace_back([q = proc.get()] { return q->state_canonical(); });
    return proc;
  });
  if (submit == Submit::kPlan) {
    world.set_plan(spec.calls);
  } else {
    for (const auto& call : spec.calls) world.invoke_at(call.when, call.proc, call.op, call.arg);
  }

  std::vector<std::size_t> next(spec.scripts.size(), 0);
  const auto advance = [&](World& w, ProcId p, Time when) {
    const auto& script = spec.scripts[static_cast<std::size_t>(p)];
    auto& i = next[static_cast<std::size_t>(p)];
    if (i == script.size()) return;
    w.invoke_at(std::max(when, script[i].not_before), p, type.op_id(script[i].op),
                script[i].arg);
    ++i;
  };
  if (!spec.scripts.empty()) {
    world.set_response_hook([&](World& w, const OpRecord& op) {
      const auto& script = spec.scripts[static_cast<std::size_t>(op.proc)];
      const std::size_t i = next[static_cast<std::size_t>(op.proc)];
      if (i == 0 || op.op != script[i - 1].op || op.arg != script[i - 1].arg) return;
      advance(w, op.proc, w.now() + spec.script_gap);
    });
    for (ProcId p = 0; p < spec.params.n; ++p) advance(world, p, spec.script_start);
  }
  world.run(spec.max_events);

  Run out;
  out.record = world.take_record();
  for (const auto& state : states) out.final_states.push_back(state());
  return out;
}

std::vector<std::int64_t> op_ids(const RunRecord& record) {
  std::vector<std::int64_t> ids;
  for (const auto& op : record.ops) {
    ids.push_back(op.op_id.valid() ? static_cast<std::int64_t>(op.op_id.index()) : -1);
  }
  return ids;
}

/// The differential check for one spec.  `make_spec` is invoked once per
/// run: stateful delay models draw from a sequential RNG, so each run needs
/// a freshly seeded instance.
void expect_plan_matches_invoke_at(const adt::DataType& type,
                                   const std::function<harness::RunSpec()>& make_spec,
                                   const std::string& label) {
  for (const auto detail : {RecordDetail::kFull, RecordDetail::kOpsOnly}) {
    const std::string at = label + (detail == RecordDetail::kFull ? " (full)" : " (ops only)");
    const Run plan = run(type, make_spec(), detail, Submit::kPlan);
    const Run ref = run(type, make_spec(), detail, Submit::kInvokeAt);
    ASSERT_FALSE(plan.record.ops.empty()) << at;
    EXPECT_EQ(record_to_string(plan.record), record_to_string(ref.record)) << at;
    EXPECT_EQ(op_ids(plan.record), op_ids(ref.record)) << at;
    EXPECT_EQ(plan.final_states, ref.final_states) << at;

    harness::RunSpec spec = make_spec();
    spec.record_detail = detail;
    const harness::RunResult executed = harness::execute(type, spec);
    EXPECT_EQ(record_to_string(executed.record), record_to_string(plan.record)) << at;
    EXPECT_EQ(op_ids(executed.record), op_ids(plan.record)) << at;
    if (detail == RecordDetail::kFull) {
      EXPECT_EQ(executed.final_states, plan.final_states) << at;
    }
  }
}

constexpr int kSeeds = 60;

ModelParams params_for(std::uint64_t seed) {
  ModelParams params{2 + static_cast<int>(seed % 7), 10.0, 2.0, 0.0};  // 2..8 processes
  params.eps = params.optimal_eps();
  return params;
}

/// A serving spec over `store`: the generator's open-loop plan, random
/// delays, and X = (d - eps)/2 on every third seed.
harness::RunSpec serving_spec(const core::ShardedStore& store, std::uint64_t seed,
                              harness::ShardedWorkloadGen::Options opts) {
  harness::RunSpec spec;
  spec.params = params_for(seed);
  spec.algo = harness::AlgoKind::kShardedServing;
  spec.X = seed % 3 == 0 ? (spec.params.d - spec.params.eps) / 2 : 0.0;
  spec.delays = std::make_shared<UniformRandomDelay>(spec.params.min_delay(), spec.params.d, seed);
  opts.ops_per_proc = 10;
  opts.seed = seed;
  spec.calls = harness::ShardedWorkloadGen(opts).generate(store, spec.params).calls;
  return spec;
}

TEST(PlanTest, UniformServingPlans) {
  adt::RegisterType reg;
  const core::ShardedStore store(reg, 64, 4);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_plan_matches_invoke_at(
        store, [&] { return serving_spec(store, seed, {}); }, "seed " + std::to_string(seed));
  }
}

TEST(PlanTest, ZipfServingPlans) {
  adt::RegisterType reg;
  const core::ShardedStore store(reg, 64, 4);
  harness::ShardedWorkloadGen::Options opts;
  opts.zipf_theta = 0.99;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_plan_matches_invoke_at(
        store, [&] { return serving_spec(store, seed, opts); }, "seed " + std::to_string(seed));
  }
}

TEST(PlanTest, BurstyServingPlans) {
  adt::RegisterType reg;
  const core::ShardedStore store(reg, 64, 4);
  harness::ShardedWorkloadGen::Options opts;
  opts.burst = 3;
  opts.burst_gap = 45.0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_plan_matches_invoke_at(
        store, [&] { return serving_spec(store, seed, opts); }, "seed " + std::to_string(seed));
  }
}

TEST(PlanTest, StaggeredPlansInShuffledOrder) {
  // Not sorted by time, so the ring reads the plan through its time order;
  // calls that share a time keep their (shuffled) plan order.
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto make_spec = [&queue, seed] {
      harness::RunSpec spec;
      spec.params = params_for(seed);
      spec.delays =
          std::make_shared<UniformRandomDelay>(spec.params.min_delay(), spec.params.d, seed);
      const double stagger = seed % 2 == 0 ? 0.25 : 0.0;
      spec.calls = harness::StaggeredRoundsGen(6, seed, stagger).generate(queue, spec.params).calls;
      std::shuffle(spec.calls.begin(), spec.calls.end(), std::mt19937_64(seed));
      return spec;
    };
    expect_plan_matches_invoke_at(queue, make_spec, "seed " + std::to_string(seed));
  }
}

TEST(PlanTest, SameTimeTies) {
  // Constant delays and invocation times on a 10-unit grid: each epoch's
  // invocations tie with each other, and odd processes' invocations tie
  // with the deliveries of even processes' announcements.
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto make_spec = [&queue, seed] {
      harness::RunSpec spec;
      spec.params = params_for(seed);
      const int n = spec.params.n;
      const auto scripts = harness::random_scripts(queue, n, 5, seed);
      for (int i = 0; i < 5; ++i) {
        for (int p = 0; p < n; ++p) {
          const auto& step = scripts[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)];
          spec.calls.push_back(harness::Call{30.0 * i + 10.0 * (p % 2), p, step.op, step.arg});
        }
      }
      return spec;
    };
    expect_plan_matches_invoke_at(queue, make_spec, "seed " + std::to_string(seed));
  }
}

TEST(PlanTest, PlanAndScriptAtOneProcess) {
  // p0 serves four planned enqueues, then runs its script from t = 120;
  // every other process runs its script from 0.
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto make_spec = [&queue, seed] {
      harness::RunSpec spec;
      spec.params = params_for(seed);
      spec.delays =
          std::make_shared<UniformRandomDelay>(spec.params.min_delay(), spec.params.d, seed);
      spec.scripts = harness::random_scripts(queue, spec.params.n, 4, seed * 7);
      spec.scripts[0][0].not_before = 120.0;
      for (int i = 0; i < 4; ++i) {
        spec.calls.push_back(harness::Call{25.0 * i, 0, "enqueue", adt::Value{1000 + i}});
      }
      return spec;
    };
    expect_plan_matches_invoke_at(queue, make_spec, "seed " + std::to_string(seed));
  }
}

TEST(PlanTest, ServingPlanWithACrash) {
  // One process halts mid-plan: its later planned invocations are dropped
  // and the op in flight at the crash never completes.
  adt::RegisterType reg;
  const core::ShardedStore store(reg, 64, 4);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto make_spec = [&] {
      harness::RunSpec spec = serving_spec(store, seed, {});
      const auto proc = static_cast<ProcId>(seed % static_cast<std::uint64_t>(spec.params.n));
      spec.faults.crashes.push_back(CrashEvent{proc, 95.0 + static_cast<double>(seed % 10)});
      return spec;
    };
    expect_plan_matches_invoke_at(store, make_spec, "seed " + std::to_string(seed));
    EXPECT_LT(harness::execute(store, make_spec()).record.ops.size(), make_spec().calls.size())
        << "seed " << seed << ": the crash dropped no planned call";
  }
}

}  // namespace
}  // namespace lintime::sim
