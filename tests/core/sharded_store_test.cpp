// ShardedStore / ShardedServingProcess tests: keyed-envelope validation,
// deterministic key->shard routing, interned dispatch, replica convergence,
// the locality property at keyspace scale -- the combined history of a
// 10^4-key store is linearizable, and so is every per-key restriction
// (checked through the component type's fast-path monitor) -- and the
// shared replica rows: a column view behaves like a standalone keyed state,
// and a run over shared rows records exactly what private replicas record.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/set_type.hpp"
#include "adt/trail.hpp"
#include "core/composite.hpp"
#include "core/sharded_store.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "lin/check.hpp"
#include "sim/trace_io.hpp"
#include "sim/world.hpp"

namespace lintime::core {
namespace {

using adt::Value;

TEST(ShardedStoreTest, ConstructorValidatesArguments) {
  adt::RegisterType reg;
  EXPECT_THROW(ShardedStore(reg, 0, 4), std::invalid_argument);
  EXPECT_THROW(ShardedStore(reg, -5, 4), std::invalid_argument);
  EXPECT_THROW(ShardedStore(reg, 10, 0), std::invalid_argument);
}

TEST(ShardedStoreTest, OpsMirrorComponentInOrder) {
  adt::RegisterType reg;
  ShardedStore store(reg, 100, 4);
  ASSERT_EQ(store.ops().size(), reg.ops().size());
  for (std::size_t i = 0; i < store.ops().size(); ++i) {
    EXPECT_EQ(store.ops()[i].name, reg.ops()[i].name);
    EXPECT_EQ(store.ops()[i].category, reg.ops()[i].category);
    EXPECT_TRUE(store.ops()[i].takes_arg);  // every store op carries [key, inner]
    // Store OpId index == component OpId index, the invariant interned
    // dispatch relies on.
    EXPECT_EQ(store.op_id(store.ops()[i].name).index(), reg.op_id(reg.ops()[i].name).index());
  }
}

TEST(ShardedStoreTest, SplitValidatesEnvelope) {
  adt::RegisterType reg;
  ShardedStore store(reg, 100, 4);
  EXPECT_THROW(store.split(Value{7}), std::invalid_argument);       // not a vec
  EXPECT_THROW(store.split(Value::nil()), std::invalid_argument);   // not a vec
  EXPECT_THROW(store.split(ShardedStore::keyed(100, Value{1})), std::invalid_argument);
  EXPECT_THROW(store.split(ShardedStore::keyed(-1, Value{1})), std::invalid_argument);

  const Value ok = ShardedStore::keyed(42, Value{7});
  const auto ka = store.split(ok);
  EXPECT_EQ(ka.key, 42);
  EXPECT_EQ(ka.inner->as_int(), 7);
}

TEST(ShardedStoreTest, RoutingIsDeterministicAndInRange) {
  adt::RegisterType reg;
  ShardedStore store(reg, 100000, 16);
  std::set<int> used;
  for (std::int64_t key = 0; key < 100000; key += 97) {
    const int shard = store.shard_of(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 16);
    EXPECT_EQ(shard, ShardedStore::shard_of(key, 16));  // pure function
    used.insert(shard);
  }
  // The multiplicative hash must actually spread a dense key range.
  EXPECT_EQ(used.size(), 16u);
}

TEST(ShardedStoreTest, KeyedStateAppliesPerKey) {
  adt::RegisterType reg;
  ShardedStore store(reg, 1000, 4);
  const auto state = store.initial_state();
  state->apply("write", ShardedStore::keyed(3, Value{30}));
  state->apply("write", ShardedStore::keyed(7, Value{70}));
  EXPECT_EQ(state->apply("read", ShardedStore::keyed(3, Value::nil())).as_int(), 30);
  EXPECT_EQ(state->apply("read", ShardedStore::keyed(7, Value::nil())).as_int(), 70);
  EXPECT_EQ(state->apply("read", ShardedStore::keyed(500, Value::nil())).as_int(), 0);
}

TEST(ShardedStoreTest, CanonicalIgnoresUntouchedAndInitialValuedKeys) {
  adt::RegisterType reg;
  ShardedStore store(reg, 1000, 4);
  const auto a = store.initial_state();
  const auto b = store.initial_state();
  // b reads a key (materializing it) and writes-then-reverts another:
  // behaviourally both states are still the initial store.
  b->apply("read", ShardedStore::keyed(9, Value::nil()));
  b->apply("write", ShardedStore::keyed(5, Value{1}));
  b->apply("write", ShardedStore::keyed(5, Value{0}));
  EXPECT_EQ(a->canonical(), b->canonical());
  b->apply("write", ShardedStore::keyed(5, Value{2}));
  EXPECT_NE(a->canonical(), b->canonical());
}

TEST(ShardedStoreTest, SampleArgsCoverKeyspaceEnds) {
  adt::RegisterType reg;
  ShardedStore store(reg, 1000, 4);
  for (const auto& spec : store.ops()) {
    const auto args = store.sample_args(spec.name);
    ASSERT_FALSE(args.empty());
    std::set<std::int64_t> keys;
    for (const auto& arg : args) keys.insert(store.split(arg).key);
    EXPECT_EQ(keys, (std::set<std::int64_t>{0, 999}));
  }
}

// ---------------------------------------------------------------------------
// Replica rows: column views against standalone states
// ---------------------------------------------------------------------------

/// Drives the `columns` views of one replica set and `columns` standalone
/// states with the same random sequence over `num_keys` keys: plain applies,
/// and probes of trailed applies undone in LIFO order (plain applies inside
/// a probe are pure accessors only, as in the linearizability search).
/// Returns, canonical(), fingerprint() and clone() must agree.
void check_views_match_standalone(const adt::DataType& component, std::int64_t num_keys,
                                  std::uint64_t seed) {
  constexpr int kColumns = 3;
  const ShardedStore store(component, num_keys, 2);
  ShardedReplicas replicas(store, kColumns);
  std::vector<std::unique_ptr<adt::ObjectState>> views;
  std::vector<std::unique_ptr<adt::ObjectState>> alone;
  for (int c = 0; c < kColumns; ++c) {
    views.push_back(replicas.replica(0, c));
    alone.push_back(store.initial_state());
  }
  std::vector<adt::Trail> view_trails(kColumns);
  std::vector<adt::Trail> alone_trails(kColumns);
  std::vector<int> depth(kColumns, 0);

  std::mt19937_64 rng(seed);
  const auto& specs = component.ops();
  for (int step = 0; step < 4 * static_cast<int>(num_keys); ++step) {
    const auto c = static_cast<std::size_t>(rng() % kColumns);
    if (depth[c] > 0 && rng() % 2 == 0) {
      views[c]->undo(view_trails[c]);
      alone[c]->undo(alone_trails[c]);
      --depth[c];
      continue;
    }
    const auto& spec = specs[rng() % specs.size()];
    const auto args = component.sample_args(spec.name);
    const auto key = static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(num_keys));
    const adt::Value arg = ShardedStore::keyed(key, args[rng() % args.size()]);
    const adt::OpId id = store.op_id(spec.name);
    const bool accessor = spec.category == adt::OpCategory::kPureAccessor;
    if ((depth[c] > 0 && !accessor) || (depth[c] == 0 && rng() % 16 == 0)) {
      ASSERT_EQ(views[c]->apply_trailed(id, arg, view_trails[c]),
                alone[c]->apply_trailed(id, arg, alone_trails[c]))
          << component.name() << " step " << step;
      ++depth[c];
    } else {
      ASSERT_EQ(views[c]->apply(id, arg), alone[c]->apply(id, arg))
          << component.name() << " step " << step;
    }
  }

  for (std::size_t c = 0; c < views.size(); ++c) {
    EXPECT_EQ(views[c]->canonical(), alone[c]->canonical()) << component.name() << " column " << c;
    EXPECT_EQ(views[c]->fingerprint(), alone[c]->fingerprint()) << component.name();
    const auto copy = views[c]->clone();
    EXPECT_EQ(copy->canonical(), alone[c]->canonical()) << component.name();
    EXPECT_EQ(copy->fingerprint(), alone[c]->fingerprint()) << component.name();
    for (; depth[c] > 0; --depth[c]) {
      views[c]->undo(view_trails[c]);
      alone[c]->undo(alone_trails[c]);
    }
    EXPECT_EQ(views[c]->canonical(), alone[c]->canonical()) << component.name() << " column " << c;
  }
}

TEST(ShardedReplicasTest, ColumnViewsBehaveLikeStandaloneStates) {
  // 12 000 keys take each directory through ten growths.  The product
  // state publishes no footprint (self_size() == 0), so its rows hold heap
  // states instead of placed ones.
  const adt::RegisterType reg;
  const adt::QueueType queue;
  const adt::SetType set;
  const ProductType product({&queue, &reg, &set});
  check_views_match_standalone(reg, 12000, 1);
  check_views_match_standalone(queue, 12000, 2);
  check_views_match_standalone(product, 12000, 3);
}

TEST(ShardedReplicasTest, ColumnsAreIndependent) {
  adt::RegisterType reg;
  ShardedStore store(reg, 100, 4);
  ShardedReplicas replicas(store, 2);
  const auto a = replicas.replica(1, 0);
  const auto b = replicas.replica(1, 1);
  a->apply("write", ShardedStore::keyed(7, Value{70}));
  // The write created key 7's row; b's column of it is still initial.
  EXPECT_EQ(b->apply("read", ShardedStore::keyed(7, Value::nil())).as_int(), 0);
  EXPECT_EQ(b->canonical(), store.initial_state()->canonical());
  EXPECT_EQ(a->apply("read", ShardedStore::keyed(7, Value::nil())).as_int(), 70);
  EXPECT_THROW((void)replicas.replica(1, 2), std::out_of_range);
  EXPECT_THROW(ShardedReplicas(store, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end serving runs
// ---------------------------------------------------------------------------

harness::RunResult run_serving(const ShardedStore& store, int n, int ops_per_proc,
                               std::uint64_t seed) {
  harness::RunSpec spec;
  spec.params = sim::ModelParams{n, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.algo = harness::AlgoKind::kShardedServing;
  spec.delays = std::make_shared<sim::UniformRandomDelay>(spec.params.min_delay(),
                                                          spec.params.d, seed);
  spec.scripts = harness::sharded_scripts(store, n, ops_per_proc, seed * 31);
  return harness::execute(store, spec);
}

TEST(ShardedServingTest, RequiresShardedStoreType) {
  adt::RegisterType reg;
  harness::RunSpec spec;
  spec.params = sim::ModelParams{2, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.algo = harness::AlgoKind::kShardedServing;
  EXPECT_THROW((void)harness::execute(reg, spec), std::invalid_argument);
}

TEST(ShardedServingTest, ReplicasConvergeAcrossProcesses) {
  adt::RegisterType reg;
  ShardedStore store(reg, 10000, 8);
  const auto result = run_serving(store, 4, 20, 5);
  ASSERT_EQ(result.final_states.size(), 4u);
  for (std::size_t p = 1; p < result.final_states.size(); ++p) {
    EXPECT_EQ(result.final_states[0], result.final_states[p]) << "process " << p;
  }
  EXPECT_EQ(result.record.ops.size(), 80u);
  for (const auto& op : result.record.ops) {
    EXPECT_TRUE(op.complete());
    EXPECT_TRUE(op.op_id.valid());  // interned dispatch end to end
  }
}

TEST(ShardedServingTest, ShardRestrictionsPartitionTheHistory) {
  adt::RegisterType reg;
  ShardedStore store(reg, 10000, 8);
  const auto result = run_serving(store, 4, 15, 7);
  std::size_t total = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    const auto part = restrict_to_shard(result.record.ops, store, s);
    for (const auto& op : part) {
      EXPECT_EQ(store.shard_of(store.split(op.arg).key), s);
    }
    total += part.size();
  }
  EXPECT_EQ(total, result.record.ops.size());
}

TEST(ShardedServingTest, LocalityAtTenThousandKeys) {
  // The locality property at shard scale (Section 2.3): the COMBINED keyed
  // history of a >= 10^4-key store is linearizable w.r.t. the store, and
  // every per-key restriction is linearizable w.r.t. the component --
  // decided by the component's O(n log n) register monitor (fast path),
  // since sharded_scripts writes globally unique values.
  adt::RegisterType reg;
  ShardedStore store(reg, 10000, 8);
  const auto result = run_serving(store, 4, 75, 3);
  ASSERT_EQ(result.record.ops.size(), 300u);

  const auto combined = lin::check(store, result.record.ops);
  EXPECT_TRUE(combined.result.linearizable);

  std::set<std::int64_t> keys;
  for (const auto& op : result.record.ops) keys.insert(store.split(op.arg).key);
  EXPECT_GT(keys.size(), 100u);  // the workload actually spread over the keyspace

  std::size_t fast_path = 0;
  for (const std::int64_t key : keys) {
    const auto ops = restrict_to_key(result.record.ops, store, key);
    ASSERT_FALSE(ops.empty());
    for (const auto& op : ops) {
      EXPECT_TRUE(op.op_id.valid());  // ids survive the projection
    }
    const auto report = lin::check(reg, ops);
    EXPECT_TRUE(report.result.linearizable) << "key " << key;
    if (report.stats.route == lin::CheckRoute::kFastPath) ++fast_path;
  }
  // Each restriction is an unambiguous register history: all of them must
  // take the fast path.
  EXPECT_EQ(fast_path, keys.size());
}

// ---------------------------------------------------------------------------
// Shared rows reproduce private replicas
// ---------------------------------------------------------------------------

struct RowsPlan {
  const char* name;
  double zipf_theta;
  bool closed_loop;
  sim::FaultSchedule faults;
};

/// A fresh spec per run: the seeded delay model is stateful.
harness::RunSpec rows_spec(const RowsPlan& plan) {
  harness::RunSpec spec;
  spec.params = sim::ModelParams{8, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.algo = harness::AlgoKind::kShardedServing;
  spec.delays = std::make_shared<sim::UniformRandomDelay>(spec.params.min_delay(),
                                                          spec.params.d, 17);
  spec.faults = plan.faults;
  harness::ShardedWorkloadGen::Options opts;
  opts.ops_per_proc = 150;
  opts.seed = 29;
  opts.zipf_theta = plan.zipf_theta;
  opts.closed_loop = plan.closed_loop;
  spec.workload = std::make_shared<harness::ShardedWorkloadGen>(opts);
  return spec;
}

/// What harness::execute does with `spec`, but through processes that each
/// own a one-column replica set (the two-argument constructor).
harness::RunResult run_private_replicas(const ShardedStore& store, const harness::RunSpec& spec) {
  sim::WorldConfig config;
  config.type = &store;
  config.params = spec.params;
  config.delays = spec.delays;
  config.faults = spec.faults;
  const auto timing = TimingPolicy::standard(spec.params, spec.X);
  std::vector<ShardedServingProcess*> procs;
  sim::World world(config, [&](sim::ProcId) -> std::unique_ptr<sim::Process> {
    auto proc = std::make_unique<ShardedServingProcess>(store, timing);
    procs.push_back(proc.get());
    return proc;
  });

  const harness::WorkloadPlan plan = spec.workload->generate(store, spec.params);
  for (const auto& call : plan.calls) {
    world.invoke_at(call.when, call.proc, store.op_id(call.op), call.arg);
  }
  std::vector<std::size_t> next(plan.scripts.size(), 0);
  const auto advance = [&](sim::World& w, sim::ProcId p, sim::Time when) {
    const auto& script = plan.scripts[static_cast<std::size_t>(p)];
    auto& i = next[static_cast<std::size_t>(p)];
    if (i == script.size()) return;
    w.invoke_at(when, p, store.op_id(script[i].op), script[i].arg);
    ++i;
  };
  if (!plan.scripts.empty()) {
    world.set_response_hook([&](sim::World& w, const sim::OpRecord& op) {
      advance(w, op.proc, w.now() + plan.script_gap);
    });
    for (sim::ProcId p = 0; p < spec.params.n; ++p) advance(world, p, plan.script_start);
  }
  world.run(spec.max_events);

  harness::RunResult out;
  out.record = world.take_record();
  for (const auto* p : procs) out.final_states.push_back(p->state_canonical());
  return out;
}

TEST(ShardedReplicasTest, SharedRowsRecordWhatPrivateReplicasRecord) {
  adt::RegisterType reg;
  ShardedStore store(reg, 2000, 4);
  sim::FaultSchedule crash;
  crash.crashes = {{3, 1000.0}};  // column 3 stops receiving applies mid-run
  for (const RowsPlan& plan : {RowsPlan{"uniform", 0, false, {}},
                               RowsPlan{"zipf", 0.99, false, {}},
                               RowsPlan{"closed-loop", 0, true, {}},
                               RowsPlan{"uniform+crash", 0, false, crash}}) {
    const auto shared = harness::execute(store, rows_spec(plan));
    const auto own = run_private_replicas(store, rows_spec(plan));
    ASSERT_EQ(shared.record.ops.size(), own.record.ops.size()) << plan.name;
    EXPECT_GT(shared.record.ops.size(), 1000u) << plan.name;
    EXPECT_EQ(sim::record_to_string(shared.record), sim::record_to_string(own.record))
        << plan.name;
    EXPECT_EQ(shared.final_states, own.final_states) << plan.name;
  }
}

}  // namespace
}  // namespace lintime::core
