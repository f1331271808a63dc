// Property test for ObjectState::apply_trailed / undo, the pair the
// linearizability search probes candidates with: on every shipped state, the
// composite ProductState, the sharded store's KeyedState (standalone and as
// a column of shared replica rows) and the test-only CollidingState, random
// interleavings of trailed applies, pure-accessor applies and undos must
// (a) return exactly what apply() returns and (b) restore canonical() and
// fingerprint() on every undo.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adt/counter_type.hpp"
#include "adt/deque_type.hpp"
#include "adt/max_register_type.hpp"
#include "adt/pool_type.hpp"
#include "adt/pqueue_type.hpp"
#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/rmw_register_type.hpp"
#include "adt/set_type.hpp"
#include "adt/stack_type.hpp"
#include "adt/trail.hpp"
#include "adt/tree_type.hpp"
#include "colliding_register.hpp"
#include "core/composite.hpp"
#include "core/sharded_store.hpp"

namespace lintime::lin {
namespace {

struct Snapshot {
  std::string canonical;
  adt::Fingerprint fp;
};

Snapshot snap(const adt::ObjectState& s) { return {s.canonical(), s.fingerprint()}; }

/// Runs `steps` random steps on one live state: a trailed apply of a random
/// invocation, a plain apply of a pure accessor (as the search does), or an
/// undo of the most recent trailed apply.  A shadow clone replays every
/// apply plainly, so the trailed return values are checked too.  Finally
/// undoes everything and checks the initial state is back.  `state` is an
/// initial state of `type` (default: type.initial_state()).  A `sibling`
/// state, if given, takes a plain apply of a random invocation at each
/// step; it must not disturb `state`.
void check_undo(const adt::DataType& type, std::uint64_t seed, int steps,
                std::unique_ptr<adt::ObjectState> state = nullptr,
                adt::ObjectState* sibling = nullptr) {
  std::mt19937_64 rng(seed);
  const auto& specs = type.ops();
  if (!state) state = type.initial_state();
  adt::Trail trail;
  std::vector<Snapshot> before;  // one per live trailed apply
  const Snapshot initial = snap(*state);

  for (int step = 0; step < steps; ++step) {
    const auto& spec = specs[rng() % specs.size()];
    const auto args = type.sample_args(spec.name);
    const adt::Value& arg = args[rng() % args.size()];
    const adt::OpId id = type.op_id(spec.name);
    const bool undo = !before.empty() && rng() % 3 == 0;
    if (sibling != nullptr) {
      const auto& other = specs[rng() % specs.size()];
      const auto other_args = type.sample_args(other.name);
      (void)sibling->apply(type.op_id(other.name), other_args[rng() % other_args.size()]);
    }

    if (undo) {
      state->undo(trail);
      const Snapshot restored = snap(*state);
      EXPECT_EQ(restored.canonical, before.back().canonical) << type.name() << " step " << step;
      EXPECT_EQ(restored.fp, before.back().fp) << type.name() << " step " << step;
      before.pop_back();
      continue;
    }

    auto shadow = state->clone();
    const adt::Value want = shadow->apply(id, arg);
    if (spec.category == adt::OpCategory::kPureAccessor && rng() % 2 == 0) {
      EXPECT_EQ(state->apply(id, arg), want) << type.name() << " " << spec.name;
    } else {
      before.push_back(snap(*state));
      EXPECT_EQ(state->apply_trailed(id, arg, trail), want) << type.name() << " " << spec.name;
    }
    EXPECT_EQ(state->canonical(), shadow->canonical()) << type.name() << " " << spec.name;
  }

  while (!before.empty()) {
    state->undo(trail);
    EXPECT_EQ(snap(*state).canonical, before.back().canonical) << type.name();
    before.pop_back();
  }
  EXPECT_TRUE(trail.empty()) << type.name();
  EXPECT_EQ(state->canonical(), initial.canonical) << type.name();
  EXPECT_EQ(state->fingerprint(), initial.fp) << type.name();
}

void check_undo_seeds(const adt::DataType& type) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) check_undo(type, seed, 60);
}

TEST(UndoTest, ShippedStatesRestoreExactly) {
  const adt::RegisterType reg;
  const adt::RmwRegisterType rmw;
  const adt::QueueType queue;
  const adt::StackType stack;
  const adt::TreeType tree;
  const adt::SetType set;
  const adt::CounterType counter;
  const adt::MaxRegisterType max_reg;
  const adt::DequeType deque;
  const adt::PoolType pool;
  const adt::PriorityQueueType pqueue;
  for (const adt::DataType* type : std::vector<const adt::DataType*>{
           &reg, &rmw, &queue, &stack, &tree, &set, &counter, &max_reg, &deque, &pool, &pqueue}) {
    check_undo_seeds(*type);
  }
}

TEST(UndoTest, ProductStateForwardsToItsComponents) {
  // Queue and register have O(1) undo, the set a snapshot: the trail holds
  // both kinds interleaved.
  const adt::QueueType queue;
  const adt::SetType set;
  const adt::RegisterType reg;
  const core::ProductType product({&queue, &set, &reg});
  check_undo_seeds(product);
}

TEST(UndoTest, KeyedStateForwardsToTheKeysState) {
  // A key first touched by an undone apply stays materialized in its
  // initial state, which canonical() omits, so the checks still hold.
  const adt::RegisterType reg;
  const adt::QueueType queue;
  const adt::SetType set;
  check_undo_seeds(core::ShardedStore(reg, 4, 2));
  check_undo_seeds(core::ShardedStore(queue, 3, 2));
  check_undo_seeds(core::ShardedStore(set, 5, 3));
}

/// check_undo_seeds on column 1 of a two-column replica set of `store`,
/// while column 0 of the same rows takes plain applies: rows the view never
/// touched hold its initial states.
void check_undo_view_seeds(const core::ShardedStore& store) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    core::ShardedReplicas replicas(store, 2);
    const auto sibling = replicas.replica(0, 0);
    check_undo(store, seed, 60, replicas.replica(0, 1), sibling.get());
  }
}

TEST(UndoTest, ReplicaColumnViewForwardsToItsColumn) {
  const adt::RegisterType reg;
  const adt::QueueType queue;
  const adt::SetType set;
  check_undo_view_seeds(core::ShardedStore(reg, 4, 2));
  check_undo_view_seeds(core::ShardedStore(queue, 3, 2));
  check_undo_view_seeds(core::ShardedStore(set, 5, 3));
}

TEST(UndoTest, StringOnlyCollidingStateUsesTheSnapshotDefault) {
  check_undo_seeds(test_types::CollidingRegisterType{});
}

}  // namespace
}  // namespace lintime::lin
