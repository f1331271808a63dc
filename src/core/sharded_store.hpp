#pragma once
// Sharded multi-object serving layer.  Where core/composite fixes a small
// heterogeneous tuple of objects at construction time, this module addresses
// a KEYSPACE: a ShardedStore is a single data type whose every operation
// carries a key in [0, num_keys), and a ShardedServingProcess routes each
// key deterministically onto one of a handful of independent Algorithm 1
// instances ("shards").  Per-object timestamps, To_Execute queues and
// replica states stay disjoint across shards, so the locality argument of
// Section 2.3 (Herlihy-Wing) scales from tuples to 10^5-10^6 addressable
// objects: the combined keyed history is linearizable w.r.t. the store iff
// every per-key restriction is linearizable w.r.t. the component type.
//
// Dispatch is fully interned: the store's operations mirror the component's
// operations IN ORDER, so a store-level adt::OpId and the component-level id
// share the same index -- routing an invocation means splitting the key out
// of the argument envelope and hashing it to a shard; no string is parsed
// anywhere on the hot path (contrast the "<object>:<op>" parsing of the
// tuple composite).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "core/algorithm_one.hpp"
#include "core/timing_policy.hpp"
#include "sim/process.hpp"
#include "sim/run_record.hpp"

namespace lintime::core {

/// A keyspace of `num_keys` independent copies of a component data type,
/// viewed as ONE data type.  Operation names are the component's names,
/// unqualified; the key rides in the argument as [key, inner-arg].  The
/// store's OpId index equals the component's OpId index by construction.
class ShardedStore final : public adt::DataType {
 public:
  /// `component` must outlive the store.  `num_keys` bounds the keyspace
  /// (checked by split()); `num_shards` is the serving-side partition count.
  ShardedStore(const adt::DataType& component, std::int64_t num_keys, int num_shards);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const std::vector<adt::OpSpec>& ops() const override { return ops_; }
  [[nodiscard]] std::unique_ptr<adt::ObjectState> make_initial_state() const override;
  [[nodiscard]] std::vector<adt::Value> sample_args(const std::string& op) const override;

  [[nodiscard]] const adt::DataType& component() const { return component_; }
  [[nodiscard]] std::int64_t num_keys() const { return num_keys_; }
  [[nodiscard]] int num_shards() const { return num_shards_; }

  /// Deterministic key -> shard routing: ((key * 0x9E3779B97F4A7C15) >> 33)
  /// % num_shards, identical on every process and across runs.
  [[nodiscard]] static int shard_of(std::int64_t key, int num_shards);
  [[nodiscard]] int shard_of(std::int64_t key) const { return shard_of(key, num_shards_); }

  /// Wraps a component-level argument into the store's keyed envelope.
  [[nodiscard]] static adt::Value keyed(std::int64_t key, adt::Value inner);

  /// Borrowed view of a keyed argument (no copy of the inner value).
  struct KeyedArg {
    std::int64_t key;
    const adt::Value* inner;
  };

  /// Splits a keyed envelope; throws std::invalid_argument on malformed
  /// arguments or keys outside [0, num_keys).
  [[nodiscard]] KeyedArg split(const adt::Value& arg) const;

  /// The component-level id corresponding to a store-level id: the same
  /// index (the store's op list mirrors the component's in order).
  [[nodiscard]] static adt::OpId component_op(adt::OpId id) { return id; }

  /// Canonical form of the component's initial state; a key whose state
  /// prints this is behaviourally absent from the store.
  [[nodiscard]] const std::string& initial_canonical() const { return initial_canonical_; }

  /// True iff the op (by interned index) is a pure accessor of the component.
  /// Pure accessors never mutate state (the category contract Algorithm 1
  /// itself relies on), so a keyed state serves them for keys without a row
  /// from one shared initial component state, without creating the row.
  [[nodiscard]] bool pure_accessor(adt::OpId id) const {
    return pure_accessor_[id.index()] != 0;
  }

 private:
  const adt::DataType& component_;
  std::int64_t num_keys_;
  int num_shards_;
  std::vector<adt::OpSpec> ops_;
  std::vector<char> pure_accessor_;  ///< by op index
  std::string initial_canonical_;
};

class KeyRows;  // sharded_store.cpp: one shard's key -> row directory

/// The replica states of one serving run.  Algorithm 1 executes every
/// mutator on all n replicas within u of each other, so each shard keeps ONE
/// key -> row directory whose row holds the n processes' component states of
/// that key side by side, allocated together on the key's first mutator.
/// Process p's replica of a shard is a keyed state over column p: the n
/// executions of one write find one table slot and one run of adjacent
/// states.  A column its process has not yet applied to holds the initial
/// state, which reads and canonical() treat exactly like an absent key.
class ShardedReplicas {
 public:
  /// `store` must outlive the set; `columns` >= 1 (normally n).
  ShardedReplicas(const ShardedStore& store, int columns);
  ~ShardedReplicas();
  ShardedReplicas(const ShardedReplicas&) = delete;
  ShardedReplicas& operator=(const ShardedReplicas&) = delete;

  /// Column `column`'s replica of `shard`: a view that must not outlive
  /// the set.  Its clone() is a standalone state.
  [[nodiscard]] std::unique_ptr<adt::ObjectState> replica(int shard, int column);

 private:
  int columns_;
  std::vector<std::unique_ptr<KeyRows>> shards_;
};

/// One simulated process serving a ShardedStore: an independent Algorithm 1
/// instance per shard, each running against the store type (its replica is a
/// keyed state that materializes only the keys routed to that shard).
/// Messages and timers are multiplexed via Payload::chan (the shard index,
/// stamped outbound and stripped inbound); invocations route by key with
/// interned dispatch end to end.
class ShardedServingProcess final : public sim::Process {
 public:
  /// Serves column `column` of `replicas`, which must outlive the process
  /// (harness::execute passes the process id as the column).
  ShardedServingProcess(const ShardedStore& store, const TimingPolicy& timing,
                        ShardedReplicas& replicas, int column);
  /// Owns its replica states (a one-column set).
  ShardedServingProcess(const ShardedStore& store, const TimingPolicy& timing);

  void on_invoke(sim::Context& ctx, const std::string& op, const adt::Value& arg) override;
  void on_invoke_id(sim::Context& ctx, adt::OpId id, const std::string& op,
                    const adt::Value& arg) override;
  void on_message(sim::Context& ctx, sim::ProcId src, const sim::Payload& payload) override;
  void on_timer(sim::Context& ctx, sim::TimerId id, const sim::Payload& data) override;

  /// Canonical encoding of every shard's replica state, for convergence
  /// checks across processes.
  [[nodiscard]] std::string state_canonical() const;

  /// Forwards to every shard instance (see AlgorithmOneProcess).
  void set_execution_logging(bool on);

 private:
  class ShardContext;

  void add_instances(const TimingPolicy& timing, ShardedReplicas& replicas, int column);

  const ShardedStore& store_;
  std::unique_ptr<ShardedReplicas> own_;  ///< set by the two-argument constructor
  std::vector<std::unique_ptr<AlgorithmOneProcess>> instances_;
};

/// Restricts a keyed history to one key, stripping the envelope: the result
/// is a component-type history (args are the inner values; OpIds stay valid
/// because store and component indices coincide).
[[nodiscard]] std::vector<sim::OpRecord> restrict_to_key(const std::vector<sim::OpRecord>& ops,
                                                         const ShardedStore& store,
                                                         std::int64_t key);

/// Restricts a keyed history to the keys routed to one shard, keeping the
/// envelope (the result is still a store history).
[[nodiscard]] std::vector<sim::OpRecord> restrict_to_shard(const std::vector<sim::OpRecord>& ops,
                                                           const ShardedStore& store, int shard);

}  // namespace lintime::core
