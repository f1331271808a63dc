#include "core/sharded_store.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "adt/trail.hpp"

namespace lintime::core {

namespace {

/// Slab owner for materialized component states.  A million-key serving run
/// materializes ~10^6 states; one unique_ptr each means a million
/// malloc/free pairs (the free half lands in the timed region at teardown),
/// which profiled as the largest remaining libc cost after the payload
/// refactor.  States that publish their footprint (self_size() > 0, i.e.
/// anything deriving StateBase) are placement-copied into 64 KiB bump slabs
/// instead; string-only custom states fall back to one heap block each.
/// Bump order follows materialization order, so layout -- like everything
/// else here -- is deterministic, and nothing ever reads it anyway.
class StateArena {
 public:
  StateArena() = default;
  StateArena(const StateArena&) = delete;
  StateArena& operator=(const StateArena&) = delete;

  ~StateArena() {
    for (adt::ObjectState* s : placed_) s->~ObjectState();
  }

  /// Returns a copy of `tmpl` owned by this arena.
  adt::ObjectState* add(const adt::ObjectState& tmpl) {
    const std::size_t size = tmpl.self_size();
    if (size == 0) {
      owned_.push_back(tmpl.clone());
      return owned_.back().get();
    }
    const std::size_t align = tmpl.self_align();
    auto at = (cursor_ + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
    if (at + size > limit_) {
      const std::size_t slab = std::max<std::size_t>(kSlabBytes, size + align);
      slabs_.push_back(std::make_unique<std::byte[]>(slab));
      cursor_ = reinterpret_cast<std::uintptr_t>(slabs_.back().get());
      limit_ = cursor_ + slab;
      at = (cursor_ + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
    }
    cursor_ = at + size;
    adt::ObjectState* s = tmpl.clone_into(reinterpret_cast<void*>(at));
    placed_.push_back(s);
    return s;
  }

 private:
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<adt::ObjectState*> placed_;  ///< in-slab states needing dtors
  std::vector<std::unique_ptr<adt::ObjectState>> owned_;  ///< fallback path
  std::uintptr_t cursor_ = 1;  ///< 1 > limit_: first add allocates a slab
  std::uintptr_t limit_ = 0;
};

/// Open-addressed key -> component-state table (linear probing, Fibonacci
/// hash, power-of-two capacity, no deletion).  A serving replica does one
/// lookup per executed mutator at keyspace scale, so the probe sequence --
/// one cache line in the common case -- is the hot path; std::map's tree
/// walk and std::unordered_map's prime-modulo chaining both measured as the
/// top cost of the serving benchmark.  The table is never iterated: callers
/// track the key set separately, so no output depends on slot layout.
class KeyStateTable {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] adt::ObjectState* find(std::int64_t key) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.state == nullptr) return nullptr;
      if (s.key == key) return s.state;
    }
  }

  /// Inserts a NEW key (the caller has already checked find() == nullptr).
  /// `state` is a borrowed pointer; the caller's StateArena owns it.
  adt::ObjectState& insert(std::int64_t key, adt::ObjectState* state,
                           std::size_t expected_total) {
    if (size_ * 2 >= slots_.size()) grow(expected_total);
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.state == nullptr) {
        s.key = key;
        s.state = state;
        ++size_;
        return *s.state;
      }
    }
  }

 private:
  struct Slot {
    std::int64_t key = 0;
    adt::ObjectState* state = nullptr;  ///< borrowed from the arena; null == empty
  };

  [[nodiscard]] std::size_t probe_start(std::int64_t key) const {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }

  void grow(std::size_t expected_total) {
    std::size_t cap = 16;
    while (cap < 2 * (size_ + 1)) cap *= 2;
    // First growth jumps straight to the expected population (a serving
    // replica tends to materialize its whole shard of the keyspace), capped
    // so a barely-touched instance of a huge store stays cheap.
    if (slots_.empty()) {
      const std::size_t hint = std::min<std::size_t>(expected_total, std::size_t{1} << 16);
      while (cap < 2 * hint) cap *= 2;
    }
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(cap);
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (Slot& s : old) {
      if (s.state == nullptr) continue;
      for (std::size_t i = probe_start(s.key);; i = (i + 1) & mask_) {
        if (slots_[i].state == nullptr) {
          slots_[i] = std::move(s);
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

/// The store's sequential state: component states materialized per key on
/// first touch.  A key whose state is behaviourally the component's initial
/// state is OMITTED from canonical() and fingerprint_into(), so canonical
/// equality remains exactly behavioural equivalence regardless of which
/// keys happen to have been touched (e.g. read but never written).
///
/// Lookup is the open-addressed table above, but NOTHING iterates it:
/// canonical(), fingerprint_into() and the copy constructor walk `touched_`
/// (sorted or in insertion order) and do point lookups, so every output is
/// independent of slot layout.  Pure accessors on untouched keys are served
/// from one shared pristine component state and never materialize the key --
/// at keyspace scale that halves allocations on a mixed workload.
class KeyedState final : public adt::ObjectState {
 public:
  explicit KeyedState(const ShardedStore& owner) : owner_(&owner) {}

  KeyedState(const KeyedState& other)
      : adt::ObjectState(other), owner_(other.owner_), touched_(other.touched_) {
    for (const std::int64_t key : touched_) {
      states_.insert(key, arena_.add(*other.states_.find(key)), expected_keys());
    }
  }

  adt::Value apply(const std::string& op, const adt::Value& arg) override {
    return apply(owner_->op_id(op), arg);
  }

  adt::Value apply(adt::OpId id, const adt::Value& arg) override {
    const auto ka = owner_->split(arg);
    if (adt::ObjectState* state = states_.find(ka.key)) {
      return state->apply(ShardedStore::component_op(id), *ka.inner);
    }
    if (owner_->pure_accessor(id)) {
      return pristine().apply(ShardedStore::component_op(id), *ka.inner);
    }
    return materialize(ka.key).apply(ShardedStore::component_op(id), *ka.inner);
  }

  // Undo forwards to the key's component state.  A key first touched by a
  // trailed apply stays materialized after its undo; its state is then the
  // initial one, which canonical() and fingerprint_into() omit.
  adt::Value apply_trailed(adt::OpId id, const adt::Value& arg, adt::Trail& trail) override {
    const auto ka = owner_->split(arg);
    adt::ObjectState* state = states_.find(ka.key);
    if (state == nullptr) state = &materialize(ka.key);
    adt::Value ret = state->apply_trailed(ShardedStore::component_op(id), *ka.inner, trail);
    trail.push(ka.key);
    return ret;
  }

  void undo(adt::Trail& trail) override { states_.find(trail.pop())->undo(trail); }

  [[nodiscard]] std::unique_ptr<adt::ObjectState> clone() const override {
    return std::make_unique<KeyedState>(*this);
  }

  [[nodiscard]] std::string canonical() const override {
    std::ostringstream os;
    for (const std::int64_t key : sorted_keys()) {
      const std::string c = states_.find(key)->canonical();
      if (c == owner_->initial_canonical()) continue;
      os << key << '{' << c << '}';
    }
    return os.str();
  }

  void fingerprint_into(adt::FpHasher& h) const override {
    h.mix(13);  // sharded-store tag, distinct from every component tag
    std::vector<std::pair<std::int64_t, const adt::ObjectState*>> live;
    live.reserve(states_.size());
    for (const std::int64_t key : sorted_keys()) {
      const adt::ObjectState* state = states_.find(key);
      if (state->canonical() == owner_->initial_canonical()) continue;
      live.emplace_back(key, state);
    }
    h.mix(live.size());
    for (const auto& [key, state] : live) {
      h.mix(static_cast<std::uint64_t>(key));
      state->fingerprint_into(h);
    }
  }

 private:
  [[nodiscard]] std::size_t expected_keys() const {
    return static_cast<std::size_t>(owner_->num_keys() / owner_->num_shards());
  }

  [[nodiscard]] adt::ObjectState& materialize(std::int64_t key) {
    touched_.push_back(key);
    // Copy the (bound) initial template into the arena rather than asking
    // the component for a fresh heap state per key; clone_into preserves the
    // bound op table, so the copy behaves exactly like initial_state().
    if (!initial_) initial_ = owner_->component().initial_state();
    return states_.insert(key, arena_.add(*initial_), expected_keys());
  }

  /// Shared initial component state for accessor reads of untouched keys.
  /// Safe to share because pure accessors never mutate.  Deliberately not
  /// copied by the copy constructor (clones recreate it on demand).
  [[nodiscard]] adt::ObjectState& pristine() {
    if (!pristine_) pristine_ = owner_->component().initial_state();
    return *pristine_;
  }

  [[nodiscard]] std::vector<std::int64_t> sorted_keys() const {
    std::vector<std::int64_t> keys = touched_;
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  const ShardedStore* owner_;
  std::vector<std::int64_t> touched_;  ///< materialized keys, insertion order
  StateArena arena_;                   ///< owns every state in states_
  KeyStateTable states_;
  std::unique_ptr<adt::ObjectState> pristine_;
  std::unique_ptr<adt::ObjectState> initial_;  ///< clone template for materialize
};

}  // namespace

// ---------------------------------------------------------------------------
// ShardedStore
// ---------------------------------------------------------------------------

ShardedStore::ShardedStore(const adt::DataType& component, std::int64_t num_keys, int num_shards)
    : component_(component), num_keys_(num_keys), num_shards_(num_shards) {
  if (num_keys_ < 1) throw std::invalid_argument("ShardedStore: num_keys must be >= 1");
  if (num_shards_ < 1) throw std::invalid_argument("ShardedStore: num_shards must be >= 1");
  ops_.reserve(component_.ops().size());
  pure_accessor_.reserve(component_.ops().size());
  for (const auto& spec : component_.ops()) {
    // Same names in the same order, so store OpId index == component OpId
    // index; every store op carries the [key, inner] envelope.
    adt::OpSpec keyed_spec = spec;
    keyed_spec.takes_arg = true;
    pure_accessor_.push_back(spec.category == adt::OpCategory::kPureAccessor ? 1 : 0);
    ops_.push_back(std::move(keyed_spec));
  }
  initial_canonical_ = component_.initial_state()->canonical();
}

std::string ShardedStore::name() const {
  std::ostringstream os;
  os << "sharded(" << component_.name() << ", keys=" << num_keys_ << ", shards=" << num_shards_
     << ")";
  return os.str();
}

std::unique_ptr<adt::ObjectState> ShardedStore::make_initial_state() const {
  return std::make_unique<KeyedState>(*this);
}

std::vector<adt::Value> ShardedStore::sample_args(const std::string& op) const {
  std::vector<adt::Value> out;
  const std::int64_t last = num_keys_ - 1;
  for (const std::int64_t key : {std::int64_t{0}, last}) {
    if (key == last && last == 0) break;  // single-key store: don't duplicate
    for (auto& inner : component_.sample_args(op)) {
      out.push_back(keyed(key, std::move(inner)));
    }
  }
  return out;
}

int ShardedStore::shard_of(std::int64_t key, int num_shards) {
  // Fibonacci (multiplicative) hash: spreads dense key ranges evenly and is
  // a pure function of (key, num_shards) -- identical on every process.
  const std::uint64_t h = static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
  return static_cast<int>((h >> 33) % static_cast<std::uint64_t>(num_shards));
}

adt::Value ShardedStore::keyed(std::int64_t key, adt::Value inner) {
  return adt::Value{adt::ValueVec{adt::Value{key}, std::move(inner)}};
}

ShardedStore::KeyedArg ShardedStore::split(const adt::Value& arg) const {
  if (!arg.is_vec() || arg.as_vec().size() != 2 || !arg.as_vec()[0].is_int()) {
    throw std::invalid_argument("ShardedStore: argument must be [key, inner-arg], got " +
                                arg.to_string());
  }
  const auto& vec = arg.as_vec();
  const std::int64_t key = vec[0].as_int();
  if (key < 0 || key >= num_keys_) {
    throw std::invalid_argument("ShardedStore: key " + std::to_string(key) + " outside [0, " +
                                std::to_string(num_keys_) + ")");
  }
  return KeyedArg{key, &vec[1]};
}

// ---------------------------------------------------------------------------
// ShardedServingProcess
// ---------------------------------------------------------------------------

/// Context adapter stamping the owning shard into Payload::chan on every
/// outgoing message and timer (mirroring the tuple composite's SubContext);
/// the shard fan-out is single-level, so the one chan field suffices and no
/// envelope allocation exists anywhere on the serving path.
class ShardedServingProcess::ShardContext final : public sim::Context {
 public:
  ShardContext(sim::Context& outer, int shard) : outer_(outer), shard_(shard) {}

  [[nodiscard]] sim::ProcId self() const override { return outer_.self(); }
  [[nodiscard]] int n() const override { return outer_.n(); }
  [[nodiscard]] const sim::ModelParams& params() const override { return outer_.params(); }
  [[nodiscard]] sim::Time local_time() const override { return outer_.local_time(); }

  void send(sim::ProcId dst, sim::Payload payload) override {
    outer_.send(dst, stamp(std::move(payload)));
  }
  void broadcast(sim::Payload payload) override { outer_.broadcast(stamp(std::move(payload))); }
  sim::TimerId set_timer(sim::Time delay, sim::Payload data) override {
    return outer_.set_timer(delay, stamp(std::move(data)));
  }
  void cancel_timer(sim::TimerId id) override { outer_.cancel_timer(id); }
  void respond(adt::Value ret) override { outer_.respond(std::move(ret)); }

 private:
  [[nodiscard]] sim::Payload stamp(sim::Payload p) const {
    if (p.chan != sim::Payload::kNoChan) {
      throw std::logic_error("sharded store: payload channel already in use");
    }
    p.chan = static_cast<std::uint32_t>(shard_);
    return p;
  }

  sim::Context& outer_;
  int shard_;
};

ShardedServingProcess::ShardedServingProcess(const ShardedStore& store, const TimingPolicy& timing)
    : store_(store) {
  instances_.reserve(static_cast<std::size_t>(store.num_shards()));
  for (int s = 0; s < store.num_shards(); ++s) {
    // Every shard instance runs against the store type itself: its replica
    // is a KeyedState that materializes exactly the keys routed here.
    instances_.push_back(std::make_unique<AlgorithmOneProcess>(store, timing));
  }
}

void ShardedServingProcess::on_invoke(sim::Context& ctx, const std::string& op,
                                      const adt::Value& arg) {
  on_invoke_id(ctx, store_.op_id(op), op, arg);
}

void ShardedServingProcess::on_invoke_id(sim::Context& ctx, adt::OpId id, const std::string& op,
                                         const adt::Value& arg) {
  const auto ka = store_.split(arg);
  const int shard = store_.shard_of(ka.key);
  ShardContext sub(ctx, shard);
  instances_[static_cast<std::size_t>(shard)]->on_invoke_id(sub, id, op, arg);
}

void ShardedServingProcess::on_message(sim::Context& ctx, sim::ProcId src,
                                       const sim::Payload& payload) {
  const auto shard = static_cast<int>(payload.chan);
  sim::Payload inner = payload;  // strip the channel before forwarding
  inner.chan = sim::Payload::kNoChan;
  ShardContext sub(ctx, shard);
  instances_.at(static_cast<std::size_t>(shard))->on_message(sub, src, inner);
}

void ShardedServingProcess::on_timer(sim::Context& ctx, sim::TimerId id,
                                     const sim::Payload& data) {
  const auto shard = static_cast<int>(data.chan);
  sim::Payload inner = data;
  inner.chan = sim::Payload::kNoChan;
  ShardContext sub(ctx, shard);
  instances_.at(static_cast<std::size_t>(shard))->on_timer(sub, id, inner);
}

std::string ShardedServingProcess::state_canonical() const {
  std::ostringstream os;
  for (std::size_t s = 0; s < instances_.size(); ++s) {
    os << 's' << s << '{' << instances_[s]->state_canonical() << '}';
  }
  return os.str();
}

void ShardedServingProcess::set_execution_logging(bool on) {
  for (auto& instance : instances_) instance->set_execution_logging(on);
}

// ---------------------------------------------------------------------------
// History projections
// ---------------------------------------------------------------------------

std::vector<sim::OpRecord> restrict_to_key(const std::vector<sim::OpRecord>& ops,
                                           const ShardedStore& store, std::int64_t key) {
  std::vector<sim::OpRecord> out;
  for (auto op : ops) {
    const auto ka = store.split(op.arg);
    if (ka.key != key) continue;
    // Copy before overwriting: ka.inner points into op.arg's own vector.
    adt::Value inner = *ka.inner;
    op.arg = std::move(inner);
    out.push_back(std::move(op));
  }
  return out;
}

std::vector<sim::OpRecord> restrict_to_shard(const std::vector<sim::OpRecord>& ops,
                                             const ShardedStore& store, int shard) {
  std::vector<sim::OpRecord> out;
  for (const auto& op : ops) {
    if (store.shard_of(store.split(op.arg).key) != shard) continue;
    out.push_back(op);
  }
  return out;
}

}  // namespace lintime::core
