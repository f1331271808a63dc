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

/// Bump allocator for the rows of one directory.  A million-key serving run
/// materializes ~10^6 states per replica; one unique_ptr each means a
/// million malloc/free pairs (the free half lands in the timed region at
/// teardown), which profiled as the largest remaining libc cost after the
/// payload refactor.  Rows are carved from 64 KiB slabs instead; the
/// directory destroys the states it placed.  Bump order follows row order,
/// so layout -- like everything else here -- is deterministic, and nothing
/// ever reads it anyway.
class StateArena {
 public:
  /// `bytes` of uninitialized storage aligned to `align` (a power of two).
  [[nodiscard]] std::byte* allocate(std::size_t bytes, std::size_t align) {
    auto at = round_up(cursor_, align);
    if (at + bytes > limit_) {
      const std::size_t slab = std::max<std::size_t>(kSlabBytes, bytes + align);
      slabs_.push_back(std::make_unique<std::byte[]>(slab));
      cursor_ = reinterpret_cast<std::uintptr_t>(slabs_.back().get());
      limit_ = cursor_ + slab;
      at = round_up(cursor_, align);
    }
    cursor_ = at + bytes;
    return reinterpret_cast<std::byte*>(at);
  }

  [[nodiscard]] static std::uintptr_t round_up(std::uintptr_t at, std::size_t align) {
    return (at + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
  }

 private:
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::uintptr_t cursor_ = 1;  ///< 1 > limit_: first allocate() takes a slab
  std::uintptr_t limit_ = 0;
};

/// Open-addressed key -> row table (linear probing, Fibonacci hash,
/// power-of-two capacity, at most 3/4 full, no deletion).  A serving replica
/// does one lookup per executed mutator at keyspace scale, so the probe
/// sequence -- one cache line in the common case -- is the hot path;
/// std::map's tree walk and std::unordered_map's prime-modulo chaining both
/// measured as the top cost of the serving benchmark.  The table grows with
/// its population and is never iterated, so no output depends on slot
/// layout.
class KeyStateTable {
 public:
  /// The row of `key`, or nullptr.
  [[nodiscard]] adt::ObjectState** find(std::int64_t key) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.row == nullptr) return nullptr;
      if (s.key == key) return s.row;
    }
  }

  /// Inserts a NEW key (the caller has already checked find() == nullptr).
  void insert(std::int64_t key, adt::ObjectState** row) {
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();
    ++size_;
    place(Slot{key, row});
  }

 private:
  struct Slot {
    std::int64_t key = 0;
    adt::ObjectState** row = nullptr;  ///< null == empty
  };

  [[nodiscard]] std::size_t probe_start(std::int64_t key) const {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }

  void place(const Slot& slot) {
    std::size_t i = probe_start(slot.key);
    while (slots_[i].row != nullptr) i = (i + 1) & mask_;
    slots_[i] = slot;
  }

  void grow() {
    const std::size_t cap = slots_.empty() ? 16 : 2 * slots_.size();
    std::vector<Slot> old(cap);
    old.swap(slots_);
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (const Slot& s : old) {
      if (s.row != nullptr) place(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace

/// One shard's key -> row directory: a row is `columns` component states of
/// one key, one per replica, created together.  A row block in the arena is
/// the array of the states' addresses followed by the states themselves, so
/// the replicas executing one mutator touch one slot and a few adjacent
/// cache lines.  Row order (creation order) is the only order anything
/// iterates in.
class KeyRows {
 public:
  struct Row {
    std::int64_t key;
    adt::ObjectState** states;  ///< `columns` entries
  };

  KeyRows(const ShardedStore& owner, int columns) : owner_(owner), columns_(columns) {}
  KeyRows(const KeyRows&) = delete;
  KeyRows& operator=(const KeyRows&) = delete;

  ~KeyRows() {
    for (const Row& row : rows_) {
      for (int c = 0; c < columns_; ++c) {
        adt::ObjectState* s = row.states[c];
        if (s->self_size() == 0) {
          delete s;  // heap fallback (see add)
        } else {
          s->~ObjectState();
        }
      }
    }
  }

  [[nodiscard]] const ShardedStore& owner() const { return owner_; }
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

  /// The row of `key`, or nullptr.
  [[nodiscard]] adt::ObjectState** find(std::int64_t key) const { return table_.find(key); }

  /// Creates the row of a NEW key with every column a copy of `tmpl`.
  /// States that publish their footprint (self_size() > 0, i.e. anything
  /// deriving StateBase) are placement-copied into the row block; string-only
  /// custom states fall back to one heap block each.
  adt::ObjectState** add(std::int64_t key, const adt::ObjectState& tmpl) {
    const auto columns = static_cast<std::size_t>(columns_);
    const std::size_t size = tmpl.self_size();
    const std::size_t align = std::max(tmpl.self_align(), alignof(adt::ObjectState*));
    const std::size_t head = StateArena::round_up(columns * sizeof(adt::ObjectState*), align);
    const std::size_t stride = StateArena::round_up(size, align);
    std::byte* block = arena_.allocate(head + columns * stride, align);
    auto** states = reinterpret_cast<adt::ObjectState**>(block);
    for (std::size_t c = 0; c < columns; ++c) {
      states[c] = size == 0 ? tmpl.clone().release() : tmpl.clone_into(block + head + c * stride);
    }
    rows_.push_back(Row{key, states});
    table_.insert(key, states);
    return states;
  }

  /// add(key, initial state).
  adt::ObjectState** add(std::int64_t key) { return add(key, initial()); }

  /// The component's initial state: the template of new rows, and what
  /// pure accessors on keys without a row read.  Safe to share because pure
  /// accessors never mutate.
  [[nodiscard]] adt::ObjectState& initial() {
    if (!initial_) initial_ = owner_.component().initial_state();
    return *initial_;
  }

 private:
  const ShardedStore& owner_;
  int columns_;
  StateArena arena_;  ///< holds every row block
  KeyStateTable table_;
  std::vector<Row> rows_;  ///< creation order
  std::unique_ptr<adt::ObjectState> initial_;
};

namespace {

/// The store's sequential state: one column of a KeyRows directory.  A
/// standalone state (make_initial_state(), clone()) owns a one-column
/// directory; a serving replica is a view of its process's column of a
/// shared one.  A key whose state is behaviourally the component's initial
/// state -- no row, or a row its column has not changed -- is OMITTED from
/// canonical() and fingerprint_into(), so canonical equality remains exactly
/// behavioural equivalence regardless of which keys happen to have rows.
///
/// canonical() and fingerprint_into() sort the directory's keys, so every
/// output is independent of slot layout and row order.  Pure accessors on
/// keys without a row are served from the directory's initial state and
/// never create the row -- at keyspace scale that halves allocations on a
/// mixed workload.
class KeyedState final : public adt::ObjectState {
 public:
  explicit KeyedState(const ShardedStore& owner)
      : own_(std::make_unique<KeyRows>(owner, 1)), rows_(own_.get()) {}

  /// Column `column` of `rows`, which must outlive the view.
  KeyedState(KeyRows& rows, int column) : rows_(&rows), column_(column) {}

  /// A standalone copy of `other`'s column.
  KeyedState(const KeyedState& other)
      : adt::ObjectState(other), own_(std::make_unique<KeyRows>(other.owner(), 1)),
        rows_(own_.get()) {
    for (const KeyRows::Row& row : other.rows_->rows()) {
      rows_->add(row.key, *row.states[other.column_]);
    }
  }

  adt::Value apply(const std::string& op, const adt::Value& arg) override {
    return apply(owner().op_id(op), arg);
  }

  adt::Value apply(adt::OpId id, const adt::Value& arg) override {
    const auto ka = owner().split(arg);
    if (adt::ObjectState** row = rows_->find(ka.key)) {
      return row[column_]->apply(ShardedStore::component_op(id), *ka.inner);
    }
    if (owner().pure_accessor(id)) {
      return rows_->initial().apply(ShardedStore::component_op(id), *ka.inner);
    }
    return rows_->add(ka.key)[column_]->apply(ShardedStore::component_op(id), *ka.inner);
  }

  // Undo forwards to the key's component state.  A key first touched by a
  // trailed apply keeps its row after the undo; its state is then the
  // initial one, which canonical() and fingerprint_into() omit.
  adt::Value apply_trailed(adt::OpId id, const adt::Value& arg, adt::Trail& trail) override {
    const auto ka = owner().split(arg);
    adt::ObjectState** row = rows_->find(ka.key);
    if (row == nullptr) row = rows_->add(ka.key);
    adt::Value ret = row[column_]->apply_trailed(ShardedStore::component_op(id), *ka.inner, trail);
    trail.push(ka.key);
    return ret;
  }

  void undo(adt::Trail& trail) override { rows_->find(trail.pop())[column_]->undo(trail); }

  [[nodiscard]] std::unique_ptr<adt::ObjectState> clone() const override {
    return std::make_unique<KeyedState>(*this);
  }

  [[nodiscard]] std::string canonical() const override {
    std::ostringstream os;
    for (const auto& [key, state] : live()) os << key << '{' << state->canonical() << '}';
    return os.str();
  }

  void fingerprint_into(adt::FpHasher& h) const override {
    h.mix(13);  // sharded-store tag, distinct from every component tag
    const auto states = live();
    h.mix(states.size());
    for (const auto& [key, state] : states) {
      h.mix(static_cast<std::uint64_t>(key));
      state->fingerprint_into(h);
    }
  }

 private:
  [[nodiscard]] const ShardedStore& owner() const { return rows_->owner(); }

  /// This column's non-initial states, by ascending key.
  [[nodiscard]] std::vector<std::pair<std::int64_t, const adt::ObjectState*>> live() const {
    std::vector<std::pair<std::int64_t, const adt::ObjectState*>> out;
    for (const KeyRows::Row& row : rows_->rows()) {
      const adt::ObjectState* state = row.states[column_];
      if (state->canonical() != owner().initial_canonical()) out.emplace_back(row.key, state);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  std::unique_ptr<KeyRows> own_;  ///< set for a standalone state
  KeyRows* rows_;
  int column_ = 0;
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
// ShardedReplicas
// ---------------------------------------------------------------------------

ShardedReplicas::ShardedReplicas(const ShardedStore& store, int columns) : columns_(columns) {
  if (columns_ < 1) throw std::invalid_argument("ShardedReplicas: columns must be >= 1");
  shards_.reserve(static_cast<std::size_t>(store.num_shards()));
  for (int s = 0; s < store.num_shards(); ++s) {
    shards_.push_back(std::make_unique<KeyRows>(store, columns_));
  }
}

ShardedReplicas::~ShardedReplicas() = default;

std::unique_ptr<adt::ObjectState> ShardedReplicas::replica(int shard, int column) {
  if (column < 0 || column >= columns_) {
    throw std::out_of_range("ShardedReplicas: column " + std::to_string(column) +
                            " outside [0, " + std::to_string(columns_) + ")");
  }
  return std::make_unique<KeyedState>(*shards_.at(static_cast<std::size_t>(shard)), column);
}

// ---------------------------------------------------------------------------
// ShardedServingProcess
// ---------------------------------------------------------------------------

ShardedServingProcess::ShardedServingProcess(const ShardedStore& store, const TimingPolicy& timing,
                                             ShardedReplicas& replicas, int column)
    : MultiplexedProcess(store), store_(store) {
  for (int s = 0; s < store.num_shards(); ++s) {
    // Every shard instance runs against the store type itself: its replica
    // is its column of the shard's rows, which hold exactly the keys routed
    // here.
    add_channel(std::make_unique<AlgorithmOneProcess>(store, timing, replicas.replica(s, column)));
  }
}

ShardedServingProcess::ShardedServingProcess(const ShardedStore& store, const TimingPolicy& timing)
    : MultiplexedProcess(store), store_(store) {
  for (int s = 0; s < store.num_shards(); ++s) {
    add_channel(std::make_unique<AlgorithmOneProcess>(store, timing));
  }
}

MultiplexedProcess::Route ShardedServingProcess::route(adt::OpId id,
                                                       const adt::Value& arg) const {
  // The instances run against the store type, so the id passes through.
  return Route{static_cast<std::size_t>(store_.shard_of(store_.split(arg).key)), id};
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
