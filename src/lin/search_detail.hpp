#pragma once
// Internal: the one memoized Wing-Gong search behind every checker.
//
// Search<Step> is a DFS over "minimal" candidates (operations none of whose
// predecessors are still unplaced).  It is parameterized by two things:
//   * the precedence relation, prebuilt as a PrecedenceMatrix: real-time
//     order for linearizability (realtime_order), program order for
//     sequential consistency;
//   * the outcome step, which tries one candidate on the current state and
//     hands each state it may lead to on to the recursion.  ApplyStep serves
//     deterministic types: one outcome, computed by apply() on the live state
//     and undone from a trail on backtrack.  The non-deterministic checker's
//     step enumerates NondetDataType::outcomes() instead.
// Dead nodes are memoized on (placed set, state) by StateMemo.

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adt/data_type.hpp"
#include "adt/trail.hpp"
#include "lin/checker.hpp"
#include "sim/run_record.hpp"

namespace lintime::lin::detail {

/// Number of 64-bit words needed for an n-operation placed bitset.
[[nodiscard]] constexpr std::size_t placed_word_count(std::size_t n) { return (n + 63) / 64; }

inline void set_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i >> 6U] |= std::uint64_t{1} << (i & 63U);
}

inline void clear_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i >> 6U] &= ~(std::uint64_t{1} << (i & 63U));
}

/// The precedence relation both linearizability checkers place on recorded
/// operations: program order within a process (invocation order, uid breaks
/// exact-boundary ties where a response and the next invocation share a real
/// time) and strict real-time order across processes.
[[nodiscard]] inline bool realtime_precedes(const sim::OpRecord& a, const sim::OpRecord& b) {
  if (a.proc == b.proc) {
    if (a.invoke_real != b.invoke_real) return a.invoke_real < b.invoke_real;
    return a.uid < b.uid;
  }
  return a.response_real < b.invoke_real;
}

/// Throws std::invalid_argument naming the first incomplete record: the
/// search needs every response.
inline void require_complete(const std::vector<sim::OpRecord>& ops) {
  for (const auto& op : ops) {
    if (!op.complete()) {
      throw std::invalid_argument("checker: incomplete instance " + op.op);
    }
  }
}

/// Precedence adjacency packed into 64-bit rows (n^2 bits instead of n^2
/// bytes), with word-wise successor-count updates when an operation is
/// placed or unplaced, and a bitset of the operations whose predecessors are
/// all placed.
class PrecedenceMatrix {
 public:
  /// precedes_fn(i, j) == true forces i before j; the relation must be
  /// acyclic.
  template <typename PrecedesFn>
  PrecedenceMatrix(std::size_t n, const PrecedesFn& precedes_fn)
      : n_(n),
        words_(placed_word_count(n)),
        rows_(n * words_, 0),
        pred_count_(n, 0),
        ready_(words_, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && precedes_fn(i, j)) {
          rows_[i * words_ + (j >> 6U)] |= std::uint64_t{1} << (j & 63U);
          ++pred_count_[j];
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (pred_count_[j] == 0) set_bit(ready_, j);
    }
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Word `w` of the ready set: bit b is set iff every strict predecessor of
  /// operation 64w + b has been placed.
  [[nodiscard]] std::uint64_t ready_word(std::size_t w) const { return ready_[w]; }

  /// Placing `i` releases one pending predecessor from every successor j.
  void place(std::size_t i) { update_row(i, -1); }
  void unplace(std::size_t i) { update_row(i, +1); }

 private:
  void update_row(std::size_t i, int delta) {
    const std::uint64_t* row = rows_.data() + i * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = row[w];
      while (bits != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(bits));
        const int count = pred_count_[(w << 6U) + b] += delta;
        const std::uint64_t bit = std::uint64_t{1} << b;
        ready_[w] = count == 0 ? ready_[w] | bit : ready_[w] & ~bit;
        bits &= bits - 1;
      }
    }
  }

  std::size_t n_;
  std::size_t words_;
  std::vector<std::uint64_t> rows_;
  std::vector<int> pred_count_;
  std::vector<std::uint64_t> ready_;
};

/// realtime_precedes over `ops`, the relation linearizability respects.
[[nodiscard]] inline PrecedenceMatrix realtime_order(const std::vector<sim::OpRecord>& ops) {
  return {ops.size(),
          [&ops](std::size_t i, std::size_t j) { return realtime_precedes(ops[i], ops[j]); }};
}

/// Dead-node memo keyed on the packed {placed-bitset words, 128-bit state
/// fingerprint}: two search nodes with the same placed set and equivalent
/// state have identical sub-futures, so each pair is explored once.
///
/// Collision safety: each entry keeps a clone() of the first dead state
/// stored under its key, and a lookup only prunes when that state's
/// canonical() matches the probing state's.  canonical() therefore runs
/// only on a key match.  A fingerprint collision (distinct states, equal
/// fingerprints) costs re-exploration of one subtree, never a wrong
/// verdict, and cannot evict the entry already stored under the key.
class StateMemo {
 public:
  [[nodiscard]] bool known_dead(const std::vector<std::uint64_t>& placed,
                                const adt::Fingerprint& fp, const adt::ObjectState& state) {
    if (dead_.empty()) return false;  // most nodes of a passing search come before any dead one
    build_key(placed, fp);
    const auto it = dead_.find(scratch_key_);
    if (it == dead_.end()) return false;
    if (it->second->canonical() == state.canonical()) {
      ++hits_;
      return true;
    }
    ++collisions_;
    return false;
  }

  void mark_dead(const std::vector<std::uint64_t>& placed, const adt::Fingerprint& fp,
                 const adt::ObjectState& state) {
    build_key(placed, fp);
    const auto [it, inserted] = dead_.try_emplace(scratch_key_);
    if (inserted) it->second = state.clone();
  }

  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t collisions() const { return collisions_; }

 private:
  struct KeyHash {
    std::size_t operator()(const std::vector<std::uint64_t>& key) const noexcept {
      // The key's tail is the already well-mixed 128-bit fingerprint; fold
      // the placed words in boost-style.
      std::size_t h = 0;
      for (const auto w : key) h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6U) + (h >> 2U);
      return h;
    }
  };

  void build_key(const std::vector<std::uint64_t>& placed, const adt::Fingerprint& fp) {
    scratch_key_.assign(placed.begin(), placed.end());
    scratch_key_.push_back(fp.hi);
    scratch_key_.push_back(fp.lo);
  }

  std::vector<std::uint64_t> scratch_key_;  ///< reused across lookups: no per-node allocation
  std::unordered_map<std::vector<std::uint64_t>, std::unique_ptr<adt::ObjectState>, KeyHash>
      dead_;
  std::size_t hits_ = 0;        ///< lookups pruned (key and canonical both matched)
  std::size_t collisions_ = 0;  ///< key matched but canonical differed (fingerprint collision)
};

/// Saturating node counter: large histories can expand more nodes than fit a
/// statistic without the count wrapping to a misleading small number.
class NodeCounter {
 public:
  void bump() {
    if (count_ != SIZE_MAX) ++count_;
  }
  [[nodiscard]] std::size_t value() const { return count_; }

 private:
  std::size_t count_ = 0;
};

/// Outcome step for deterministic types: a candidate's one outcome is what
/// apply() returns on the live state.  Pure accessors leave the state
/// unchanged and are applied plainly; every other probe goes through
/// apply_trailed() and is undone on backtrack.
class ApplyStep {
 public:
  ApplyStep(const adt::DataType& type, const std::vector<sim::OpRecord>& ops) : ops_(&ops) {
    // Resolve every record's operation name to its interned id once; the
    // probe loop then dispatches on integers only.
    const adt::OpTable& table = type.table();
    ids_.reserve(ops.size());
    pure_accessor_.reserve(ops.size());
    for (const auto& op : ops) {
      adt::OpId id = table.find(op.op);
      if (!id.valid()) id = type.op_id(op.op);  // throws, naming the unknown op
      ids_.push_back(id);
      pure_accessor_.push_back(table.spec(id).category == adt::OpCategory::kPureAccessor);
    }
  }

  /// Tries record `i` on `state`; if its recorded return is legal, calls
  /// visit(state) on the successor.  Returns true as soon as a visit does,
  /// leaving the state advanced; otherwise leaves `state` as it was.
  template <typename Visit>
  bool expand(adt::ObjectState& state, std::size_t i, Visit&& visit) {
    const sim::OpRecord& op = (*ops_)[i];
    if (pure_accessor_[i]) return state.apply(ids_[i], op.arg) == op.ret && visit(state);
    if (state.apply_trailed(ids_[i], op.arg, trail_) == op.ret && visit(state)) return true;
    state.undo(trail_);
    return false;
  }

 private:
  const std::vector<sim::OpRecord>* ops_;
  std::vector<adt::OpId> ids_;
  std::vector<char> pure_accessor_;  ///< per record: declared kPureAccessor
  adt::Trail trail_;
};

/// The memoized DFS.  Candidates are tried in record order and a step's
/// outcomes in the order it yields them; the witness is the first complete
/// placement found.
template <typename Step>
class Search {
 public:
  Search(PrecedenceMatrix prec, Step step, bool memoize)
      : n_(prec.size()),
        prec_(std::move(prec)),
        step_(std::move(step)),
        memoize_(memoize),
        placed_(placed_word_count(n_), 0) {}

  /// Searches from `initial`, which the search mutates.  Call once.
  CheckResult run(adt::ObjectState& initial) {
    CheckResult result;
    result.linearizable = dfs(initial, 0);
    result.witness = std::move(witness_);
    result.nodes_expanded = nodes_.value();
    result.memo_hits = memo_.hits();
    result.memo_collisions = memo_.collisions();
    return result;
  }

 private:
  bool dfs(adt::ObjectState& state, std::size_t placed_count) {
    if (placed_count == n_) return true;
    nodes_.bump();

    adt::Fingerprint fp;
    if (memoize_) {
      fp = state.fingerprint();
      if (memo_.known_dead(placed_, fp, state)) return false;
    }

    // Candidates: unplaced operations whose predecessors are all placed, in
    // index order.  A failed branch restores both bitsets before the next
    // candidate, so each word can be read once.
    for (std::size_t w = 0; w < placed_.size(); ++w) {
      for (std::uint64_t cands = prec_.ready_word(w) & ~placed_[w]; cands != 0;
           cands &= cands - 1) {
        const std::size_t i = (w << 6U) + static_cast<std::size_t>(std::countr_zero(cands));
        const bool found = step_.expand(state, i, [&](adt::ObjectState& next) {
          set_bit(placed_, i);
          prec_.place(i);
          witness_.push_back(i);
          if (dfs(next, placed_count + 1)) return true;
          witness_.pop_back();
          prec_.unplace(i);
          clear_bit(placed_, i);
          return false;
        });
        if (found) return true;
      }
    }

    if (memoize_) memo_.mark_dead(placed_, fp, state);
    return false;
  }

  std::size_t n_;
  PrecedenceMatrix prec_;
  Step step_;
  bool memoize_;
  std::vector<std::uint64_t> placed_;
  std::vector<std::size_t> witness_;
  StateMemo memo_;
  NodeCounter nodes_;
};

}  // namespace lintime::lin::detail
