#pragma once
// Undo trail for probing operations on one live ObjectState.
//
// The linearizability search tries each candidate operation on the current
// state and must put the state back when the candidate fails.  Instead of
// copying the state per probe, it applies the candidate with
// ObjectState::apply_trailed(), which records on a Trail what undo() needs to
// revert that one apply.  This is the trailing of constraint solvers such as
// chuffed (trailed_cst_list.h, sparse_set.h): save what a change overwrites,
// restore it on backtrack, never copy the whole structure.
//
// The trail belongs to the search, not to the state, so states stay
// value-like.  It holds two kinds of entries, both strictly LIFO:
//   * words -- states with an O(1) inverse (queue, stack, register) push the
//     integers they removed or overwrote, plus a tag saying which;
//   * snapshots -- states without one (the StateBase default) save a full
//     copy in a slot.  Slots are kept when popped, so the next snapshot at
//     the same depth copy-assigns into the old one instead of allocating.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "adt/data_type.hpp"

namespace lintime::adt {

class Trail {
 public:
  void push(std::int64_t word) { words_.push_back(word); }

  [[nodiscard]] std::int64_t pop() {
    const std::int64_t word = words_.back();
    words_.pop_back();
    return word;
  }

  /// Claims the next snapshot slot.  The slot may still hold an earlier
  /// snapshot, of any dynamic type, for the caller to overwrite in place.
  [[nodiscard]] std::unique_ptr<ObjectState>& push_snapshot() {
    if (snapshot_depth_ == snapshots_.size()) snapshots_.emplace_back();
    return snapshots_[snapshot_depth_++];
  }

  /// Releases the most recent snapshot.  The slot keeps it for reuse, so the
  /// caller may move from it or swap with it.
  [[nodiscard]] ObjectState& pop_snapshot() { return *snapshots_[--snapshot_depth_]; }

  /// True when every trailed apply has been undone.
  [[nodiscard]] bool empty() const { return words_.empty() && snapshot_depth_ == 0; }

 private:
  std::vector<std::int64_t> words_;
  std::vector<std::unique_ptr<ObjectState>> snapshots_;
  std::size_t snapshot_depth_ = 0;  ///< slots in use; the rest are spare
};

}  // namespace lintime::adt
