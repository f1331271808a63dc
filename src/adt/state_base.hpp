#pragma once
// CRTP helper providing ObjectState::clone via the copy constructor and a
// snapshot apply_trailed/undo via copy assignment and swap, so each concrete
// state only implements apply() and canonical() (plus, optionally, the OpId
// apply, fingerprint_into and an O(1) apply_trailed/undo).

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "adt/data_type.hpp"
#include "adt/trail.hpp"

namespace lintime::adt {

template <typename Derived>
class StateBase : public ObjectState {
 public:
  [[nodiscard]] std::unique_ptr<ObjectState> clone() const final {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }

  [[nodiscard]] std::size_t self_size() const final { return sizeof(Derived); }
  [[nodiscard]] std::size_t self_align() const final { return alignof(Derived); }

  ObjectState* clone_into(void* mem) const final {
    return new (mem) Derived(static_cast<const Derived&>(*this));
  }

  /// Snapshot default: saves a copy of this state in the trail's next slot
  /// (copy-assigned when the slot already holds a Derived, so a steady-state
  /// probe costs one copy and no allocation), then applies.
  Value apply_trailed(OpId id, const Value& arg, Trail& trail) override {
    const auto& self = static_cast<const Derived&>(*this);
    std::unique_ptr<ObjectState>& slot = trail.push_snapshot();
    if (auto* saved = dynamic_cast<Derived*>(slot.get())) {
      *saved = self;
    } else {
      slot = clone();
    }
    return apply(id, arg);
  }

  /// Swaps the snapshot back in: node-based containers trade their roots
  /// without copying, and the slot keeps the discarded state's storage for
  /// the next snapshot to overwrite.
  void undo(Trail& trail) override {
    using std::swap;
    swap(static_cast<Derived&>(*this), static_cast<Derived&>(trail.pop_snapshot()));
  }
};

}  // namespace lintime::adt
