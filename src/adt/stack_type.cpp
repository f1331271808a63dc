#include "adt/stack_type.hpp"

#include <sstream>
#include <stdexcept>

#include "adt/state_base.hpp"
#include "adt/trail.hpp"

namespace lintime::adt {

namespace {

enum : std::uint32_t { kPushIdx = 0, kPopIdx = 1, kPeekIdx = 2 };

const OpTable& stack_table() {
  static const OpTable kTable{{
      {StackType::kPush, OpCategory::kPureMutator, /*takes_arg=*/true},
      {StackType::kPop, OpCategory::kMixed, /*takes_arg=*/false},
      {StackType::kPeek, OpCategory::kPureAccessor, /*takes_arg=*/false},
  }};
  return kTable;
}

constexpr std::uint64_t kFpTag = 4;

enum : std::int64_t { kUndoNothing = 0, kUndoPush = 1, kUndoPop = 2 };  // trail tags

class StackState final : public StateBase<StackState> {
 public:
  Value apply(const std::string& op, const Value& arg) override {
    const OpId id = stack_table().find(op);
    if (!id.valid()) throw std::invalid_argument("stack: unknown op " + op);
    return apply(id, arg);
  }

  Value apply(OpId id, const Value& arg) override {
    switch (id.index()) {
      case kPushIdx:
        items_.push_back(arg.as_int());
        return Value::nil();
      case kPopIdx: {
        if (items_.empty()) return Value::nil();
        const std::int64_t top = items_.back();
        items_.pop_back();
        return Value{top};
      }
      case kPeekIdx:
        if (items_.empty()) return Value::nil();
        return Value{items_.back()};
      default:
        throw std::invalid_argument("stack: unknown op id");
    }
  }

  // O(1) undo: a push is undone by dropping the top, a pop that returned a
  // value by pushing it back.
  Value apply_trailed(OpId id, const Value& arg, Trail& trail) override {
    Value ret = apply(id, arg);
    if (id.index() == kPushIdx) {
      trail.push(kUndoPush);
    } else if (id.index() == kPopIdx && ret.is_int()) {
      trail.push(ret.as_int());
      trail.push(kUndoPop);
    } else {
      trail.push(kUndoNothing);
    }
    return ret;
  }

  void undo(Trail& trail) override {
    switch (trail.pop()) {
      case kUndoPush:
        items_.pop_back();
        break;
      case kUndoPop:
        items_.push_back(trail.pop());
        break;
      default:
        break;
    }
  }

  [[nodiscard]] std::string canonical() const override {
    std::ostringstream os;
    os << "stack:";
    for (const auto v : items_) os << v << ',';
    return os.str();
  }

  void fingerprint_into(FpHasher& h) const override {
    h.mix(kFpTag);
    h.mix(items_.size());
    for (const auto v : items_) h.mix_int(v);
  }

 private:
  std::vector<std::int64_t> items_;
};

}  // namespace

const std::vector<OpSpec>& StackType::ops() const { return stack_table().specs(); }

const OpTable& StackType::table() const { return stack_table(); }

std::unique_ptr<ObjectState> StackType::make_initial_state() const {
  return std::make_unique<StackState>();
}

}  // namespace lintime::adt
