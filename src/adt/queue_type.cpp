#include "adt/queue_type.hpp"

#include <sstream>
#include <stdexcept>

#include "adt/state_base.hpp"
#include "adt/trail.hpp"

namespace lintime::adt {

namespace {

// OpId indices into the table below; keep in sync with the spec order.
enum : std::uint32_t { kEnqueueIdx = 0, kDequeueIdx = 1, kPeekIdx = 2 };

const OpTable& queue_table() {
  static const OpTable kTable{{
      {QueueType::kEnqueue, OpCategory::kPureMutator, /*takes_arg=*/true},
      {QueueType::kDequeue, OpCategory::kMixed, /*takes_arg=*/false},
      {QueueType::kPeek, OpCategory::kPureAccessor, /*takes_arg=*/false},
  }};
  return kTable;
}

constexpr std::uint64_t kFpTag = 3;  // distinct per shipped type

enum : std::int64_t { kUndoNothing = 0, kUndoEnqueue = 1, kUndoDequeue = 2 };  // trail tags

class QueueState final : public StateBase<QueueState> {
 public:
  Value apply(const std::string& op, const Value& arg) override {
    const OpId id = queue_table().find(op);
    if (!id.valid()) throw std::invalid_argument("queue: unknown op " + op);
    return apply(id, arg);
  }

  Value apply(OpId id, const Value& arg) override {
    switch (id.index()) {
      case kEnqueueIdx:
        items_.push_back(arg.as_int());
        return Value::nil();
      case kDequeueIdx: {
        if (items_.empty()) return Value::nil();
        const std::int64_t head = items_.front();
        items_.pop_front();
        return Value{head};
      }
      case kPeekIdx:
        if (items_.empty()) return Value::nil();
        return Value{items_.front()};
      default:
        throw std::invalid_argument("queue: unknown op id");
    }
  }

  // O(1) undo: an enqueue is undone by dropping the back, a dequeue that
  // returned a value by pushing it back at the front.
  Value apply_trailed(OpId id, const Value& arg, Trail& trail) override {
    Value ret = apply(id, arg);
    if (id.index() == kEnqueueIdx) {
      trail.push(kUndoEnqueue);
    } else if (id.index() == kDequeueIdx && ret.is_int()) {
      trail.push(ret.as_int());
      trail.push(kUndoDequeue);
    } else {
      trail.push(kUndoNothing);
    }
    return ret;
  }

  void undo(Trail& trail) override {
    switch (trail.pop()) {
      case kUndoEnqueue:
        items_.pop_back();
        break;
      case kUndoDequeue:
        items_.push_front(trail.pop());
        break;
      default:
        break;
    }
  }

  [[nodiscard]] std::string canonical() const override {
    std::ostringstream os;
    os << "queue:";
    for (const auto v : items_) os << v << ',';
    return os.str();
  }

  void fingerprint_into(FpHasher& h) const override {
    h.mix(kFpTag);
    h.mix(items_.size());
    for (const auto v : items_) h.mix_int(v);
  }

 private:
  std::deque<std::int64_t> items_;
};

}  // namespace

const std::vector<OpSpec>& QueueType::ops() const { return queue_table().specs(); }

const OpTable& QueueType::table() const { return queue_table(); }

std::unique_ptr<ObjectState> QueueType::make_initial_state() const {
  return std::make_unique<QueueState>();
}

}  // namespace lintime::adt
