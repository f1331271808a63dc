#include "adt/register_type.hpp"

#include <stdexcept>

#include "adt/state_base.hpp"
#include "adt/trail.hpp"

namespace lintime::adt {

namespace {

enum : std::uint32_t { kReadIdx = 0, kWriteIdx = 1 };

const OpTable& register_table() {
  static const OpTable kTable{{
      {RegisterType::kRead, OpCategory::kPureAccessor, /*takes_arg=*/false},
      {RegisterType::kWrite, OpCategory::kPureMutator, /*takes_arg=*/true},
  }};
  return kTable;
}

constexpr std::uint64_t kFpTag = 1;

class RegisterState final : public StateBase<RegisterState> {
 public:
  explicit RegisterState(std::int64_t v) : value_(v) {}

  Value apply(const std::string& op, const Value& arg) override {
    const OpId id = register_table().find(op);
    if (!id.valid()) throw std::invalid_argument("register: unknown op " + op);
    return apply(id, arg);
  }

  Value apply(OpId id, const Value& arg) override {
    switch (id.index()) {
      case kReadIdx:
        return Value{value_};
      case kWriteIdx:
        value_ = arg.as_int();
        return Value::nil();
      default:
        throw std::invalid_argument("register: unknown op id");
    }
  }

  // O(1) undo: save the value a write may overwrite.
  Value apply_trailed(OpId id, const Value& arg, Trail& trail) override {
    trail.push(value_);
    return apply(id, arg);
  }

  void undo(Trail& trail) override { value_ = trail.pop(); }

  [[nodiscard]] std::string canonical() const override { return "reg:" + std::to_string(value_); }

  void fingerprint_into(FpHasher& h) const override {
    h.mix(kFpTag);
    h.mix_int(value_);
  }

 private:
  std::int64_t value_;
};

}  // namespace

const std::vector<OpSpec>& RegisterType::ops() const { return register_table().specs(); }

const OpTable& RegisterType::table() const { return register_table(); }

std::unique_ptr<ObjectState> RegisterType::make_initial_state() const {
  return std::make_unique<RegisterState>(initial_);
}

}  // namespace lintime::adt
