#pragma once
// Test-only data type whose states all share one fingerprint: the worst
// possible hash, for exercising the checker memo's collision guard.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "adt/fingerprint.hpp"
#include "adt/state_base.hpp"

namespace lintime::lin::test_types {

using adt::OpCategory;
using adt::OpSpec;
using adt::Value;

/// Register-like state whose fingerprint is the same constant for EVERY
/// value -- the worst possible hash.  canonical() still distinguishes
/// states, which is exactly what the memo's collision check relies on.
class CollidingState final : public adt::StateBase<CollidingState> {
 public:
  Value apply(const std::string& op, const Value& arg) override {
    if (op == "write") {
      value_ = arg.as_int();
      return Value::nil();
    }
    if (op == "read") return Value{value_};
    if (op == "swap") {
      const auto old = value_;
      value_ = arg.as_int();
      return Value{old};
    }
    throw std::invalid_argument("colliding-register: unknown op " + op);
  }

  [[nodiscard]] std::string canonical() const override {
    return "r(" + std::to_string(value_) + ")";
  }

  void fingerprint_into(adt::FpHasher& h) const override {
    h.mix(0xdead);  // deliberately ignores value_: every state collides
  }

 private:
  std::int64_t value_ = 0;
};

class CollidingRegisterType final : public adt::DataType {
 public:
  [[nodiscard]] std::string name() const override { return "colliding-register"; }
  [[nodiscard]] const std::vector<OpSpec>& ops() const override {
    static const std::vector<OpSpec> kOps = {
        OpSpec{"write", OpCategory::kPureMutator, true},
        OpSpec{"read", OpCategory::kPureAccessor, false},
        OpSpec{"swap", OpCategory::kMixed, true},
    };
    return kOps;
  }
  [[nodiscard]] std::unique_ptr<adt::ObjectState> make_initial_state() const override {
    return std::make_unique<CollidingState>();
  }
};

}  // namespace lintime::lin::test_types
