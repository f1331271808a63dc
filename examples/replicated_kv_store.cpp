// Replicated key-value store built on the public DataType API.
//
// The paper's algorithm works for *arbitrary* data types: this example
// defines a new one (a map of string-keyed registers with put/get/cas) from
// scratch, never touching the library internals, and runs a geo-replicated
// session across 4 sites.  `get` is a pure accessor (fast: d-X), `put` a
// pure mutator (fast: X+eps), and `cas` a mixed operation (d+eps) -- the
// per-class speedups apply to user-defined types automatically.
//
// Build & run:  ./build/examples/replicated_kv_store

#include <cstdio>
#include <map>
#include <sstream>

#include "adt/data_type.hpp"
#include "adt/state_base.hpp"
#include "harness/runner.hpp"
#include "lin/checker.hpp"

namespace {

using lintime::adt::DataType;
using lintime::adt::OpCategory;
using lintime::adt::OpSpec;
using lintime::adt::StateBase;
using lintime::adt::Value;
using lintime::adt::ValueVec;

/// State: string key -> integer value.  cas([k, expect, desired]) returns 1
/// and stores `desired` iff the current value (0 if absent) equals `expect`.
class KvState final : public StateBase<KvState> {
 public:
  Value apply(const std::string& op, const Value& arg) override {
    if (op == "put") {
      const auto& kv = arg.as_vec();
      map_[kv[0].as_str()] = kv[1].as_int();
      return Value::nil();
    }
    if (op == "get") {
      const auto it = map_.find(arg.as_str());
      return it == map_.end() ? Value{0} : Value{it->second};
    }
    if (op == "cas") {
      const auto& kcd = arg.as_vec();
      auto& slot = map_[kcd[0].as_str()];
      if (slot != kcd[1].as_int()) return Value{0};
      slot = kcd[2].as_int();
      return Value{1};
    }
    throw std::invalid_argument("kv: unknown op " + op);
  }

  [[nodiscard]] std::string canonical() const override {
    std::ostringstream os;
    os << "kv:";
    for (const auto& [k, v] : map_) os << k << '=' << v << ',';
    return os.str();
  }

 private:
  std::map<std::string, std::int64_t> map_;
};

class KvStoreType final : public DataType {
 public:
  [[nodiscard]] std::string name() const override { return "kv_store"; }
  [[nodiscard]] const std::vector<OpSpec>& ops() const override {
    static const std::vector<OpSpec> kOps = {
        {"put", OpCategory::kPureMutator, true},
        {"get", OpCategory::kPureAccessor, true},
        {"cas", OpCategory::kMixed, true},
    };
    return kOps;
  }
  [[nodiscard]] std::unique_ptr<lintime::adt::ObjectState> make_initial_state() const override {
    return std::make_unique<KvState>();
  }
  [[nodiscard]] std::vector<Value> sample_args(const std::string& op) const override {
    if (op == "get") return {Value{"x"}, Value{"y"}};
    if (op == "put") return {Value{ValueVec{Value{"x"}, Value{1}}}};
    return {Value{ValueVec{Value{"x"}, Value{0}, Value{1}}}};
  }
};

Value put(const char* k, std::int64_t v) { return Value{ValueVec{Value{k}, Value{v}}}; }
Value cas(const char* k, std::int64_t expect, std::int64_t desired) {
  return Value{ValueVec{Value{k}, Value{expect}, Value{desired}}};
}

}  // namespace

int main() {
  namespace harness = lintime::harness;

  lintime::sim::ModelParams params{4, 10.0, 2.0, 0.0};
  params.eps = params.optimal_eps();

  harness::RunSpec spec;
  spec.params = params;
  spec.X = 2.0;  // reads at d-X = 8, writes at X+eps = 3.5
  spec.delays = std::make_shared<lintime::sim::UniformRandomDelay>(params.min_delay(), params.d,
                                                                   2026);

  // Four sites: two writers racing a compare-and-swap, two readers.
  spec.scripts = {
      {{"put", put("cart", 1)}, {"cas", cas("cart", 1, 2)}},
      {{"put", put("stock", 10)}, {"cas", cas("cart", 1, 3)}},
      {{"get", Value{"cart"}}, {"get", Value{"stock"}}, {"get", Value{"cart"}}},
      {{"get", Value{"stock"}}, {"put", put("stock", 9)}},
  };

  KvStoreType kv;
  const auto result = harness::execute(kv, spec);

  std::printf("session transcript:\n");
  for (const auto& op : result.record.ops) {
    std::printf("  %s\n", op.to_string().c_str());
  }

  std::printf("\nlatency by operation class:\n");
  for (const auto& [op, stats] : harness::latency_by_op(result.record)) {
    std::printf("  %-4s  max=%.2f  (class bound: %s)\n", op.c_str(), stats.max,
                op == "get"   ? "d-X = 8.0"
                : op == "put" ? "X+eps = 3.5"
                              : "d+eps = 11.5");
  }

  // At most one of the two racing cas(cart, 1, _) calls may have won.
  int cas_wins = 0;
  for (const auto& op : result.record.ops) {
    if (op.op == "cas" && op.ret == Value{1}) ++cas_wins;
  }
  std::printf("\ncompare-and-swap winners: %d (must be exactly 1)\n", cas_wins);

  const bool ok =
      lintime::lin::check_linearizability(kv, result.record).linearizable && cas_wins == 1;
  std::printf("linearizable: %s\n", ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
