#include "adt/data_type.hpp"

#include <sstream>
#include <stdexcept>

namespace lintime::adt {

std::string to_string(const Sequence& seq) {
  std::ostringstream os;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) os << '.';
    os << seq[i].to_string();
  }
  return os.str();
}

Value ObjectState::apply(OpId id, const Value& arg) {
  if (table_ == nullptr) {
    throw std::logic_error(
        "ObjectState::apply(OpId): no OpTable bound; obtain states via "
        "DataType::initial_state()");
  }
  return apply(table_->name_of(id), arg);
}

void ObjectState::fingerprint_into(FpHasher& h) const { h.mix_bytes(canonical()); }

ObjectState* ObjectState::clone_into(void* /*mem*/) const {
  throw std::logic_error(
      "ObjectState::clone_into: state does not support placement copies "
      "(self_size() == 0); derive adt::StateBase or use clone()");
}

std::vector<Value> DataType::sample_args(const std::string& op) const {
  if (!spec(op).takes_arg) return {Value::nil()};
  // Four distinct arguments so the classifier can witness k-wise
  // last-sensitivity up to k = 4 for integer-argument mutators.
  return {Value{1}, Value{2}, Value{3}, Value{4}};
}

const OpTable& DataType::table() const {
  std::call_once(table_once_, [this] { table_cache_ = std::make_unique<OpTable>(ops()); });
  return *table_cache_;
}

OpId DataType::op_id(const std::string& op) const {
  const OpId id = table().find(op);
  if (!id.valid()) {
    throw std::invalid_argument("unknown operation '" + op + "' on type " + name());
  }
  return id;
}

std::unique_ptr<ObjectState> DataType::initial_state() const {
  auto state = make_initial_state();
  state->bind_table(&table());
  return state;
}

std::vector<std::string> DataType::ops_in_category(OpCategory c) const {
  std::vector<std::string> out;
  for (const auto& s : ops()) {
    if (s.category == c) out.push_back(s.name);
  }
  return out;
}

std::unique_ptr<ObjectState> run_sequence(const DataType& type, const Sequence& seq) {
  auto state = type.initial_state();
  for (const auto& inst : seq) {
    if (state->apply(inst.op, inst.arg) != inst.ret) return nullptr;
  }
  return state;
}

bool is_legal(const DataType& type, const Sequence& seq) {
  return run_sequence(type, seq) != nullptr;
}

Value legal_return(const DataType& type, const Sequence& prefix, const std::string& op,
                   const Value& arg) {
  auto state = run_sequence(type, prefix);
  if (state == nullptr) {
    throw std::invalid_argument("legal_return: prefix is not legal: " + to_string(prefix));
  }
  return state->apply(op, arg);
}

Instance complete(const DataType& type, const Sequence& prefix, const std::string& op,
                  const Value& arg) {
  return Instance{op, arg, legal_return(type, prefix, op, arg)};
}

bool equivalent(const DataType& type, const Sequence& rho1, const Sequence& rho2) {
  auto s1 = run_sequence(type, rho1);
  auto s2 = run_sequence(type, rho2);
  if (s1 == nullptr || s2 == nullptr) {
    throw std::invalid_argument("equivalent: both sequences must be legal");
  }
  return s1->canonical() == s2->canonical();
}

}  // namespace lintime::adt
