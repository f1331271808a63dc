#include "lin/nondet_checker.hpp"

#include "lin/search_detail.hpp"

namespace lintime::lin {

namespace {

/// Outcome step for non-deterministic types: every outcome of a candidate
/// whose return matches the record is a branch.  outcomes() hands back fresh
/// successor states, so there is nothing to undo.
class OutcomeStep {
 public:
  OutcomeStep(const adt::NondetDataType& type, const std::vector<sim::OpRecord>& ops)
      : type_(&type), ops_(&ops) {}

  template <typename Visit>
  bool expand(adt::ObjectState& state, std::size_t i, Visit&& visit) {
    const sim::OpRecord& op = (*ops_)[i];
    for (auto& outcome : type_->outcomes(state, op.op, op.arg)) {
      if (outcome.ret == op.ret && visit(*outcome.state)) return true;
    }
    return false;
  }

 private:
  const adt::NondetDataType* type_;
  const std::vector<sim::OpRecord>* ops_;
};

}  // namespace

CheckResult check_linearizability_nondet(const adt::NondetDataType& type,
                                         const std::vector<sim::OpRecord>& ops) {
  detail::require_complete(ops);
  auto state = type.make_initial_state();
  return detail::Search(detail::realtime_order(ops), OutcomeStep(type, ops), /*memoize=*/true)
      .run(*state);
}

CheckResult check_linearizability_nondet(const adt::NondetDataType& type,
                                         const sim::RunRecord& record) {
  return check_linearizability_nondet(type, record.ops);
}

}  // namespace lintime::lin
