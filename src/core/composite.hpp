#pragma once
// Multi-object composition.  Section 2.3 of the paper invokes the locality
// of linearizability (Herlihy-Wing): "a run is linearizable if and only if
// the restriction of the run to each individual object is linearizable", and
// then reasons about a single object.  This module makes composition
// executable in both directions:
//
//   * CompositeProcess hosts one INDEPENDENT AlgorithmOneProcess per object
//     (separate replicas, timestamps, queues); operations are addressed as
//     "<object-index>:<op>" and messages/timers are multiplexed on the
//     object index (core::MultiplexedProcess).
//   * ProductType is the composed objects viewed as ONE data type with
//     namespaced operations, so the standard checker can decide
//     linearizability of the COMBINED history.
//
// Locality then becomes a testable statement: the combined history of a
// CompositeProcess run is linearizable w.r.t. ProductType, and each
// restriction is linearizable w.r.t. its component type.

#include <memory>
#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "core/algorithm_one.hpp"
#include "core/timing_policy.hpp"
#include "sim/run_record.hpp"

namespace lintime::core {

/// Splits "3:enqueue" into (3, "enqueue"); throws on malformed names.
struct QualifiedOp {
  std::size_t object;
  std::string op;
};
[[nodiscard]] QualifiedOp parse_qualified(const std::string& name);
[[nodiscard]] std::string qualify(std::size_t object, const std::string& op);

/// The product of several data types, with operations namespaced by object
/// index.  A useful type in its own right (a fixed heterogeneous "store"),
/// and the specification the combined history of a composite run must meet.
class ProductType final : public adt::DataType {
 public:
  /// `components` must outlive the product.
  explicit ProductType(std::vector<const adt::DataType*> components);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const std::vector<adt::OpSpec>& ops() const override { return ops_; }
  [[nodiscard]] std::unique_ptr<adt::ObjectState> make_initial_state() const override;
  [[nodiscard]] std::vector<adt::Value> sample_args(const std::string& op) const override;

  [[nodiscard]] const std::vector<const adt::DataType*>& components() const {
    return components_;
  }

  /// Interned dispatch: a product-level OpId resolves to (component index,
  /// component-level OpId) without re-parsing the qualified name.
  struct SubOp {
    std::size_t object;
    adt::OpId op;
  };
  [[nodiscard]] const SubOp& sub_op(adt::OpId id) const { return dispatch_.at(id.index()); }

 private:
  std::vector<const adt::DataType*> components_;
  std::vector<adt::OpSpec> ops_;
  std::vector<SubOp> dispatch_;
};

/// One simulated process hosting an independent Algorithm 1 instance per
/// object, the object index as its channel.  Invocations use the product's
/// qualified names and route by interned id (ProductType::sub_op).
class CompositeProcess final : public MultiplexedProcess {
 public:
  CompositeProcess(const ProductType& product, const TimingPolicy& timing);

 private:
  [[nodiscard]] Route route(adt::OpId id, const adt::Value& arg) const override;

  const ProductType& product_;
};

/// Restricts a history to the operations of one object, stripping the
/// qualification (ready for the component type's checker).
[[nodiscard]] std::vector<sim::OpRecord> restrict_to_object(
    const std::vector<sim::OpRecord>& ops, std::size_t object);

}  // namespace lintime::core
