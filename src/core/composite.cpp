#include "core/composite.hpp"

#include <sstream>
#include <stdexcept>

#include "adt/trail.hpp"

namespace lintime::core {

QualifiedOp parse_qualified(const std::string& name) {
  const auto colon = name.find(':');
  if (colon == std::string::npos || colon == 0) {
    throw std::invalid_argument("composite: operation must be '<object>:<op>', got " + name);
  }
  return QualifiedOp{std::stoul(name.substr(0, colon)), name.substr(colon + 1)};
}

std::string qualify(std::size_t object, const std::string& op) {
  return std::to_string(object) + ":" + op;
}

// ---------------------------------------------------------------------------
// ProductType
// ---------------------------------------------------------------------------

namespace {

class ProductState final : public adt::ObjectState {
 public:
  explicit ProductState(const ProductType& owner) : owner_(&owner) {
    const auto& components = owner.components();
    states_.reserve(components.size());
    for (const auto* c : components) states_.push_back(c->initial_state());
  }

  // Copies must keep the ObjectState base (the bound op table) alongside the
  // deep-copied component states.
  ProductState(const ProductState& other) : adt::ObjectState(other), owner_(other.owner_) {
    states_.reserve(other.states_.size());
    for (const auto& s : other.states_) states_.push_back(s->clone());
  }

  adt::Value apply(const std::string& op, const adt::Value& arg) override {
    const auto q = parse_qualified(op);
    return states_.at(q.object)->apply(q.op, arg);
  }

  adt::Value apply(adt::OpId id, const adt::Value& arg) override {
    const auto& sub = owner_->sub_op(id);
    return states_[sub.object]->apply(sub.op, arg);
  }

  [[nodiscard]] std::unique_ptr<adt::ObjectState> clone() const override {
    return std::make_unique<ProductState>(*this);
  }

  // Undo forwards to the component the op went to; the component's own
  // entries sit below the object index on the trail.
  adt::Value apply_trailed(adt::OpId id, const adt::Value& arg, adt::Trail& trail) override {
    const auto& sub = owner_->sub_op(id);
    adt::Value ret = states_[sub.object]->apply_trailed(sub.op, arg, trail);
    trail.push(static_cast<std::int64_t>(sub.object));
    return ret;
  }

  void undo(adt::Trail& trail) override {
    states_[static_cast<std::size_t>(trail.pop())]->undo(trail);
  }

  [[nodiscard]] std::string canonical() const override {
    std::ostringstream os;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      os << i << '{' << states_[i]->canonical() << '}';
    }
    return os.str();
  }

  void fingerprint_into(adt::FpHasher& h) const override {
    h.mix(11);  // composite tag, distinct from every component tag
    h.mix(states_.size());
    for (const auto& s : states_) s->fingerprint_into(h);
  }

 private:
  const ProductType* owner_;
  std::vector<std::unique_ptr<adt::ObjectState>> states_;
};

}  // namespace

ProductType::ProductType(std::vector<const adt::DataType*> components)
    : components_(std::move(components)) {
  if (components_.empty()) throw std::invalid_argument("ProductType: no components");
  for (std::size_t i = 0; i < components_.size(); ++i) {
    for (const auto& spec : components_[i]->ops()) {
      adt::OpSpec qualified = spec;
      qualified.name = qualify(i, spec.name);
      ops_.push_back(std::move(qualified));
      dispatch_.push_back(SubOp{i, components_[i]->op_id(spec.name)});
    }
  }
}

std::string ProductType::name() const {
  std::ostringstream os;
  os << "product(";
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) os << ", ";
    os << components_[i]->name();
  }
  os << ")";
  return os.str();
}

std::unique_ptr<adt::ObjectState> ProductType::make_initial_state() const {
  return std::make_unique<ProductState>(*this);
}

std::vector<adt::Value> ProductType::sample_args(const std::string& op) const {
  const auto q = parse_qualified(op);
  return components_.at(q.object)->sample_args(q.op);
}

// ---------------------------------------------------------------------------
// CompositeProcess
// ---------------------------------------------------------------------------

/// Context adapter: stamps the sub-instance's object index into
/// Payload::chan on every outgoing message and timer; everything else passes
/// through to the real context.  The chan field exists for exactly this kind
/// of single-level multiplexing, so no envelope (and no allocation) is
/// needed -- a double wrap (chan already set) is a protocol bug and throws.
class CompositeProcess::SubContext final : public sim::Context {
 public:
  SubContext(sim::Context& outer, std::size_t object) : outer_(outer), object_(object) {}

  [[nodiscard]] sim::ProcId self() const override { return outer_.self(); }
  [[nodiscard]] int n() const override { return outer_.n(); }
  [[nodiscard]] const sim::ModelParams& params() const override { return outer_.params(); }
  [[nodiscard]] sim::Time local_time() const override { return outer_.local_time(); }

  void send(sim::ProcId dst, sim::Payload payload) override {
    outer_.send(dst, stamp(std::move(payload)));
  }
  void broadcast(sim::Payload payload) override { outer_.broadcast(stamp(std::move(payload))); }
  sim::TimerId set_timer(sim::Time delay, sim::Payload data) override {
    return outer_.set_timer(delay, stamp(std::move(data)));
  }
  void cancel_timer(sim::TimerId id) override { outer_.cancel_timer(id); }
  void respond(adt::Value ret) override { outer_.respond(std::move(ret)); }

 private:
  [[nodiscard]] sim::Payload stamp(sim::Payload p) const {
    if (p.chan != sim::Payload::kNoChan) {
      throw std::logic_error("composite: payload channel already in use (nested multiplexing)");
    }
    p.chan = static_cast<std::uint32_t>(object_);
    return p;
  }

  sim::Context& outer_;
  std::size_t object_;
};

CompositeProcess::CompositeProcess(const ProductType& product, const TimingPolicy& timing)
    : product_(product) {
  instances_.reserve(product.components().size());
  for (const auto* component : product.components()) {
    instances_.push_back(std::make_unique<AlgorithmOneProcess>(*component, timing));
  }
}

void CompositeProcess::on_invoke(sim::Context& ctx, const std::string& op,
                                 const adt::Value& arg) {
  const auto q = parse_qualified(op);
  SubContext sub(ctx, q.object);
  instances_.at(q.object)->on_invoke(sub, q.op, arg);
}

void CompositeProcess::on_message(sim::Context& ctx, sim::ProcId src,
                                  const sim::Payload& payload) {
  const auto object = static_cast<std::size_t>(payload.chan);
  sim::Payload inner = payload;  // strip the channel before forwarding
  inner.chan = sim::Payload::kNoChan;
  SubContext sub(ctx, object);
  instances_.at(object)->on_message(sub, src, inner);
}

void CompositeProcess::on_timer(sim::Context& ctx, sim::TimerId id, const sim::Payload& data) {
  const auto object = static_cast<std::size_t>(data.chan);
  sim::Payload inner = data;
  inner.chan = sim::Payload::kNoChan;
  SubContext sub(ctx, object);
  instances_.at(object)->on_timer(sub, id, inner);
}

std::vector<sim::OpRecord> restrict_to_object(const std::vector<sim::OpRecord>& ops,
                                              std::size_t object) {
  std::vector<sim::OpRecord> out;
  for (auto op : ops) {
    const auto q = parse_qualified(op.op);
    if (q.object != object) continue;
    op.op = q.op;
    op.op_id = adt::OpId{};  // product-level id; invalid against the component type
    out.push_back(std::move(op));
  }
  return out;
}

}  // namespace lintime::core
