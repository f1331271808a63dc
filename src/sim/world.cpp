#include "sim/world.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "adt/data_type.hpp"

namespace lintime::sim {

namespace {

// Delay-validity comparisons tolerate tiny floating-point error; the model's
// admissibility bounds are closed intervals.
constexpr Time kTol = 1e-7;

// All event times are snapped to the EventRing's 1e-9 grid (snap(), see
// sim/event_ring.hpp), which is what makes its bucket numbering a monotone
// function of event times.

/// The first grid point at or after `t`, for timer expiries: a timer set for
/// D must not fire before D has passed, so its expiry rounds up, never down
/// (snap() would fire a timer of 4/3 set at t = 5 at 6.333333333, 3.3e-10
/// early).  A value within float noise above a grid point -- 1e-3 ticks, or
/// a few units in the last place at large times -- is on that point, so
/// values equal in exact arithmetic still land on one grid point.
Time snap_up(Time t) {
  const double ticks = t * kTickGrid;
  const double nearest = std::round(ticks);
  const double noise =
      std::max(1e-3, 4 * std::numeric_limits<double>::epsilon() * std::abs(ticks));
  return (ticks - nearest > noise ? nearest + 1 : nearest) / kTickGrid;
}

}  // namespace

/// Per-step context handed to the process being dispatched.  Collects the
/// step's side effects (sent messages, response) into the trace when a step
/// record is attached; under RecordDetail::kOpsOnly `step` is null and the
/// context skips all per-step bookkeeping.
class World::ContextImpl final : public Context {
 public:
  ContextImpl(World& world, ProcId self, StepRecord* step)
      : world_(world), self_(self), step_(step) {}

  [[nodiscard]] ProcId self() const override { return self_; }
  [[nodiscard]] int n() const override { return world_.config_.params.n; }
  [[nodiscard]] const ModelParams& params() const override { return world_.config_.params; }

  [[nodiscard]] Time local_time() const override {
    const auto i = static_cast<std::size_t>(self_);
    return snap(world_.now_ * world_.config_.clock_rates[i] +
                world_.config_.clock_offsets[i]);
  }

  void send(ProcId dst, Payload payload) override {
    if (dst == self_ || dst < 0 || dst >= n()) {
      throw std::invalid_argument("send: bad destination " + std::to_string(dst));
    }
    deliver(std::move(payload), dst, dst + 1);
  }

  void broadcast(Payload payload) override { deliver(std::move(payload), 0, n()); }

  TimerId set_timer(Time delay, Payload data) override {
    if (delay < 0) throw std::invalid_argument("set_timer: negative delay");
    const std::uint64_t id = world_.next_timer_id_++;
    world_.timers_.insert(id, PendingTimer{self_, std::move(data)});
    // A local-clock duration takes delay / rate real time (rate 1, the
    // paper's model, makes them equal).
    const Time rate = world_.config_.clock_rates[static_cast<std::size_t>(self_)];
    world_.push_ring(EventKind::kTimer, snap_up(world_.now_ + delay / rate), self_, id, 0);
    return TimerId{id};
  }

  void cancel_timer(TimerId id) override { world_.timers_.erase(id.v); }

  void respond(adt::Value ret) override {
    const auto pending = world_.pending_op_[static_cast<std::size_t>(self_)];
    if (pending < 0) {
      throw std::logic_error("respond: no pending invocation at p" + std::to_string(self_));
    }
    auto& op = world_.record_.ops[static_cast<std::size_t>(pending)];
    op.ret = std::move(ret);
    op.response_real = world_.now_;
    world_.pending_op_[static_cast<std::size_t>(self_)] = -1;
    if (step_ != nullptr) {
      step_->responded = true;
      step_->response = op.ret;
    }
    if (world_.response_hook_) world_.response_hook_(world_, op);
  }

 private:
  /// Sends `payload` to every process in [first, last) but this one, in
  /// ascending order.  ONE arena slot holds the payload and every delivery's
  /// ring entry references it, so a broadcast costs one payload, not n-1
  /// copies, and records exactly what n-1 single sends would.  Per
  /// destination: a message id, then the drop coin -- ALWAYS drawn first, so
  /// an empty fault schedule leaves the RNG stream untouched -- then the
  /// link-window check (consumes nothing), the delay, and the crash check,
  /// after the delay model so the delay stream stays aligned whether or not
  /// the destination is up.
  void deliver(Payload payload, ProcId first, ProcId last) {
    const std::uint64_t slot = world_.next_payload_slot_++;
    world_.payloads_.insert(slot, SharedPayload{std::move(payload), self_, 0});
    std::uint32_t delivered = 0;
    for (ProcId dst = first; dst < last; ++dst) {
      if (dst == self_) continue;
      const std::uint64_t id = world_.next_message_id_++;
      if (draw_drop() || world_.link_cut(self_, dst)) {
        record_dropped(id, dst);
        continue;
      }
      const Time recv = delivery_time(dst, id);
      if (world_.crashed_by(dst, recv)) {
        record_dropped(id, dst);
        continue;
      }
      record_delivered(id, dst, recv);
      world_.push_ring(EventKind::kDeliver, recv, dst, id, slot);
      ++delivered;
    }
    if (delivered == 0) {
      world_.payloads_.erase(slot);
    } else {
      world_.payloads_.find(slot)->remaining = delivered;
    }
  }

  /// One drop coin per message id, in id order.
  [[nodiscard]] bool draw_drop() {
    if (world_.config_.drop_probability <= 0) return false;
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    return coin(world_.drop_rng_) < world_.config_.drop_probability;
  }

  [[nodiscard]] Time delivery_time(ProcId dst, std::uint64_t id) {
    const Time delay = world_.config_.delays->delay(self_, dst, world_.now_, id);
    if (world_.config_.enforce_valid_delays) {
      const auto& p = world_.config_.params;
      if (delay < p.min_delay() - kTol || delay > p.d + kTol) {
        throw std::logic_error("delay model produced invalid delay " + std::to_string(delay) +
                               " outside [" + std::to_string(p.min_delay()) + ", " +
                               std::to_string(p.d) + "]");
      }
    }
    return snap(world_.now_ + delay);
  }

  void record_dropped(std::uint64_t id, ProcId dst) {
    if (step_ == nullptr) return;  // kOpsOnly: no message/step bookkeeping
    // Dropped: recorded as sent-but-unreceived; no delivery event.
    MessageRecord rec;
    rec.id = id;
    rec.src = self_;
    rec.dst = dst;
    rec.send_real = world_.now_;
    rec.received = false;
    world_.record_.messages.push_back(rec);
    step_->sent_message_ids.push_back(id);
  }

  void record_delivered(std::uint64_t id, ProcId dst, Time recv) {
    if (step_ == nullptr) return;  // kOpsOnly: no message/step bookkeeping
    MessageRecord rec;
    rec.id = id;
    rec.src = self_;
    rec.dst = dst;
    rec.send_real = world_.now_;
    rec.recv_real = recv;
    rec.received = true;  // reliable network: everything sent is delivered
    world_.record_.messages.push_back(rec);
    step_->sent_message_ids.push_back(id);
  }

  World& world_;
  ProcId self_;
  StepRecord* step_;  ///< null under RecordDetail::kOpsOnly
};

World::World(WorldConfig config, const ProcessFactory& factory) : config_(std::move(config)) {
  config_.params.validate();
  const auto n = static_cast<std::size_t>(config_.params.n);
  if (config_.clock_offsets.empty()) config_.clock_offsets.assign(n, 0.0);
  if (config_.clock_offsets.size() != n) {
    throw std::invalid_argument("WorldConfig: clock_offsets size != n");
  }
  if (config_.clock_rates.empty()) config_.clock_rates.assign(n, 1.0);
  if (config_.clock_rates.size() != n) {
    throw std::invalid_argument("WorldConfig: clock_rates size != n");
  }
  for (std::size_t i = 0; i < config_.clock_rates.size(); ++i) {
    // !(r > 0) rather than r <= 0: also rejects NaN.
    if (!(config_.clock_rates[i] > 0)) {
      throw std::invalid_argument("WorldConfig: clock_rates[" + std::to_string(i) +
                                  "] must be > 0, got " +
                                  std::to_string(config_.clock_rates[i]));
    }
  }
  if (!(config_.drop_probability >= 0.0 && config_.drop_probability <= 1.0)) {
    throw std::invalid_argument("WorldConfig: drop_probability must be in [0, 1], got " +
                                std::to_string(config_.drop_probability));
  }
  drop_rng_.seed(config_.drop_seed);
  if (config_.enforce_valid_skew) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (std::abs(config_.clock_offsets[i] - config_.clock_offsets[j]) >
            config_.params.eps + kTol) {
          throw std::invalid_argument("WorldConfig: clock skew exceeds eps");
        }
      }
    }
  }
  if (config_.delays == nullptr) {
    config_.delays = std::make_shared<ConstantDelay>(config_.params.d);
  }
  config_.faults.validate(config_.params.n);
  // Precompile the schedule: per-proc halt times (+inf = never) and
  // grid-snapped windows, so dispatch/send compare against the same snapped
  // times the event loop runs on.
  has_crashes_ = !config_.faults.crashes.empty();
  has_link_windows_ = !config_.faults.link_drops.empty();
  crash_at_.assign(n, std::numeric_limits<Time>::infinity());
  for (const CrashEvent& c : config_.faults.crashes) {
    crash_at_[static_cast<std::size_t>(c.proc)] = snap(c.when);
  }
  link_windows_ = config_.faults.link_drops;
  for (LinkWindow& w : link_windows_) {
    w.from = snap(w.from);
    w.until = snap(w.until);
  }
  record_full_ = config_.record_detail == RecordDetail::kFull;
  ring_ = EventRing(EventRing::width_for(config_.params.d));

  record_.params = config_.params;
  record_.clock_offsets = config_.clock_offsets;
  pending_op_.assign(n, -1);

  processes_.reserve(n);
  for (ProcId p = 0; p < config_.params.n; ++p) {
    processes_.push_back(factory(p));
  }
  for (ProcId p = 0; p < config_.params.n; ++p) {
    StepRecord step;  // on_start side effects recorded against a synthetic step
    step.proc = p;
    step.real_time = 0;
    step.clock_time = config_.clock_offsets[static_cast<std::size_t>(p)];
    ContextImpl ctx(*this, p, record_full_ ? &step : nullptr);
    processes_[static_cast<std::size_t>(p)]->on_start(ctx);
  }
}

bool World::link_cut(ProcId src, ProcId dst) const {
  if (!has_link_windows_) return false;
  for (const LinkWindow& w : link_windows_) {
    if ((w.src == kAnyProc || w.src == src) && (w.dst == kAnyProc || w.dst == dst) &&
        now_ >= w.from && now_ < w.until) {
      return true;
    }
  }
  return false;
}

int World::tie_rank_of(EventKind kind) const {
  switch (kind) {
    case EventKind::kDeliver:
      return config_.timers_before_deliveries ? 1 : 0;
    case EventKind::kTimer:
      return config_.timers_before_deliveries ? 0 : 1;
    case EventKind::kInvoke:
      break;
  }
  return 2;
}

void World::push_ring(EventKind kind, Time when, ProcId proc, std::uint64_t id,
                      std::uint64_t slot) {
  RingEvent ev;
  ev.when = when;
  ev.order = ring_order(tie_rank_of(kind), next_seq_++);
  ev.kind = kind;
  ev.proc = proc;
  ev.id = id;
  ev.slot = slot;
  ring_.push(ev);
}

adt::OpId World::resolve(const std::string& op) const {
  return config_.type != nullptr ? config_.type->find_op(op) : adt::OpId{};
}

void World::invoke_at(Time when, ProcId proc, std::string op, adt::Value arg) {
  // Resolve the operation name to its interned id once, off the dispatch
  // path.
  const adt::OpId op_id = resolve(op);
  schedule_invoke(when, proc, std::move(op), op_id, std::move(arg));
}

void World::invoke_at(Time when, ProcId proc, adt::OpId op, adt::Value arg) {
  if (config_.type == nullptr) {
    throw std::logic_error("invoke_at(OpId): WorldConfig::type is not set");
  }
  // spec() throws std::out_of_range on an invalid or foreign id; the name is
  // still threaded through for the trace (OpRecord::op, StepRecord::op).
  schedule_invoke(when, proc, config_.type->spec(op).name, op, std::move(arg));
}

void World::check_invoke(Time when, ProcId proc) const {
  if (proc < 0 || proc >= config_.params.n) {
    throw std::invalid_argument("invoke_at: bad process id");
  }
  if (when < now_) throw std::invalid_argument("invoke_at: time in the past");
}

void World::schedule_invoke(Time when, ProcId proc, std::string op, adt::OpId op_id,
                            adt::Value arg) {
  check_invoke(when, proc);
  const std::uint64_t id = next_invoke_id_++;
  pending_invokes_.insert(id, PendingInvoke{std::move(op), std::move(arg), op_id});
  push_ring(EventKind::kInvoke, snap(when), proc, id, 0);
}

void World::set_plan(const std::vector<Call>& calls) {
  for (const Call& call : calls) check_invoke(call.when, call.proc);
  // The plan takes the block of sequence numbers that invoke_at, called once
  // per call here, would have drawn.
  ring_.set_plan(calls.data(), calls.size(),
                 ring_order(tie_rank_of(EventKind::kInvoke), next_seq_));
  next_seq_ += calls.size();
}

// Declared a deterministic entry point in detlint.toml
// ([capability.deterministic]): the event loop and everything it dispatches
// must replay byte-identically from the seed, so detlint's reachability pass
// bans wall-clock/randomness/hash-order tokens below this frame.
void World::run(std::uint64_t max_events) {
  // Every scheduled invocation becomes one OpRecord, and an open-loop
  // serving plan holds 10^5-10^6 of them, so pre-size the vector once
  // instead of paying ~20 growth copies of million-element records.
  record_.ops.reserve(record_.ops.size() + ring_.plan_unstaged() + pending_invokes_.size());
  std::uint64_t handled = 0;
  while (!ring_.empty()) {
    if (++handled > max_events) {
      throw std::runtime_error("World::run: exceeded max_events; algorithm not quiescent?");
    }
    const RingEvent ev = ring_.pop();
    now_ = ev.when;
    dispatch(ev.kind, ev.proc, ev.id, ev.slot);
  }
}

void World::dispatch(EventKind kind, ProcId proc, std::uint64_t id, std::uint64_t payload_slot) {
  // One perfectly-predicted branch selects the instantiation; the slim body
  // contains no StepRecord at all, so kOpsOnly dispatch is handler + op
  // bookkeeping and nothing else.
  if (record_full_) {
    dispatch_impl<true>(kind, proc, id, payload_slot);
  } else {
    dispatch_impl<false>(kind, proc, id, payload_slot);
  }
}

template <bool kFull>
void World::dispatch_impl(EventKind kind, ProcId proc, std::uint64_t id,
                          std::uint64_t payload_slot) {
  const auto pi = static_cast<std::size_t>(proc);

  if (crashed_by(proc, now_)) {
    // A crashed process takes no steps: consume the event's side-table entry
    // (or the payload refcount) and discard it.  Invocations
    // discarded here produce no OpRecord; an op already pending at the crash
    // simply never completes.  Deliveries cannot normally reach this point
    // (send() drops them when recv >= the crash time) but are handled for
    // robustness against hand-scheduled events.
    switch (kind) {
      case EventKind::kInvoke:
        if (payload_slot != kPlanSlot) pending_invokes_.take(id);
        break;
      case EventKind::kDeliver:
        if (auto* sp = payloads_.find(payload_slot); sp != nullptr) {
          if (--sp->remaining == 0) payloads_.erase(payload_slot);
        }
        break;
      case EventKind::kTimer:
        timers_.take(id);
        break;
    }
    return;
  }

  // Only the kFull instantiation builds a StepRecord; the slim one carries
  // an empty placeholder and hands the handlers a null step.
  struct NoStep {};
  [[maybe_unused]] std::conditional_t<kFull, StepRecord, NoStep> step;
  StepRecord* step_ptr = nullptr;
  if constexpr (kFull) {
    step.proc = proc;
    step.real_time = now_;
    step.clock_time = snap(now_ * config_.clock_rates[pi] + config_.clock_offsets[pi]);
    step_ptr = &step;
  }

  switch (kind) {
    case EventKind::kInvoke: {
      if (pending_op_[pi] >= 0) {
        throw std::logic_error("invocation at p" + std::to_string(proc) +
                               " while another instance is pending (user constraint violated)");
      }
      OpRecord op;
      if (payload_slot == kPlanSlot) {
        const Call& call = ring_.plan_call(id);
        op.op = call.op;
        op.arg = call.arg;
        op.op_id = resolve(call.op);
      } else {
        auto inv = pending_invokes_.take(id);
        if (!inv) break;  // should not happen
        op.op = std::move(inv->op);
        op.arg = std::move(inv->arg);
        op.op_id = inv->op_id;
      }

      if constexpr (kFull) {
        step.trigger = Trigger::kInvoke;
        step.op = op.op;
        step.arg = op.arg;
      }

      op.proc = proc;
      op.invoke_real = now_;
      op.uid = next_op_uid_++;
      pending_op_[pi] = static_cast<std::int64_t>(record_.ops.size());
      record_.ops.push_back(std::move(op));

      // The OpRecord just pushed owns the payload now; nothing re-enters
      // record_.ops until this dispatch returns, so the references stay valid
      // through on_invoke (responses and hook-driven invoke_at only touch the
      // event queue and existing records).
      const OpRecord& rec = record_.ops[static_cast<std::size_t>(pending_op_[pi])];
      ContextImpl ctx(*this, proc, step_ptr);
      if (rec.op_id.valid()) {
        processes_[pi]->on_invoke_id(ctx, rec.op_id, rec.op, rec.arg);
      } else {
        processes_[pi]->on_invoke(ctx, rec.op, rec.arg);
      }
      break;
    }
    case EventKind::kDeliver: {
      auto* sp = payloads_.find(payload_slot);
      if (sp == nullptr) break;  // should not happen
      if constexpr (kFull) {
        step.trigger = Trigger::kMessage;
        step.message_id = id;
      }
      ContextImpl ctx(*this, proc, step_ptr);
      processes_[pi]->on_message(ctx, sp->src, sp->payload);
      // Re-find before releasing: the handler may have grown the arena
      // (deque slots are reference-stable, but re-checking costs nothing
      // and keeps this robust against future storage changes).
      auto* done = payloads_.find(payload_slot);
      if (done != nullptr && --done->remaining == 0) payloads_.erase(payload_slot);
      break;
    }
    case EventKind::kTimer: {
      auto timer = timers_.take(id);
      if (!timer) return;  // cancelled; not a step at all
      if constexpr (kFull) {
        step.trigger = Trigger::kTimer;
        step.timer_id = id;
      }
      ContextImpl ctx(*this, proc, step_ptr);
      processes_[pi]->on_timer(ctx, TimerId{id}, timer->data);
      break;
    }
  }

  if constexpr (kFull) record_.steps.push_back(std::move(step));
}

}  // namespace lintime::sim
