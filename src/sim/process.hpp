#pragma once
// The process abstraction of the paper's model (Section 2.2): an
// event-driven state machine whose transitions are triggered by operation
// invocations, message receipts and timer expirations, and which can only
// observe its *local* clock (never real time).

#include <cstdint>
#include <string>

#include "adt/op.hpp"
#include "adt/value.hpp"
#include "sim/model_params.hpp"
#include "sim/payload.hpp"

namespace lintime::sim {

/// Opaque timer handle, usable for cancellation (Algorithm 1 line 7/25).
struct TimerId {
  std::uint64_t v = 0;
  friend bool operator==(TimerId a, TimerId b) { return a.v == b.v; }
};

/// The facilities a process may use while handling an event.  Deliberately
/// narrow: a process can read its local clock, send messages, manage timers
/// and respond to the pending invocation -- nothing else (in particular it
/// cannot read real time or other processes' state).
///
/// Messages and timer cookies are typed sim::Payload records (sim/payload.hpp)
/// rather than type-erased values: the simulator stores them inline in its
/// slots and never allocates, copies deeply, or consults RTTI on their
/// behalf.
class Context {
 public:
  virtual ~Context() = default;

  [[nodiscard]] virtual ProcId self() const = 0;
  [[nodiscard]] virtual int n() const = 0;
  [[nodiscard]] virtual const ModelParams& params() const = 0;

  /// The process's local clock (real time + fixed offset; no drift).
  [[nodiscard]] virtual Time local_time() const = 0;

  /// Sends `payload` to `dst` (!= self). Delay chosen by the world's model.
  virtual void send(ProcId dst, Payload payload) = 0;

  /// Sends `payload` to every other process: one payload-slot write plus
  /// n-1 references, not n-1 copies.  The run is the one that n-1 send()
  /// calls in ascending destination order would give.
  virtual void broadcast(Payload payload) = 0;

  /// Sets a timer to go off `delay` local-clock time from now, carrying
  /// `data` back to on_timer.
  virtual TimerId set_timer(Time delay, Payload data) = 0;

  /// Cancels a pending timer; no-op if already fired or cancelled.
  virtual void cancel_timer(TimerId id) = 0;

  /// Emits the response for the currently pending invocation at this
  /// process.  Exactly one response per invocation.
  virtual void respond(adt::Value ret) = 0;
};

/// Interface implemented by every shared-object algorithm in this library
/// (Algorithm 1, the baselines, and the unsafe variants).
class Process {
 public:
  virtual ~Process() = default;

  /// Called once before any event, at local time = offset.
  virtual void on_start(Context& /*ctx*/) {}

  /// The user invoked (op, arg) at this process.
  virtual void on_invoke(Context& ctx, const std::string& op, const adt::Value& arg) = 0;

  /// Interned-dispatch variant: when the World knows the invocation's
  /// adt::OpId (WorldConfig::type set and the name resolved), it calls this
  /// instead.  The default forwards to on_invoke, so string-only processes
  /// are unaffected; hot-path algorithms override it to skip the per-invoke
  /// name lookup.
  virtual void on_invoke_id(Context& ctx, adt::OpId id, const std::string& op,
                            const adt::Value& arg) {
    (void)id;
    on_invoke(ctx, op, arg);
  }

  /// A message from `src` arrived.
  virtual void on_message(Context& ctx, ProcId src, const Payload& payload) = 0;

  /// A timer set earlier went off; `data` is the payload given to set_timer.
  virtual void on_timer(Context& ctx, TimerId id, const Payload& data) = 0;
};

}  // namespace lintime::sim
