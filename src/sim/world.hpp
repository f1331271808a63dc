#pragma once
// World: the deterministic discrete-event simulator tying together
// processes, the network (delay model), clocks (offsets) and the trace
// recorder.  One World = one run of the model of Section 2.2.
//
// Events run on one scheduler, the EventRing calendar queue
// (sim/event_ring.hpp), in ascending (time, tie rank, FIFO sequence) order.
// send and broadcast run one delivery loop: a broadcast stores its payload
// once and fans n-1 deliveries out of it, drawing message ids, drop coins
// and delays per destination exactly as n-1 sends would.
// tests/sim/event_ring_test.cpp checks both against oracles.

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "adt/op.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_ring.hpp"
#include "sim/fault.hpp"
#include "sim/model_params.hpp"
#include "sim/process.hpp"
#include "sim/run_record.hpp"
#include "sim/slot_map.hpp"

namespace lintime::adt {
class DataType;
}  // namespace lintime::adt

namespace lintime::sim {

/// The World's event scheduler.  The EventRing is the only one; this enum
/// and the `scheduler` fields of WorldConfig and harness::RunSpec remain
/// only because perfbench's ledger.cpp, which changes only with the
/// benchmark, still assigns the one to the other.  The World does not read
/// them.
enum class SchedulerKind {
  kEventRing,  ///< contiguous calendar queue + shared broadcast payloads
};

/// How much of the run to record.  Step and message records dominate memory
/// at serving scale (a 10^6-op run generates ~10^7 steps); kOpsOnly keeps
/// only the operation records (what the checkers and latency metrics
/// consume) and leaves steps/messages empty.  The recorded ops are
/// byte-identical between the two levels.
enum class RecordDetail {
  kFull,     ///< steps + messages + ops (the default; shifting needs steps)
  kOpsOnly,  ///< ops only, for 10^5+-op serving runs
};

/// Simulator configuration.
struct WorldConfig {
  ModelParams params;
  std::vector<Time> clock_offsets;  ///< size n; empty = all zero

  /// Optional: the data type this run exercises.  When set (it must outlive
  /// the World), invocations resolve their operation name to an interned
  /// adt::OpId once at schedule time and every OpRecord carries it, so
  /// downstream metrics can aggregate on integers instead of strings.
  const adt::DataType* type = nullptr;

  /// EXTENSION (outside the paper's model, for the robustness bench): clock
  /// rates per process; local_time = rate * real + offset.  Empty = all 1
  /// (the paper's drift-free clocks).  Timer duration D set at local time L
  /// fires when the local clock reaches L + D, i.e. after D / rate real
  /// time.  The shifting machinery assumes rate 1 and must not be applied
  /// to drifting records.  Rates must be positive (validated).
  std::vector<Time> clock_rates;

  /// EXTENSION: fraction of messages silently dropped (violating the
  /// reliable-network assumption), selected deterministically per seed.
  /// Must lie within [0, 1] (validated).
  double drop_probability = 0;
  std::uint64_t drop_seed = 0;

  /// EXTENSION: deterministic fault schedule (timed crashes, timed link-drop
  /// windows; see sim/fault.hpp), layered under drop_probability: the drop
  /// coin for a message is always drawn first, so an empty schedule leaves
  /// the RNG stream -- and therefore the RunRecord -- byte-identical to a
  /// config without one.  Validated against n in the World constructor.
  FaultSchedule faults;
  std::shared_ptr<DelayModel> delays;  ///< nullptr = ConstantDelay(d)
  bool enforce_valid_delays = true;    ///< assert delays within [d-u, d]
  bool enforce_valid_skew = true;      ///< assert |c_i - c_j| <= eps

  SchedulerKind scheduler = SchedulerKind::kEventRing;  ///< not read; see SchedulerKind
  RecordDetail record_detail = RecordDetail::kFull;

  /// ABLATION ONLY: process timer expirations before message receipts at
  /// equal times (the opposite of the model's boundary rule).  Algorithm 1's
  /// correctness argument (Lemma 5/6, "knows about op1 by t+d <= t'+d+eps")
  /// permits equality, which requires receipts to be handled first; flipping
  /// this breaks the algorithm at exact boundary ties -- demonstrated in
  /// tests/core/ablation_test.cpp and bench/ablations.
  bool timers_before_deliveries = false;
};

class World {
 public:
  using ProcessFactory = std::function<std::unique_ptr<Process>(ProcId)>;
  using ResponseHook = std::function<void(World&, const OpRecord&)>;

  World(WorldConfig config, const ProcessFactory& factory);

  /// Schedules an operation invocation at `proc` at real time `when`.
  /// Throws std::invalid_argument on a bad process id or a time in the past.
  /// The model allows at most one pending instance per process; an
  /// invocation that arrives while another is pending at `proc` throws
  /// std::logic_error when it is dispatched.
  ///
  /// The string overload resolves the name per call; scheduling loops
  /// intern once and use the OpId overload below.
  void invoke_at(Time when, ProcId proc, std::string op, adt::Value arg);

  /// Interned-dispatch overload for hot scheduling loops: no per-call name
  /// lookup.  Requires WorldConfig::type (the id's issuer); throws
  /// std::out_of_range on an invalid or foreign id.
  void invoke_at(Time when, ProcId proc, adt::OpId op, adt::Value arg);

  /// Schedules an open-loop plan, read in place: the run is the one that
  /// invoke_at(c.when, c.proc, c.op, c.arg) for each call c, in order, would
  /// give, but a call is copied into its OpRecord only when it is invoked,
  /// and until then takes no side-table entry or ring event.  `calls` must
  /// outlive run() unchanged.  One plan per World, set before run(); throws
  /// invoke_at's std::invalid_argument on the first bad call.
  void set_plan(const std::vector<Call>& calls);
  void set_plan(std::vector<Call>&&) = delete;  ///< a temporary would dangle

  /// Registers a hook called on every operation response; the hook may call
  /// invoke_at (closed-loop workloads).
  void set_response_hook(ResponseHook hook) { response_hook_ = std::move(hook); }

  /// Runs until no events remain (Eventual Quiescence) or `max_events` is
  /// exceeded (throws -- indicates a runaway algorithm).
  void run(std::uint64_t max_events = 10'000'000);

  /// Current simulated real time.
  [[nodiscard]] Time now() const { return now_; }

  [[nodiscard]] const ModelParams& params() const { return config_.params; }
  [[nodiscard]] const std::vector<OpRecord>& ops() const { return record_.ops; }
  [[nodiscard]] const RunRecord& record() const { return record_; }

  /// Moves the record out of a finished world.  A million-op serving run's
  /// record owns ~3M heap blocks (op names, arguments, returns); callers
  /// that would otherwise copy-and-discard (harness::execute) take it
  /// instead.  The world must not dispatch again afterwards.
  [[nodiscard]] RunRecord take_record() { return std::move(record_); }

  /// Direct access to a process (for end-of-run state inspection, e.g. the
  /// History Oblivion checks in the shift experiments).
  [[nodiscard]] Process& process(ProcId p) { return *processes_[static_cast<std::size_t>(p)]; }

 private:
  // Invocations and timers keep their payloads in side tables keyed by id
  // (pending_invokes_ / timers_), message payloads in an arena slot that a
  // broadcast's n-1 deliveries share (payloads_), and plan calls stay in
  // the plan; the ring entry carries only the id and the slot.
  struct PendingTimer {
    ProcId proc;
    Payload data;
  };

  /// An invocation scheduled by invoke_at; plan calls stay in the plan.
  struct PendingInvoke {
    std::string op;
    adt::Value arg;
    adt::OpId op_id;  ///< resolved once at invoke_at when config_.type is set
  };

  /// One stored payload per send OR broadcast; `remaining` deliveries
  /// reference the slot before it is reclaimed.  This is what makes
  /// Algorithm 1's broadcasts cheap -- n-1 ring entries fan out from one
  /// payload instead of n-1 deep copies of the announcement.  The payload
  /// itself is a typed inline record (sim/payload.hpp); the rare oversized
  /// argument is a refcounted box inside PayloadVal, so even then fan-out
  /// shares one heap object.
  struct SharedPayload {
    Payload payload;
    ProcId src = 0;
    std::uint32_t remaining = 0;
  };

  class ContextImpl;
  friend class ContextImpl;

  /// Throws invoke_at's std::invalid_argument for a bad invocation.
  void check_invoke(Time when, ProcId proc) const;
  /// The interned id of `op`, or an invalid id without a type or for a name
  /// the type does not know (the process's on_invoke decides what it means).
  [[nodiscard]] adt::OpId resolve(const std::string& op) const;
  void schedule_invoke(Time when, ProcId proc, std::string op, adt::OpId op_id, adt::Value arg);
  void dispatch(EventKind kind, ProcId proc, std::uint64_t id, std::uint64_t payload_slot);

  /// The dispatch body, instantiated once per RecordDetail level.  kFull
  /// carries a StepRecord through the handler and appends it to the trace;
  /// the slim instantiation passes a null step and touches no per-step or
  /// per-message bookkeeping at all -- at serving scale (10^6 ops, ~10^7
  /// steps) that bookkeeping was a measurable share of the hot loop.
  template <bool kFull>
  void dispatch_impl(EventKind kind, ProcId proc, std::uint64_t id, std::uint64_t payload_slot);
  /// At equal times, deliveries are processed before timers and timers
  /// before invocations (the rank packed into RingEvent::order; the
  /// deliver-first rule can be flipped for ablation via WorldConfig).  The
  /// deliver-before-timer rule matters for correctness at exact boundary
  /// ties: Lemma 5's argument ("every process knows about op1 by
  /// t+d <= t'+d+eps before it executes op2") permits equality, in which
  /// case the message receipt must be handled before the execute timer that
  /// fires at the same instant.
  [[nodiscard]] int tie_rank_of(EventKind kind) const;
  void push_ring(EventKind kind, Time when, ProcId proc, std::uint64_t id, std::uint64_t slot);

  /// True if `proc` has halted by real time `t` (crash times are snapped to
  /// the event grid; a crash at `when` already blocks events AT `when`).
  [[nodiscard]] bool crashed_by(ProcId proc, Time t) const {
    return has_crashes_ && t >= crash_at_[static_cast<std::size_t>(proc)];
  }
  /// True if a message sent now on src -> dst falls inside a drop window.
  [[nodiscard]] bool link_cut(ProcId src, ProcId dst) const;

  WorldConfig config_;
  bool record_full_ = true;  ///< config_.record_detail == kFull
  std::vector<std::unique_ptr<Process>> processes_;
  EventRing ring_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_timer_id_ = 1;
  std::uint64_t next_message_id_ = 1;
  std::uint64_t next_invoke_id_ = 1;
  std::uint64_t next_payload_slot_ = 1;
  std::mt19937_64 drop_rng_{0};
  std::uint64_t next_op_uid_ = 1;
  Time now_ = 0;

  // Fault plane, precompiled from config_.faults: per-proc halt time (+inf
  // when the proc never crashes) and grid-snapped link windows.  The two
  // bools keep the empty-schedule dispatch/send paths to one predictable
  // branch each.
  std::vector<Time> crash_at_;
  std::vector<LinkWindow> link_windows_;
  bool has_crashes_ = false;
  bool has_link_windows_ = false;

  // Sequential ids consumed near-FIFO: SlotMap beats std::map's node
  // allocation + pointer chase on the dispatch hot path.
  SlotMap<PendingTimer> timers_;            ///< live timers
  SlotMap<SharedPayload> payloads_;         ///< message payload arena
  SlotMap<PendingInvoke> pending_invokes_;  ///< scheduled invocations

  /// Pending invocation per process (index into record_.ops), or -1.
  std::vector<std::int64_t> pending_op_;

  RunRecord record_;
  ResponseHook response_hook_;
};

}  // namespace lintime::sim
