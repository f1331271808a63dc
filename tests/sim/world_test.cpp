// Unit tests for the discrete-event kernel: event ordering, timers and
// cancellation, message delivery, clock offsets, trace recording, the
// model's user constraint (one pending invocation per process), and open-loop
// plans (validation, name resolution, crashes).

#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "adt/register_type.hpp"

namespace lintime::sim {
namespace {

/// Scriptable probe process for kernel tests.  Payloads are typed records;
/// the probe's tag vocabulary below maps to the names its log strings use.
class Probe : public Process {
 public:
  struct Log {
    std::vector<std::string> events;
    std::vector<Time> local_times;
  };

  enum Tag : std::uint32_t { kHello, kAll, kTick, kCancelled };

  static const char* tag_name(std::uint32_t tag) {
    switch (tag) {
      case kHello: return "hello";
      case kAll: return "all";
      case kTick: return "tick";
      case kCancelled: return "cancelled";
      default: return "?";
    }
  }

  static Payload tagged(std::uint32_t tag) {
    Payload p;
    p.tag = tag;
    return p;
  }

  explicit Probe(Log& log) : log_(log) {}

  void on_invoke(Context& ctx, const std::string& op, const adt::Value& arg) override {
    log_.events.push_back("invoke:" + op);
    log_.local_times.push_back(ctx.local_time());
    if (op == "ping") {
      ctx.send((ctx.self() + 1) % ctx.n(), tagged(kHello));
      ctx.respond(adt::Value::nil());
    } else if (op == "timer") {
      timer_ = ctx.set_timer(arg.is_int() ? static_cast<Time>(arg.as_int()) : 1.0,
                             tagged(kTick));
      ctx.respond(adt::Value::nil());
    } else if (op == "timer_cancel") {
      auto id = ctx.set_timer(1.0, tagged(kCancelled));
      ctx.cancel_timer(id);
      ctx.respond(adt::Value::nil());
    } else if (op == "broadcast") {
      ctx.broadcast(tagged(kAll));
      ctx.respond(adt::Value::nil());
    } else if (op == "silent") {
      ctx.respond(adt::Value{ctx.self()});
    } else if (op == "never") {
      // No response: used to test the pending-invocation constraint.
    }
  }

  void on_message(Context& ctx, ProcId src, const Payload& payload) override {
    log_.events.push_back("msg:" + std::string(tag_name(payload.tag)) + ":from" +
                          std::to_string(src));
    log_.local_times.push_back(ctx.local_time());
  }

  void on_timer(Context& ctx, TimerId, const Payload& data) override {
    log_.events.push_back("timer:" + std::string(tag_name(data.tag)));
    log_.local_times.push_back(ctx.local_time());
  }

 private:
  Log& log_;
  TimerId timer_;
};

WorldConfig config3() {
  WorldConfig c;
  c.params = ModelParams{3, 10.0, 2.0, 1.0};
  return c;
}

TEST(WorldTest, MessageArrivesWithConstantDelay) {
  Probe::Log log;
  WorldConfig c = config3();
  c.delays = std::make_shared<ConstantDelay>(10.0);
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(5.0, 0, "ping", adt::Value::nil());
  w.run();
  ASSERT_EQ(w.record().messages.size(), 1u);
  EXPECT_EQ(w.record().messages[0].send_real, 5.0);
  EXPECT_EQ(w.record().messages[0].recv_real, 15.0);
  EXPECT_TRUE(w.record().messages[0].received);
}

TEST(WorldTest, InvalidDelayRejectedWhenEnforced) {
  Probe::Log log;
  WorldConfig c = config3();
  c.delays = std::make_shared<ConstantDelay>(3.0);  // below d-u = 8
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 0, "ping", adt::Value::nil());
  EXPECT_THROW(w.run(), std::logic_error);
}

TEST(WorldTest, InvalidDelayAllowedWhenNotEnforced) {
  Probe::Log log;
  WorldConfig c = config3();
  c.delays = std::make_shared<ConstantDelay>(3.0);
  c.enforce_valid_delays = false;
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 0, "ping", adt::Value::nil());
  EXPECT_NO_THROW(w.run());
}

TEST(WorldTest, TimerFiresAtRequestedDelay) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(2.0, 0, "timer", adt::Value{7});
  w.run();
  ASSERT_EQ(log.events.back(), "timer:tick");
  // Timer set at local time 2 (offset 0) for +7.
  EXPECT_DOUBLE_EQ(log.local_times.back(), 9.0);
}

TEST(WorldTest, CancelledTimerNeverFires) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 0, "timer_cancel", adt::Value::nil());
  w.run();
  for (const auto& ev : log.events) {
    EXPECT_EQ(ev.find("cancelled"), std::string::npos) << ev;
  }
}

TEST(WorldTest, ClockOffsetsShiftLocalTime) {
  Probe::Log log;
  WorldConfig c = config3();
  c.clock_offsets = {0.5, -0.5, 0.0};
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(10.0, 0, "silent", adt::Value::nil());
  w.run();
  EXPECT_DOUBLE_EQ(log.local_times.back(), 10.5);
}

TEST(WorldTest, ExcessiveSkewRejected) {
  Probe::Log log;
  WorldConfig c = config3();  // eps = 1
  c.clock_offsets = {2.0, 0.0, 0.0};
  EXPECT_THROW(World(c, [&](ProcId) { return std::make_unique<Probe>(log); }),
               std::invalid_argument);
}

TEST(WorldTest, BroadcastReachesAllOthers) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 1, "broadcast", adt::Value::nil());
  w.run();
  int received = 0;
  for (const auto& ev : log.events) {
    if (ev.rfind("msg:all", 0) == 0) ++received;
  }
  EXPECT_EQ(received, 2);
  EXPECT_EQ(w.record().messages.size(), 2u);
}

TEST(WorldTest, SecondInvocationWhilePendingThrows) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 0, "never", adt::Value::nil());
  w.invoke_at(1.0, 0, "silent", adt::Value::nil());
  EXPECT_THROW(w.run(), std::logic_error);
}

TEST(WorldTest, OpRecordCapturesInterval) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(4.0, 2, "silent", adt::Value::nil());
  w.run();
  ASSERT_EQ(w.record().ops.size(), 1u);
  const auto& op = w.record().ops[0];
  EXPECT_EQ(op.proc, 2);
  EXPECT_EQ(op.invoke_real, 4.0);
  EXPECT_EQ(op.response_real, 4.0);
  EXPECT_EQ(op.ret, adt::Value{2});
  EXPECT_TRUE(op.complete());
}

TEST(WorldTest, StepsRecordedInRealTimeOrder) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(1.0, 0, "ping", adt::Value::nil());
  w.invoke_at(2.0, 1, "timer", adt::Value{1});
  w.run();
  const auto& steps = w.record().steps;
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_LE(steps[i - 1].real_time, steps[i].real_time);
  }
}

TEST(WorldTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Probe::Log log;
    WorldConfig c;
    c.params = ModelParams{4, 10.0, 2.0, 1.0};
    c.delays = std::make_shared<UniformRandomDelay>(8.0, 10.0, 99);
    World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
    w.invoke_at(0.0, 0, "broadcast", adt::Value::nil());
    w.invoke_at(0.5, 1, "broadcast", adt::Value::nil());
    w.run();
    std::string sig;
    for (const auto& m : w.record().messages) sig += std::to_string(m.recv_real) + ";";
    return sig;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(WorldTest, InvokeInThePastThrows) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(5.0, 0, "silent", adt::Value::nil());
  w.run();
  EXPECT_THROW(w.invoke_at(1.0, 0, "silent", adt::Value::nil()), std::invalid_argument);
}

TEST(WorldTest, ResponseHookObservesCompletion) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  std::vector<std::string> seen;
  w.set_response_hook([&seen](World&, const OpRecord& op) { seen.push_back(op.op); });
  w.invoke_at(0.0, 0, "silent", adt::Value::nil());
  w.run();
  EXPECT_EQ(seen, std::vector<std::string>{"silent"});
}

TEST(WorldTest, ViewOfFiltersSteps) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  w.invoke_at(0.0, 0, "ping", adt::Value::nil());
  w.run();
  const auto view0 = w.record().view_of(0);
  const auto view1 = w.record().view_of(1);
  EXPECT_EQ(view0.size(), 1u);  // the invoke step
  EXPECT_EQ(view1.size(), 1u);  // the message receipt
  EXPECT_EQ(view0[0].trigger, Trigger::kInvoke);
  EXPECT_EQ(view1[0].trigger, Trigger::kMessage);
}

TEST(WorldTest, DropProbabilityOutsideUnitIntervalThrows) {
  Probe::Log log;
  const auto factory = [&](ProcId) { return std::make_unique<Probe>(log); };
  for (const double p : {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    WorldConfig c = config3();
    c.drop_probability = p;
    try {
      World w(c, factory);
      FAIL() << "drop_probability " << p << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("drop_probability must be in [0, 1]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WorldTest, NonPositiveClockRateThrows) {
  Probe::Log log;
  const auto factory = [&](ProcId) { return std::make_unique<Probe>(log); };
  for (const double r : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    WorldConfig c = config3();
    c.clock_rates = {1.0, r, 1.0};
    try {
      World w(c, factory);
      FAIL() << "clock rate " << r << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("clock_rates[1] must be > 0"), std::string::npos)
          << e.what();
    }
  }
}

TEST(WorldTest, InvokeAtIdRequiresConfiguredType) {
  Probe::Log log;
  WorldConfig c = config3();  // type left null
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  EXPECT_THROW(w.invoke_at(1.0, 0, adt::OpId{}, adt::Value::nil()), std::logic_error);
}

TEST(WorldTest, InvokeAtIdMatchesStringOverload) {
  adt::RegisterType reg;
  const auto run = [&](bool by_id) {
    WorldConfig c = config3();
    c.type = &reg;
    Probe::Log log;
    World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
    // Probe responds to any invocation ("write" hits its default branch);
    // only the recorded op name/id matter here.
    if (by_id) {
      w.invoke_at(1.0, 0, reg.op_id(adt::RegisterType::kWrite), adt::Value{7});
    } else {
      w.invoke_at(1.0, 0, adt::RegisterType::kWrite, adt::Value{7});
    }
    w.run();
    return w.record();
  };
  const auto by_name = run(false);
  const auto by_id = run(true);
  ASSERT_EQ(by_id.ops.size(), 1u);
  EXPECT_EQ(by_id.ops[0].op, "write");
  EXPECT_TRUE(by_id.ops[0].op_id.valid());
  EXPECT_EQ(by_name.ops[0].to_string(), by_id.ops[0].to_string());
}

TEST(WorldTest, InvokeAtForeignIdThrows) {
  adt::RegisterType reg;
  WorldConfig c = config3();
  c.type = &reg;
  Probe::Log log;
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  EXPECT_THROW(w.invoke_at(1.0, 0, adt::OpId{}, adt::Value::nil()), std::out_of_range);
}

/// The message of the std::invalid_argument that set_plan(plan) throws.
std::string plan_error(const std::vector<Call>& plan) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  try {
    w.set_plan(plan);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

TEST(WorldTest, PlanValidationThrowsInvokeAtMessages) {
  const adt::Value nil = adt::Value::nil();
  EXPECT_EQ(plan_error({Call{1.0, 0, "silent", nil}, Call{2.0, 3, "silent", nil}}),
            "invoke_at: bad process id");
  EXPECT_EQ(plan_error({Call{1.0, -1, "silent", nil}}), "invoke_at: bad process id");
  EXPECT_EQ(plan_error({Call{1.0, 0, "silent", nil}, Call{-0.5, 1, "silent", nil}}),
            "invoke_at: time in the past");
}

// The World reads a plan in place until run() ends, so a temporary plan
// must not compile.
template <typename Plan>
constexpr bool kTakesPlan = requires(World& w, Plan&& plan) { w.set_plan(std::forward<Plan>(plan)); };
static_assert(kTakesPlan<const std::vector<Call>&>);
static_assert(!kTakesPlan<std::vector<Call>>);

TEST(WorldTest, SecondPlanThrows) {
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  const std::vector<Call> plan = {Call{1.0, 0, "silent", adt::Value::nil()}};
  w.set_plan(plan);
  EXPECT_THROW(w.set_plan(plan), std::logic_error);
}

/// A Probe that also logs which invoke handler the World called.
class HandlerProbe final : public Probe {
 public:
  HandlerProbe(Log& log, std::vector<std::string>& handlers) : Probe(log), handlers_(handlers) {}

  void on_invoke(Context& ctx, const std::string& op, const adt::Value& arg) override {
    handlers_.push_back("name:" + op);
    Probe::on_invoke(ctx, op, arg);
  }
  void on_invoke_id(Context& ctx, adt::OpId /*id*/, const std::string& op,
                    const adt::Value& arg) override {
    handlers_.push_back("id:" + op);
    Probe::on_invoke(ctx, op, arg);
  }

 private:
  std::vector<std::string>& handlers_;
};

TEST(WorldTest, PlannedNameTheTypeDoesNotKnowReachesStringHandler) {
  adt::RegisterType reg;
  WorldConfig c = config3();
  c.type = &reg;
  Probe::Log log;
  std::vector<std::string> handlers;
  World w(c, [&](ProcId) { return std::make_unique<HandlerProbe>(log, handlers); });
  const std::vector<Call> plan = {Call{1.0, 0, adt::RegisterType::kWrite, adt::Value{7}},
                                  Call{2.0, 1, "ping", adt::Value::nil()}};
  w.set_plan(plan);
  w.run();
  EXPECT_EQ(handlers, (std::vector<std::string>{"id:write", "name:ping"}));
  ASSERT_EQ(w.ops().size(), 2u);
  EXPECT_EQ(w.ops()[0].op_id, reg.op_id(adt::RegisterType::kWrite));
  EXPECT_FALSE(w.ops()[1].op_id.valid());
}

TEST(WorldTest, PlanTiesLikeInvokeAtCallsInItsPlace) {
  // At one instant, invocations pop in the order they were scheduled: the
  // plan's calls take the place that invoke_at calls made in their stead
  // would have.
  Probe::Log log;
  World w(config3(), [&](ProcId) { return std::make_unique<Probe>(log); });
  const adt::Value nil = adt::Value::nil();
  w.invoke_at(5.0, 2, "silent", nil);
  const std::vector<Call> plan = {Call{5.0, 1, "silent", nil}, Call{5.0, 0, "silent", nil}};
  w.set_plan(plan);
  w.invoke_at(5.0, 1, "silent", nil);
  w.run();
  std::vector<ProcId> order;
  for (const auto& op : w.ops()) order.push_back(op.proc);
  EXPECT_EQ(order, (std::vector<ProcId>{2, 1, 0, 1}));
}

TEST(WorldTest, PlannedInvokeAtCrashedProcessIsDropped) {
  // The dropped call is plan index 1; the invocation scheduled by invoke_at
  // takes invoke id 1, and dropping the one must not drop the other.
  WorldConfig c = config3();
  c.faults.crashes.push_back(CrashEvent{0, 5.0});
  Probe::Log log;
  World w(c, [&](ProcId) { return std::make_unique<Probe>(log); });
  const adt::Value nil = adt::Value::nil();
  const std::vector<Call> plan = {Call{1.0, 0, "silent", nil}, Call{5.0, 0, "silent", nil},
                                  Call{6.0, 1, "silent", nil}};
  w.set_plan(plan);
  w.invoke_at(7.0, 1, "silent", nil);
  w.run();
  ASSERT_EQ(w.ops().size(), 3u);
  EXPECT_EQ(w.ops()[0].invoke_real, 1.0);
  EXPECT_EQ(w.ops()[1].invoke_real, 6.0);
  EXPECT_EQ(w.ops()[2].invoke_real, 7.0);
}

}  // namespace
}  // namespace lintime::sim
