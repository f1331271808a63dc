// EventRing tests: unit coverage of the calendar queue's ordering contract
// (time order, tie ranks, FIFO sequence, far staging, sparse jumps, the
// bucket-aliasing regression), randomized differential tests against a
// std::priority_queue on the unpacked (when, tie_rank, seq) key, with and
// without an open-loop plan, unit tests of the plan source, and the
// broadcast-as-sends suite: 60 seeded workloads, tie storms, broadcast
// storms and the timers_before_deliveries ablation in both directions, each
// run with every process behind a decorator that turns broadcast(p) into
// n-1 send(dst, p) calls.  Decorated and plain runs must record
// byte-identically at both RecordDetail levels and end in equal states.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "adt/queue_type.hpp"
#include "core/algorithm_one.hpp"
#include "core/timing_policy.hpp"
#include "harness/runner.hpp"
#include "sim/event_ring.hpp"
#include "sim/trace_io.hpp"
#include "sim/world.hpp"

namespace lintime::sim {
namespace {

RingEvent ev(Time when, int tie_rank, std::uint64_t seq) {
  RingEvent e;
  e.when = when;
  e.order = ring_order(tie_rank, seq);
  e.id = seq;  // so tests can identify events after popping
  return e;
}

TEST(EventRingTest, PopsInTimeOrder) {
  EventRing ring(EventRing::width_for(10.0));
  const std::vector<double> times = {5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0};
  std::uint64_t seq = 0;
  for (const double t : times) ring.push(ev(t, 0, seq++));
  double prev = -1;
  while (!ring.empty()) {
    const RingEvent e = ring.pop();
    EXPECT_GT(e.when, prev);
    prev = e.when;
  }
}

TEST(EventRingTest, FifoAmongEqualTimes) {
  EventRing ring(EventRing::width_for(10.0));
  for (std::uint64_t s : {7u, 3u, 9u, 1u, 5u}) ring.push(ev(4.0, 0, s));
  std::uint64_t prev = 0;
  while (!ring.empty()) {
    const RingEvent e = ring.pop();
    EXPECT_GT(e.id, prev);  // ascending seq = FIFO among ties
    prev = e.id;
  }
}

TEST(EventRingTest, TieRankDominatesSequence) {
  EventRing ring(EventRing::width_for(10.0));
  ring.push(ev(4.0, 1, 1));  // earlier seq, higher rank
  ring.push(ev(4.0, 0, 2));  // later seq, lower rank -- must pop first
  EXPECT_EQ(ring.pop().id, 2u);
  EXPECT_EQ(ring.pop().id, 1u);
}

TEST(EventRingTest, SparseScheduleJumpsEmptyEpochs) {
  // Events 10^6 time units apart: the ring must jump, not crawl epoch by
  // epoch (this test hangs if it crawls).
  EventRing ring(EventRing::width_for(10.0));
  for (int i = 0; i < 5; ++i) ring.push(ev(i * 1e6, 0, static_cast<std::uint64_t>(i)));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ring.pop().id, static_cast<std::uint64_t>(i));
  EXPECT_TRUE(ring.empty());
}

TEST(EventRingTest, FarEventsStageInCorrectOrder) {
  // A beyond-horizon event pushed FIRST must still pop after every
  // in-horizon event that precedes it in time.
  EventRing ring(1, 8);  // tiny ring: horizon = 8 ticks
  ring.push(ev(100.0 / kTickGrid, 0, 0));  // bucket 100, far
  for (int i = 1; i <= 9; ++i) ring.push(ev(i / kTickGrid, 0, static_cast<std::uint64_t>(i)));
  std::vector<std::uint64_t> popped;
  while (!ring.empty()) popped.push_back(ring.pop().id);
  EXPECT_EQ(popped, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 0}));
}

TEST(EventRingTest, BucketAliasingRegression) {
  // Regression: a staged event exactly B buckets ahead of the draining
  // bucket must NOT enter the slot the draining bucket still occupies (it
  // would pop a whole revolution early).  Buckets 1..9 on an 8-bucket ring
  // exercise the alias pair (1, 9).
  EventRing ring(1, 8);
  for (int i = 9; i >= 1; --i) ring.push(ev(i / kTickGrid, 0, static_cast<std::uint64_t>(i)));
  std::uint64_t prev = 0;
  while (!ring.empty()) {
    const RingEvent e = ring.pop();
    EXPECT_EQ(e.id, prev + 1);
    prev = e.id;
  }
  EXPECT_EQ(prev, 9u);
}

TEST(EventRingTest, PushDuringDrainMergesInKeyOrder) {
  EventRing ring(EventRing::width_for(10.0));
  ring.push(ev(1.0, 0, 1));
  ring.push(ev(1.0, 0, 5));
  EXPECT_EQ(ring.pop().id, 1u);
  // Same time, seq between the popped and the pending event: pops next.
  ring.push(ev(1.0, 0, 3));
  // Same time, rank 1: pops after every rank-0 event.
  ring.push(ev(1.0, 1, 2));
  EXPECT_EQ(ring.pop().id, 3u);
  EXPECT_EQ(ring.pop().id, 5u);
  EXPECT_EQ(ring.pop().id, 2u);
  EXPECT_TRUE(ring.empty());
}

TEST(EventRingTest, PopEmptyThrows) {
  EventRing ring;
  EXPECT_THROW(ring.pop(), std::logic_error);
}

TEST(EventRingTest, RandomizedAgainstBinaryHeap) {
  // Differential check against a binary min-heap that orders on the
  // (when, tie_rank, seq) triple the test pushed -- not on the ring's packed
  // `order` key, so ring_order()'s packing is under test too.  Pushes and
  // pops interleave exactly as the World's dispatch loop interleaves them
  // (including same-time pushes during a pop epoch), and the two pop
  // sequences must match event for event.
  using Key = std::tuple<double, int, std::uint64_t>;  // (when, tie_rank, seq)
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);
    EventRing ring(EventRing::width_for(10.0));
    std::priority_queue<Key, std::vector<Key>, std::greater<>> heap;
    double now = 0;
    std::uint64_t seq = 0;
    int checked = 0;
    const auto pop_both = [&] {
      const RingEvent r = ring.pop();
      const auto [when, rank, hseq] = heap.top();
      heap.pop();
      EXPECT_EQ(r.when, when);
      return std::make_pair(r, hseq);
    };
    for (int round = 0; round < 2000; ++round) {
      const int pushes = static_cast<int>(rng() % 4);
      for (int i = 0; i < pushes; ++i) {
        // Monotone times (the World never schedules in the past), mixed
        // ranks, occasional far-future spikes and exact ties with `now`.
        const double jump = (rng() % 20 == 0) ? 5000.0 : 0.0;
        const double delta = static_cast<double>(rng() % 1000) / 100.0 + jump;
        const int rank = static_cast<int>(rng() % 3);
        ring.push(ev(now + delta, rank, seq));
        heap.emplace(now + delta, rank, seq);
        ++seq;
      }
      if (!ring.empty() && rng() % 2 == 0) {
        const auto [r, hseq] = pop_both();
        ASSERT_EQ(r.id, hseq) << "seed " << seed << " after " << checked << " pops";
        now = r.when;
        ++checked;
      }
    }
    while (!ring.empty()) {
      const auto [r, hseq] = pop_both();
      ASSERT_EQ(r.id, hseq) << "seed " << seed << " drain after " << checked << " pops";
      ++checked;
    }
    EXPECT_TRUE(heap.empty()) << "seed " << seed;
    EXPECT_GT(checked, 1000) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// The plan source
// ---------------------------------------------------------------------------

/// Pops the ring dry; plan events are reported as 1000 + their plan index,
/// pushed events as their id.
std::vector<std::uint64_t> drain(EventRing& ring) {
  std::vector<std::uint64_t> out;
  while (!ring.empty()) {
    const RingEvent e = ring.pop();
    out.push_back(e.slot == kPlanSlot ? 1000 + e.id : e.id);
  }
  return out;
}

std::vector<Call> plan_at(const std::vector<double>& times) {
  std::vector<Call> plan;
  for (const double t : times) plan.push_back(Call{t, 0, "op", adt::Value::nil()});
  return plan;
}

TEST(EventRingTest, PlanInterleavesWithPushesAtEqualKeys) {
  // Differential check of the plan source against a binary min-heap that
  // holds every plan call from the start, as if each had been pushed when
  // the plan was set: pushes before the plan, a plan whose times collide
  // with them on a coarse grid, then pushes (at every rank, often at the
  // time just popped) interleaved with pops.
  using Key = std::tuple<double, int, std::uint64_t>;  // (when, tie_rank, seq)
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);
    EventRing ring(EventRing::width_for(10.0));
    std::priority_queue<Key, std::vector<Key>, std::greater<>> heap;
    std::uint64_t seq = 0;
    const auto push = [&](double when) {
      const int rank = static_cast<int>(rng() % 3);
      ring.push(ev(when, rank, seq));
      heap.emplace(when, rank, seq);
      ++seq;
    };
    for (int i = 0; i < 20; ++i) push(static_cast<double>(rng() % 40) / 2);
    std::vector<double> times;
    double t = 0;
    for (int i = 0; i < 500; ++i) {
      t += static_cast<double>(rng() % 3) / 2 + (rng() % 50 == 0 ? 5000.0 : 0.0);
      times.push_back(t);
    }
    const std::vector<Call> plan = plan_at(times);
    ring.set_plan(plan.data(), plan.size(), ring_order(2, seq));
    for (std::size_t i = 0; i < plan.size(); ++i) heap.emplace(plan[i].when, 2, seq + i);
    seq += plan.size();
    double now = 0;
    int popped = 0;
    while (!ring.empty()) {
      const RingEvent r = ring.pop();
      const auto [when, rank, hseq] = heap.top();
      heap.pop();
      ASSERT_EQ(r.when, when) << "seed " << seed << " pop " << popped;
      ASSERT_EQ(r.order, ring_order(rank, hseq)) << "seed " << seed << " pop " << popped;
      if (r.slot == kPlanSlot) {
        EXPECT_EQ(r.kind, EventKind::kInvoke);
        EXPECT_EQ(ring.plan_call(r.id).when, r.when);
      }
      now = r.when;
      ++popped;
      for (int i = static_cast<int>(rng() % 3); i > 0; --i) {
        push(now + (rng() % 2 == 0 ? 0.0 : static_cast<double>(rng() % 20) / 2));
      }
      if (popped > 2000) break;
    }
    EXPECT_GT(popped, 500) << "seed " << seed;
  }
}

TEST(EventRingTest, UnsortedPlanPopsInTimeThenPlanOrder) {
  EventRing ring(EventRing::width_for(10.0));
  const std::vector<Call> plan = plan_at({5.0, 1.0, 3.0, 1.0, 9000.0, 2.0, 3.0});
  ring.set_plan(plan.data(), plan.size(), ring_order(2, 0));
  EXPECT_EQ(ring.size(), plan.size());
  EXPECT_EQ(drain(ring), (std::vector<std::uint64_t>{1001, 1003, 1005, 1002, 1006, 1000, 1004}));
}

TEST(EventRingTest, PlanBeyondHorizonBesideStagingHeap) {
  // An 8-tick horizon: plan calls at ticks 20, 30 and 100 wait beyond it
  // next to staging-heap events (pushed out of order) at ticks 100, 40, 25
  // and 30.  At tick 100 the heap event's rank 0 pops before the plan's
  // rank 2.
  EventRing ring(1, 8);
  ring.push(ev(100.0 / kTickGrid, 0, 3));
  ring.push(ev(40.0 / kTickGrid, 1, 1));
  ring.push(ev(25.0 / kTickGrid, 1, 2));
  ring.push(ev(3.0 / kTickGrid, 0, 4));
  const std::vector<Call> plan = plan_at({20.0 / kTickGrid, 30.0 / kTickGrid, 100.0 / kTickGrid});
  ring.set_plan(plan.data(), plan.size(), ring_order(2, 5));
  ring.push(ev(30.0 / kTickGrid, 2, 9));  // same time and rank, after the plan's block
  EXPECT_EQ(drain(ring), (std::vector<std::uint64_t>{4, 1000, 2, 1001, 9, 1, 3, 1002}));
}

TEST(EventRingTest, EmptyPlanChangesNothing) {
  EventRing ring(EventRing::width_for(10.0));
  ring.set_plan(nullptr, 0, ring_order(2, 0));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.plan_unstaged(), 0u);
  ring.push(ev(2.0, 0, 1));
  ring.push(ev(1.0, 0, 2));
  EXPECT_EQ(drain(ring), (std::vector<std::uint64_t>{2, 1}));
}

TEST(EventRingTest, PlanMustComeBeforeTheFirstPop) {
  const std::vector<Call> plan = plan_at({1.0, 2.0});
  EventRing ring(EventRing::width_for(10.0));
  ring.push(ev(0.5, 0, 0));
  (void)ring.pop();
  EXPECT_THROW(ring.set_plan(plan.data(), plan.size(), ring_order(2, 1)), std::logic_error);
  EventRing twice(EventRing::width_for(10.0));
  twice.set_plan(plan.data(), plan.size(), ring_order(2, 0));
  EXPECT_THROW(twice.set_plan(plan.data(), plan.size(), ring_order(2, 2)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Broadcast as sends
// ---------------------------------------------------------------------------
//
// The World's broadcast stores one payload for n-1 deliveries and draws each
// destination's message id, drop coin and delay inline.  Its contract is
// that the run is the one n-1 send() calls would give; the decorator below
// makes that per-send run, the reference these tests compare against.  The
// suite is named for what it guards: with the ring's event order checked by
// the differential test above, the shared fan-out is the one part of the
// scheduler whose equivalence the records must show.

/// Forwards every call to the World's context, except that broadcast(p)
/// becomes send(dst, p) for each other process in ascending order.
class SendsContext final : public Context {
 public:
  SendsContext(Context& inner, std::size_t& broadcasts) : inner_(inner), broadcasts_(broadcasts) {}

  [[nodiscard]] ProcId self() const override { return inner_.self(); }
  [[nodiscard]] int n() const override { return inner_.n(); }
  [[nodiscard]] const ModelParams& params() const override { return inner_.params(); }
  [[nodiscard]] Time local_time() const override { return inner_.local_time(); }
  void send(ProcId dst, Payload payload) override { inner_.send(dst, std::move(payload)); }
  void broadcast(Payload payload) override {
    ++broadcasts_;
    for (ProcId dst = 0; dst < n(); ++dst) {
      if (dst != self()) inner_.send(dst, payload);
    }
  }
  TimerId set_timer(Time delay, Payload data) override {
    return inner_.set_timer(delay, std::move(data));
  }
  void cancel_timer(TimerId id) override { inner_.cancel_timer(id); }
  void respond(adt::Value ret) override { inner_.respond(std::move(ret)); }

 private:
  Context& inner_;
  std::size_t& broadcasts_;
};

/// Runs `inner` behind a SendsContext; counts the broadcasts it split.
class BroadcastAsSends final : public Process {
 public:
  BroadcastAsSends(std::unique_ptr<Process> inner, std::size_t& broadcasts)
      : inner_(std::move(inner)), broadcasts_(broadcasts) {}

  void on_start(Context& ctx) override {
    SendsContext sc(ctx, broadcasts_);
    inner_->on_start(sc);
  }
  void on_invoke(Context& ctx, const std::string& op, const adt::Value& arg) override {
    SendsContext sc(ctx, broadcasts_);
    inner_->on_invoke(sc, op, arg);
  }
  void on_invoke_id(Context& ctx, adt::OpId id, const std::string& op,
                    const adt::Value& arg) override {
    SendsContext sc(ctx, broadcasts_);
    inner_->on_invoke_id(sc, id, op, arg);
  }
  void on_message(Context& ctx, ProcId src, const Payload& payload) override {
    SendsContext sc(ctx, broadcasts_);
    inner_->on_message(sc, src, payload);
  }
  void on_timer(Context& ctx, TimerId id, const Payload& data) override {
    SendsContext sc(ctx, broadcasts_);
    inner_->on_timer(sc, id, data);
  }

 private:
  std::unique_ptr<Process> inner_;
  std::size_t& broadcasts_;
};

struct Run {
  RunRecord record;
  std::vector<std::string> final_states;  ///< per process
  std::size_t broadcasts_split = 0;       ///< by BroadcastAsSends; 0 when plain
};

/// Runs Algorithm 1 on `spec`'s model, delays, clocks, loss and workload
/// (open-loop calls and closed-loop scripts, as harness::execute drives
/// them) on a World built here, so that each process can be wrapped.
Run run_algorithm_one(const adt::DataType& type, const harness::RunSpec& spec,
                      RecordDetail detail, bool timers_first, bool as_sends) {
  WorldConfig config;
  config.type = &type;
  config.params = spec.params;
  config.clock_offsets = spec.clock_offsets;
  config.clock_rates = spec.clock_rates;
  config.delays = spec.delays;
  config.drop_probability = spec.drop_probability;
  config.drop_seed = spec.drop_seed;
  config.record_detail = detail;
  config.timers_before_deliveries = timers_first;
  const auto timing = core::TimingPolicy::standard(spec.params, spec.X);

  Run run;
  std::vector<const core::AlgorithmOneProcess*> replicas;
  World world(config, [&](ProcId) -> std::unique_ptr<Process> {
    auto proc = std::make_unique<core::AlgorithmOneProcess>(type, timing);
    replicas.push_back(proc.get());
    if (!as_sends) return proc;
    return std::make_unique<BroadcastAsSends>(std::move(proc), run.broadcasts_split);
  });
  for (const auto& call : spec.calls) {
    world.invoke_at(call.when, call.proc, type.op_id(call.op), call.arg);
  }
  std::vector<std::size_t> next(spec.scripts.size(), 0);
  const auto advance = [&](World& w, ProcId p, Time when) {
    const auto& script = spec.scripts[static_cast<std::size_t>(p)];
    auto& i = next[static_cast<std::size_t>(p)];
    if (i == script.size()) return;
    w.invoke_at(when, p, type.op_id(script[i].op), script[i].arg);
    ++i;
  };
  if (!spec.scripts.empty()) {
    world.set_response_hook([&](World& w, const OpRecord& op) {
      advance(w, op.proc, w.now() + spec.script_gap);
    });
    for (ProcId p = 0; p < spec.params.n; ++p) advance(world, p, spec.script_start);
  }
  world.run();
  run.record = world.take_record();
  for (const auto* r : replicas) run.final_states.push_back(r->state_canonical());
  return run;
}

std::string ops_to_string(const RunRecord& record) {
  std::string out;
  for (const auto& op : record.ops) {
    out += op.to_string();
    out += '\n';
  }
  return out;
}

/// Runs one spec plain and with every broadcast split into sends, at both
/// record detail levels, and requires byte-identical records between plain
/// and split at each level, equal final states, and byte-identical ops
/// arrays across all four runs (the detail knob changes what is recorded,
/// never what happens).  `make_spec` is invoked once per run: stateful
/// delay models draw from a sequential RNG, so each run needs a freshly
/// seeded instance.
void expect_broadcast_matches_sends(const adt::DataType& type,
                                    const std::function<harness::RunSpec()>& make_spec,
                                    const std::string& label, bool timers_first = false) {
  Run runs[2][2];  // [as_sends][detail]
  for (const bool as_sends : {false, true}) {
    for (const auto detail : {RecordDetail::kFull, RecordDetail::kOpsOnly}) {
      runs[as_sends ? 1 : 0][detail == RecordDetail::kOpsOnly ? 1 : 0] =
          run_algorithm_one(type, make_spec(), detail, timers_first, as_sends);
    }
  }
  EXPECT_GT(runs[1][0].broadcasts_split, 0u) << label << ": no broadcast to split";
  EXPECT_FALSE(runs[0][0].record.messages.empty()) << label;
  for (const int detail : {0, 1}) {
    const char* level = detail == 0 ? " (full detail)" : " (ops only)";
    EXPECT_EQ(record_to_string(runs[0][detail].record), record_to_string(runs[1][detail].record))
        << label << level;
    EXPECT_EQ(runs[0][detail].final_states, runs[1][detail].final_states) << label << level;
  }
  const std::string ops = ops_to_string(runs[0][0].record);
  EXPECT_EQ(ops, ops_to_string(runs[0][1].record)) << label << " (plain, detail levels)";
  EXPECT_EQ(ops, ops_to_string(runs[1][1].record)) << label << " (split ops-only vs plain full)";
}

TEST(SchedulerEquivalenceTest, SixtySeedsByteIdentical) {
  adt::QueueType queue;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto make_spec = [&queue, seed] {
      harness::RunSpec spec;
      const int n = 2 + static_cast<int>(seed % 4);  // 2..5 processes
      spec.params = ModelParams{n, 10.0, 2.0, 0.0};
      spec.params.eps = spec.params.optimal_eps();
      spec.X = (seed % 3 == 0) ? (spec.params.d - spec.params.eps) / 2 : 0.0;
      spec.delays = std::make_shared<UniformRandomDelay>(spec.params.min_delay(),
                                                         spec.params.d, seed);
      // Every third seed adds the model extensions (drift + loss); every
      // fourth skews the clocks.
      if (seed % 3 == 1) {
        spec.clock_rates.assign(static_cast<std::size_t>(n), 1.0);
        spec.clock_rates[0] = 1.01;
        spec.clock_rates[1] = 0.99;
        spec.drop_probability = 0.1;
        spec.drop_seed = seed * 13;
      }
      if (seed % 4 == 1) {
        for (int p = 0; p < n; ++p) spec.clock_offsets.push_back((p % 2 == 0) ? 0.4 : -0.4);
      }
      spec.scripts = harness::random_scripts(queue, n, 5, seed * 31);
      return spec;
    };
    expect_broadcast_matches_sends(queue, make_spec, "seed " + std::to_string(seed));
  }
}

TEST(SchedulerEquivalenceTest, TieStormByteIdentical) {
  // Every process invokes at the SAME instants under constant delays:
  // maximal (when)-ties, so ordering is decided purely by tie rank and FIFO
  // sequence -- which the split sends must consume exactly as the shared
  // fan-out does.
  adt::QueueType queue;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto make_spec = [&queue, seed] {
      harness::RunSpec spec;
      spec.params = ModelParams{4, 10.0, 2.0, 0.0};
      spec.params.eps = spec.params.optimal_eps();
      const auto scripts = harness::random_scripts(queue, 4, 6, seed);
      for (int i = 0; i < 6; ++i) {
        for (int p = 0; p < 4; ++p) {
          spec.calls.push_back(harness::Call{20.0 * i, p,
                                             scripts[static_cast<std::size_t>(p)][i].op,
                                             scripts[static_cast<std::size_t>(p)][i].arg});
        }
      }
      return spec;
    };
    expect_broadcast_matches_sends(queue, make_spec, "tie storm seed " + std::to_string(seed));
  }
}

TEST(SchedulerEquivalenceTest, BroadcastTieStormByteIdentical) {
  // All six processes invoke MUTATORS at the same instants under the default
  // constant delay, so every epoch fans n*(n-1) broadcast deliveries out to
  // identical arrival times.  The shared-payload fan-out (one stored
  // payload, n-1 referencing entries) must replay the per-send delivery
  // order exactly, at both record detail levels.
  adt::QueueType queue;
  for (const std::uint64_t seed : {3u, 14u, 15u, 92u}) {
    const auto make_spec = [seed] {
      harness::RunSpec spec;
      spec.params = ModelParams{6, 10.0, 2.0, 0.0};
      spec.params.eps = spec.params.optimal_eps();
      std::mt19937_64 rng(seed);
      for (int i = 0; i < 5; ++i) {
        for (int p = 0; p < 6; ++p) {
          spec.calls.push_back(harness::Call{
              30.0 * i, p, "enqueue", adt::Value{static_cast<std::int64_t>(rng() % 100)}});
        }
      }
      return spec;
    };
    expect_broadcast_matches_sends(queue, make_spec,
                                   "broadcast storm seed " + std::to_string(seed));
  }
}

TEST(SchedulerEquivalenceTest, TimersBeforeDeliveriesBothWays) {
  // The tie-rank ablation flips which kind wins equal-time ties; the split
  // sends must match the shared fan-out under BOTH settings.
  adt::QueueType queue;
  for (const bool timers_first : {false, true}) {
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
      const auto make_spec = [seed] {
        harness::RunSpec spec;
        spec.params = ModelParams{3, 10.0, 2.0, 0.0};
        spec.params.eps = spec.params.optimal_eps();
        spec.delays = std::make_shared<UniformRandomDelay>(spec.params.min_delay(),
                                                           spec.params.d, seed);
        for (int i = 0; i < 4; ++i) {
          for (int p = 0; p < 3; ++p) {
            spec.calls.push_back(harness::Call{25.0 * i, p, i % 2 == 0 ? "enqueue" : "dequeue",
                                               adt::Value{i * 3 + p}});
          }
        }
        return spec;
      };
      expect_broadcast_matches_sends(
          queue, make_spec,
          "timers_first=" + std::to_string(timers_first) + " seed " + std::to_string(seed),
          timers_first);
    }
  }
}

TEST(SchedulerEquivalenceTest, OpsOnlyRecordingKeepsOpsIdentical) {
  // kOpsOnly drops steps and messages but the ops array must be identical
  // byte for byte with a full-detail run.
  adt::QueueType queue;
  harness::RunSpec spec;
  spec.params = ModelParams{4, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.delays = std::make_shared<UniformRandomDelay>(spec.params.min_delay(), spec.params.d, 9);
  spec.scripts = harness::random_scripts(queue, 4, 6, 77);
  const auto full = harness::execute(queue, spec);
  // Fresh delay model: UniformRandomDelay draws sequentially per run.
  spec.delays = std::make_shared<UniformRandomDelay>(spec.params.min_delay(), spec.params.d, 9);
  spec.record_detail = RecordDetail::kOpsOnly;
  const auto lean = harness::execute(queue, spec);

  EXPECT_TRUE(lean.record.steps.empty());
  EXPECT_TRUE(lean.record.messages.empty());
  ASSERT_EQ(full.record.ops.size(), lean.record.ops.size());
  for (std::size_t i = 0; i < full.record.ops.size(); ++i) {
    EXPECT_EQ(full.record.ops[i].to_string(), lean.record.ops[i].to_string()) << "op " << i;
  }
}

}  // namespace
}  // namespace lintime::sim
