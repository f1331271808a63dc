// Outside-in tracing: spans around calls into the library, and a process
// decorator whose Context wrapper counts and times every call an algorithm
// makes into the simulator.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "adt/fingerprint.hpp"
#include "bench.hpp"
#include "core/algorithm_one.hpp"
#include "core/sharded_store.hpp"
#include "core/timing_policy.hpp"
#include "sim/world.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Tracer

std::uint32_t Tracer::open(std::string name, std::uint32_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = std::move(name);
  s.start_s = seconds_between(origin_, Clock::now());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::close(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  spans_.at(id - 1).end_s = seconds_between(origin_, Clock::now());
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Ledger

double Ledger::handlers_total_s() const {
  double s = 0;
  for (const double t : handler_s) s += t;
  return s;
}

double Ledger::calls_total_s() const {
  double s = 0;
  for (const double t : call_s) s += t;
  return s;
}

std::uint64_t Ledger::steps() const {
  return handler_count[kInvoke] + handler_count[kMessage] + handler_count[kTimer];
}

std::uint64_t Ledger::events() const {
  return handler_count[kInvoke] + handler_count[kMessage] + call_count[kSetTimer];
}

namespace {

/// Adds the time since construction to one ledger slot on destruction.
class ScopedTimer {
 public:
  ScopedTimer(double& total, std::uint64_t& count) : total_(total), start_(Clock::now()) {
    ++count;
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { total_ += seconds_between(start_, Clock::now()); }

 private:
  double& total_;
  Clock::time_point start_;
};

class TracedContext final : public sim::Context {
 public:
  TracedContext(sim::Context& outer, Ledger& ledger) : outer_(outer), ledger_(ledger) {}

  [[nodiscard]] sim::ProcId self() const override { return outer_.self(); }
  [[nodiscard]] int n() const override { return outer_.n(); }
  [[nodiscard]] const sim::ModelParams& params() const override { return outer_.params(); }
  [[nodiscard]] sim::Time local_time() const override { return outer_.local_time(); }

  void send(sim::ProcId dst, sim::Payload payload) override {
    ScopedTimer t = timer(Ledger::kSend);
    outer_.send(dst, std::move(payload));
  }
  void broadcast(sim::Payload payload) override {
    ScopedTimer t = timer(Ledger::kBroadcast);
    outer_.broadcast(std::move(payload));
  }
  sim::TimerId set_timer(sim::Time delay, sim::Payload data) override {
    ScopedTimer t = timer(Ledger::kSetTimer);
    return outer_.set_timer(delay, std::move(data));
  }
  void cancel_timer(sim::TimerId id) override {
    ScopedTimer t = timer(Ledger::kCancelTimer);
    outer_.cancel_timer(id);
  }
  void respond(adt::Value ret) override {
    ScopedTimer t = timer(Ledger::kRespond);
    outer_.respond(std::move(ret));
  }

 private:
  [[nodiscard]] ScopedTimer timer(Ledger::Call c) {
    return ScopedTimer(ledger_.call_s[c], ledger_.call_count[c]);
  }

  sim::Context& outer_;
  Ledger& ledger_;
};

class TracedProcess final : public sim::Process {
 public:
  TracedProcess(std::unique_ptr<sim::Process> inner, Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  void on_start(sim::Context& ctx) override {
    TracedContext tc(ctx, ledger_);
    inner_->on_start(tc);
  }
  void on_invoke(sim::Context& ctx, const std::string& op, const adt::Value& arg) override {
    ScopedTimer t = timer(Ledger::kInvoke);
    TracedContext tc(ctx, ledger_);
    inner_->on_invoke(tc, op, arg);
  }
  void on_invoke_id(sim::Context& ctx, adt::OpId id, const std::string& op,
                    const adt::Value& arg) override {
    ScopedTimer t = timer(Ledger::kInvoke);
    TracedContext tc(ctx, ledger_);
    inner_->on_invoke_id(tc, id, op, arg);
  }
  void on_message(sim::Context& ctx, sim::ProcId src, const sim::Payload& payload) override {
    ScopedTimer t = timer(Ledger::kMessage);
    TracedContext tc(ctx, ledger_);
    inner_->on_message(tc, src, payload);
  }
  void on_timer(sim::Context& ctx, sim::TimerId id, const sim::Payload& data) override {
    ScopedTimer t = timer(Ledger::kTimer);
    TracedContext tc(ctx, ledger_);
    inner_->on_timer(tc, id, data);
  }

 private:
  [[nodiscard]] ScopedTimer timer(Ledger::Handler h) {
    return ScopedTimer(ledger_.handler_s[h], ledger_.handler_count[h]);
  }

  std::unique_ptr<sim::Process> inner_;
  Ledger& ledger_;
};

/// Closed-loop driver, the same discipline as harness::execute's: each
/// process invokes its next script step `gap` after its previous response.
struct ScriptDriver {
  const std::vector<std::vector<harness::ScriptOp>>* scripts = nullptr;
  std::vector<std::vector<adt::OpId>> ids;
  std::vector<std::size_t> next;
  sim::Time gap = 0;

  void advance(sim::World& world, sim::ProcId p, sim::Time when) {
    const auto pi = static_cast<std::size_t>(p);
    auto& cursor = next[pi];
    const auto& script = (*scripts)[pi];
    if (cursor >= script.size()) return;
    world.invoke_at(when, p, ids[pi][cursor], script[cursor].arg);
    ++cursor;
  }
};

}  // namespace

sim::RunRecord traced_execute(const adt::DataType& type, const harness::RunSpec& spec,
                              Ledger& ledger, Tracer& tracer, std::uint32_t parent) {
  if (spec.workload != nullptr) {
    throw std::invalid_argument("traced_execute: materialize the plan first");
  }
  const auto t0 = Clock::now();
  const std::uint32_t submit = tracer.open("submit", parent);
  sim::WorldConfig config;
  config.type = &type;
  config.params = spec.params;
  config.clock_offsets = spec.clock_offsets;
  config.delays = spec.delays;
  config.clock_rates = spec.clock_rates;
  config.drop_probability = spec.drop_probability;
  config.drop_seed = spec.drop_seed;
  config.faults = spec.faults;
  config.scheduler = spec.scheduler;
  config.record_detail = spec.record_detail;
  const bool full_detail = spec.record_detail == sim::RecordDetail::kFull;
  const core::TimingPolicy timing =
      spec.timing.value_or(core::TimingPolicy::standard(spec.params, spec.X));

  sim::World::ProcessFactory factory = [&](sim::ProcId) -> std::unique_ptr<sim::Process> {
    std::unique_ptr<sim::Process> inner;
    switch (spec.algo) {
      case harness::AlgoKind::kAlgorithmOne: {
        auto proc = std::make_unique<core::AlgorithmOneProcess>(type, timing);
        proc->set_execution_logging(full_detail);
        inner = std::move(proc);
        break;
      }
      case harness::AlgoKind::kShardedServing: {
        const auto* store = dynamic_cast<const core::ShardedStore*>(&type);
        if (store == nullptr) throw std::invalid_argument("traced_execute: not a ShardedStore");
        auto proc = std::make_unique<core::ShardedServingProcess>(*store, timing);
        proc->set_execution_logging(full_detail);
        inner = std::move(proc);
        break;
      }
      default:
        throw std::invalid_argument(std::string("traced_execute: unsupported algorithm ") +
                                    harness::to_string(spec.algo));
    }
    return std::make_unique<TracedProcess>(std::move(inner), ledger);
  };

  sim::World world(config, factory);
  for (const auto& call : spec.calls) {
    world.invoke_at(call.when, call.proc, type.op_id(call.op), call.arg);
  }
  ScriptDriver driver;
  if (!spec.scripts.empty()) {
    if (spec.scripts.size() != static_cast<std::size_t>(spec.params.n)) {
      throw std::invalid_argument("traced_execute: scripts.size() must equal n");
    }
    driver.scripts = &spec.scripts;
    for (const auto& script : spec.scripts) {
      auto& ids = driver.ids.emplace_back();
      for (const auto& step : script) ids.push_back(type.op_id(step.op));
    }
    driver.next.assign(spec.scripts.size(), 0);
    driver.gap = spec.script_gap;
    world.set_response_hook([&driver](sim::World& w, const sim::OpRecord& op) {
      driver.advance(w, op.proc, w.now() + driver.gap);
    });
    for (sim::ProcId p = 0; p < spec.params.n; ++p) driver.advance(world, p, spec.script_start);
  }
  tracer.close(submit);

  const auto t1 = Clock::now();
  const std::uint32_t run = tracer.open("run", parent);
  world.run(spec.max_events);
  tracer.close(run);

  const auto t2 = Clock::now();
  const std::uint32_t take = tracer.open("take-record", parent);
  sim::RunRecord record = world.take_record();
  tracer.close(take);
  const auto t3 = Clock::now();
  ledger.submit_s += seconds_between(t0, t1);
  ledger.run_s += seconds_between(t1, t2);
  ledger.take_s += seconds_between(t2, t3);
  return record;
}

// ---------------------------------------------------------------------------
// History comparison

std::uint64_t ops_digest(const std::vector<sim::OpRecord>& ops) {
  adt::FpHasher h;
  h.mix(ops.size());
  for (const auto& op : ops) {
    h.mix(static_cast<std::uint64_t>(op.proc));
    h.mix_bytes(op.op);
    op.arg.feed(h);
    op.ret.feed(h);
    h.mix(std::bit_cast<std::uint64_t>(op.invoke_real));
    h.mix(std::bit_cast<std::uint64_t>(op.response_real));
    h.mix(op.uid);
    h.mix(op.op_id.valid() ? op.op_id.index() : ~std::uint64_t{0});
  }
  const adt::Fingerprint f = h.finish();
  return f.hi ^ (f.lo * 0x9e3779b97f4a7c15ULL);
}

bool ops_equal(const std::vector<sim::OpRecord>& a, const std::vector<sim::OpRecord>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const sim::OpRecord& x, const sim::OpRecord& y) {
                      return x.proc == y.proc && x.op == y.op && x.arg == y.arg &&
                             x.ret == y.ret && x.invoke_real == y.invoke_real &&
                             x.response_real == y.response_real && x.uid == y.uid &&
                             x.op_id == y.op_id;
                    });
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
