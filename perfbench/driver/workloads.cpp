// The three workloads.  Each one sets up several times (setup_s is the
// median), runs one untimed reference round that every later round must
// reproduce, then measures rounds until the time budget is spent.  A traced
// run alternates traced and untraced rounds so the per-layer split and the
// tracing overhead come from the same process.

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adt/register_type.hpp"
#include "bench.hpp"
#include "campaign/metrics.hpp"
#include "core/sharded_store.hpp"
#include "harness/workload.hpp"
#include "lin/check.hpp"
#include "lin/fast/history_gen.hpp"
#include "scenario/expand.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

namespace campaign = lintime::campaign;
namespace lin = lintime::lin;
namespace scenario = lintime::scenario;

namespace {

/// Set-up passes per run; setup_s is their median.  The first runs before
/// the reference round, the others are spread over the measured phase (see
/// measure_rounds), so setup_s samples the shared host over the same
/// stretch of time as ops_per_s rather than only its first second.
constexpr int kSetupReps = 9;
/// Measured rounds per run at the least, whatever the time budget.
constexpr int kMinRounds = 3;
/// A traced run alternates traced and untraced rounds until it has this
/// many traced ones, then measures untraced rounds only; the per-layer split
/// needs few rounds, and check-search records one span per job.
constexpr int kTracedRounds = 6;

/// A clock reading in traced rounds, the epoch otherwise: untraced rounds
/// time whole loops only, so seconds_between two stamps is 0 there.
[[nodiscard]] Clock::time_point stamp(bool traced) {
  return traced ? Clock::now() : Clock::time_point{};
}

[[nodiscard]] std::string scenario_path(const Options& opt, const char* file) {
  return opt.scenario_dir + "/" + file;
}

[[nodiscard]] double safe_ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Materializes a job's generated plan into its spec, so the timed phase
/// never regenerates it.  Returns the number of planned invocations.
std::size_t materialize(harness::RunSpec& spec, harness::WorkloadPlan plan) {
  spec.workload = nullptr;
  spec.calls = std::move(plan.calls);
  spec.scripts = std::move(plan.scripts);
  spec.script_start = plan.script_start;
  spec.script_gap = plan.script_gap;
  std::size_t planned = spec.calls.size();
  for (const auto& script : spec.scripts) planned += script.size();
  return planned;
}

/// Nearest-rank percentiles of completed-op latency, in units of d.
struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0;
  double p999 = 0;
};

void collect_latencies(const std::vector<sim::OpRecord>& ops, double d, std::vector<double>& out) {
  for (const auto& op : ops) {
    if (op.complete()) out.push_back(op.latency() / d);
  }
}

[[nodiscard]] LatencySummary summarize(std::vector<double> lat) {
  LatencySummary s;
  if (lat.empty()) return s;
  std::sort(lat.begin(), lat.end());
  s.samples = lat.size();
  s.p50 = campaign::percentile(lat, 0.50);
  s.p999 = campaign::percentile(lat, 0.999);
  return s;
}

/// One line on how the measured rounds' rates spread inside this run.
[[nodiscard]] std::string rounds_info(std::vector<double> rates, std::size_t traced) {
  std::string out = std::to_string(rates.size()) + " untraced + " + std::to_string(traced) +
                    " traced rounds";
  if (rates.empty()) return out;
  std::sort(rates.begin(), rates.end());
  const auto at = [&](double q) { return std::to_string(campaign::percentile(rates, q)); };
  return out + "; ops/s min " + at(0) + ", q1 " + at(0.25) + ", median " + at(0.5) + ", q3 " +
         at(0.75) + ", max " + at(1);
}

[[nodiscard]] std::string setup_info(const std::vector<double>& reps) {
  std::string out = "set-up passes (s):";
  for (const double r : reps) {
    out += ' ';
    out += std::to_string(r);
  }
  return out;
}

/// lin::check statistics split by route.
struct LinStats {
  std::uint64_t general_histories = 0;
  std::uint64_t general_nodes = 0;
  std::uint64_t general_memo_hits = 0;
  std::uint64_t general_memo_collisions = 0;
  std::uint64_t general_top_job_nodes = 0;
  double general_s = 0;
  std::uint64_t fast_histories = 0;
  std::uint64_t fast_ops = 0;
  double fast_s = 0;

  void record(const lin::CheckReport& r, std::size_t ops, double s) {
    if (r.stats.route == lin::CheckRoute::kFastPath) {
      ++fast_histories;
      fast_ops += ops;
      fast_s += s;
    } else {
      ++general_histories;
      general_nodes += r.stats.nodes_expanded;
      general_memo_hits += r.stats.memo_hits;
      general_memo_collisions += r.stats.memo_collisions;
      general_top_job_nodes = std::max<std::uint64_t>(general_top_job_nodes,
                                                      r.stats.nodes_expanded);
      general_s += s;
    }
  }
  void add(const LinStats& o) {
    general_histories += o.general_histories;
    general_nodes += o.general_nodes;
    general_memo_hits += o.general_memo_hits;
    general_memo_collisions += o.general_memo_collisions;
    general_top_job_nodes = std::max(general_top_job_nodes, o.general_top_job_nodes);
    general_s += o.general_s;
    fast_histories += o.fast_histories;
    fast_ops += o.fast_ops;
    fast_s += o.fast_s;
  }
};

/// Wall time of one measured round, and the part of it ops_per_s divides by.
struct RoundTime {
  double wall_s = 0;
  double timed_s = 0;
};

/// The measured rounds of one run.
struct Measured {
  std::vector<double> rates;          ///< ops/s of each untraced round
  std::vector<double> untraced_wall;  ///< untraced rounds interleaved with traced ones
  std::vector<double> traced_wall;
};

/// Runs measured rounds until their wall time adds up to opt.seconds, and
/// at least kMinRounds of them; a traced run first alternates traced and
/// untraced rounds until it has kTracedRounds traced ones.  Set-up passes 2
/// to kSetupReps run between rounds as they fall due (pass k once the rounds
/// have used (k - 1) / kSetupReps of the budget), any left over after the
/// last round.  `round(traced, span)` runs one round under `span`.
template <class SetUp, class Round>
Measured measure_rounds(const Options& opt, std::size_t planned, Tracer& tracer,
                        std::uint32_t root, SetUp set_up, Round round) {
  Measured m;
  int setups = 1;
  double spent = 0;
  const int interleaved = opt.trace ? 2 * kTracedRounds : 0;
  for (int i = 0; i < std::max(kMinRounds, interleaved) || spent < opt.seconds; ++i) {
    for (; setups < kSetupReps && spent >= opt.seconds * setups / kSetupReps; ++setups) set_up();
    const bool traced = i < interleaved && i % 2 == 0;
    const std::uint32_t span = tracer.open(traced ? "round-traced" : "round", root);
    const RoundTime t = round(traced, span);
    tracer.close(span);
    spent += t.wall_s;
    if (traced) {
      m.traced_wall.push_back(t.wall_s);
    } else {
      m.rates.push_back(static_cast<double>(planned) / t.timed_s);
      if (i < interleaved) m.untraced_wall.push_back(t.wall_s);
    }
  }
  for (; setups < kSetupReps; ++setups) set_up();
  return m;
}

/// The end-to-end metrics of an untraced run.
void add_end_to_end(Result& res, const Measured& m, const std::vector<double>& setup_s,
                    double rss, const LatencySummary& lat, double msgs_per_op) {
  res.add("ops_per_s", median(m.rates), "ops/s");
  res.add("setup_s", median(setup_s), "s");
  res.add("peak_rss_mb", rss, "MB");
  res.add("sim_lat_p50_d", lat.p50, "d");
  res.add("sim_lat_p999_d", lat.p999, "d");
  res.add("msgs_per_op", msgs_per_op, "msgs/op");
  res.info.push_back("sim_lat_samples = " + std::to_string(lat.samples));
}

/// Traced-run accumulators shared by all workloads.
struct LayerTotals {
  double reduce_s = 0;
  double group_s = 0;
  LinStats lin;
  Ledger ledger;
  std::uint64_t ledger_ops = 0;  ///< completed ops the ledger's counts cover
};

/// Adds the per-layer metrics of a traced run.  `sim_runs` is how many
/// simulations the ledger covers; round-level totals are averaged over the
/// traced rounds.  `round_parts_s` is the layer time inside traced rounds,
/// whose share of their wall time bench.layer_sum_share reports.
void add_layer_metrics(Result& res, const LayerTotals& t, const Measured& m, double sim_runs,
                       double expand_s, double plan_s, double plan_calls, double execute_s,
                       double round_parts_s) {
  const double rounds = static_cast<double>(std::max<std::size_t>(m.traced_wall.size(), 1));
  const Ledger& l = t.ledger;
  const double ops = static_cast<double>(std::max<std::uint64_t>(t.ledger_ops, 1));
  const double core_self = l.core_self_s();
  const double sim_self = l.run_s - core_self;
  const double events = static_cast<double>(l.events());
  const double steps = static_cast<double>(l.steps());
  const double lin_s = t.lin.general_s + t.lin.fast_s;
  const double checks = static_cast<double>(t.lin.general_histories + t.lin.fast_histories);

  res.add("scenario.expand_s", expand_s, "s");
  res.add("harness.plan_s", plan_s, "s");
  res.add("harness.plan_calls", plan_calls, "count");
  res.add("harness.execute_s", execute_s, "s");
  res.add("sim.submit_s", l.submit_s / sim_runs, "s");
  res.add("sim.self_s", sim_self / sim_runs, "s");
  res.add("sim.take_record_s", l.take_s / sim_runs, "s");
  res.add("sim.ns_per_event", safe_ratio(sim_self * 1e9, events), "ns");
  res.add("sim.events_per_op", events / ops, "1/op");
  res.add("sim.timers_set_per_op",
          static_cast<double>(l.call_count[Ledger::kSetTimer]) / ops, "1/op");
  res.add("sim.timers_fired_per_op",
          static_cast<double>(l.handler_count[Ledger::kTimer]) / ops, "1/op");
  res.add("sim.cancelled_pops_per_op", static_cast<double>(l.cancelled_pops()) / ops, "1/op");
  res.add("core.self_s", core_self / sim_runs, "s");
  res.add("core.ns_per_event", safe_ratio(core_self * 1e9, steps), "ns");
  res.add("core.broadcasts_per_op",
          static_cast<double>(l.call_count[Ledger::kBroadcast]) / ops, "1/op");
  res.add("core.cancel_calls_per_op",
          static_cast<double>(l.call_count[Ledger::kCancelTimer]) / ops, "1/op");
  res.add("lin.general.histories", static_cast<double>(t.lin.general_histories) / rounds,
          "count");
  res.add("lin.general.nodes", static_cast<double>(t.lin.general_nodes) / rounds, "count");
  res.add("lin.general.nodes_per_s",
          safe_ratio(static_cast<double>(t.lin.general_nodes), t.lin.general_s), "1/s");
  res.add("lin.general.memo_hit_ratio",
          safe_ratio(static_cast<double>(t.lin.general_memo_hits),
                     static_cast<double>(t.lin.general_nodes)),
          "ratio");
  res.add("lin.general.memo_collisions",
          static_cast<double>(t.lin.general_memo_collisions) / rounds, "count");
  res.add("lin.general.top_job_node_share",
          safe_ratio(static_cast<double>(t.lin.general_top_job_nodes),
                     static_cast<double>(t.lin.general_nodes) / rounds),
          "ratio");
  res.add("lin.fast.histories", static_cast<double>(t.lin.fast_histories) / rounds, "count");
  res.add("lin.fast.ops_per_s", safe_ratio(static_cast<double>(t.lin.fast_ops), t.lin.fast_s),
          "1/s");
  res.add("lin.fast_route_share",
          safe_ratio(static_cast<double>(t.lin.fast_histories), checks), "ratio");
  res.add("lin.self_s", lin_s / rounds, "s");
  res.add("campaign.reduce_s", t.reduce_s / rounds, "s");
  res.add("bench.group_s", t.group_s / rounds, "s");
  res.add("bench.trace_overhead", safe_ratio(median(m.traced_wall), median(m.untraced_wall)),
          "ratio");
  double traced_wall = 0;
  for (const double w : m.traced_wall) traced_wall += w;
  res.add("bench.layer_sum_share", safe_ratio(round_parts_s, traced_wall), "ratio");
}

// ===========================================================================
// Serving workloads: serve-uniform, serve-zipf-audit

/// One serving job after set-up: the expanded campaign (it owns the store)
/// and the job's spec with the plan materialized.
struct ServeSetup {
  scenario::ScenarioCampaign camp;
  const core::ShardedStore* store = nullptr;
  harness::RunSpec spec;
  std::size_t planned = 0;
  double expand_s = 0;
  double plan_s = 0;
};

ServeSetup serve_setup(const Options& opt, const char* file, Tracer& tracer,
                       std::uint32_t parent) {
  ServeSetup s;
  const auto t0 = Clock::now();
  const std::uint32_t expand = tracer.open("expand", parent);
  const scenario::Scenario sc = scenario::load_scenario_file(scenario_path(opt, file));
  s.camp = scenario::expand(sc, {{"seed", {std::to_string(opt.seed)}}});
  tracer.close(expand);
  const auto t1 = Clock::now();
  if (s.camp.spec.jobs.size() != 1) {
    throw std::runtime_error(std::string(file) + ": expected one job");
  }
  campaign::Job& job = s.camp.spec.jobs.front();
  s.store = dynamic_cast<const core::ShardedStore*>(job.type);
  if (s.store == nullptr || job.spec.workload == nullptr) {
    throw std::runtime_error(std::string(file) + ": expected a [store] job with a workload");
  }
  const std::uint32_t plan = tracer.open("plan", parent);
  harness::WorkloadPlan generated = job.spec.workload->generate(*job.type, job.spec.params);
  tracer.close(plan);
  const auto t2 = Clock::now();
  s.spec = job.spec;
  s.planned = materialize(s.spec, std::move(generated));
  // The scenario layer pins X = 0 for sharded serving, where reads answer in
  // d and writes in eps: a 50/50 mix whose median flips between the two with
  // the seed.  X = (d - eps) / 2 makes both d - X = X + eps, so the median
  // and the tail are the same exact bound on every seed.
  s.spec.X = (s.spec.params.d - s.spec.params.eps) / 2;
  s.expand_s = seconds_between(t0, t1);
  s.plan_s = seconds_between(t1, t2);
  return s;
}

/// Every touched key's component history, in first-touch order.
struct KeyGroups {
  std::vector<std::int64_t> keys;
  std::vector<std::vector<sim::OpRecord>> histories;

  /// The key with the most ops; ties go to the smaller key.
  [[nodiscard]] std::size_t hottest() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < histories.size(); ++i) {
      const std::size_t a = histories[i].size();
      const std::size_t b = histories[best].size();
      if (a > b || (a == b && keys[i] < keys[best])) best = i;
    }
    return best;
  }
};

/// One pass over a keyed history: strips the [key, inner] envelope and
/// appends each record to its key's history (records are moved out).
KeyGroups group_by_key(std::vector<sim::OpRecord>& ops, const core::ShardedStore& store) {
  KeyGroups g;
  std::unordered_map<std::int64_t, std::size_t> index;
  index.reserve(ops.size());
  for (auto& op : ops) {
    const auto ka = store.split(op.arg);
    const auto [it, inserted] = index.try_emplace(ka.key, g.histories.size());
    if (inserted) {
      g.keys.push_back(ka.key);
      g.histories.emplace_back();
    }
    adt::Value inner = *ka.inner;  // copy first: ka.inner points into op.arg
    op.arg = std::move(inner);
    g.histories[it->second].push_back(std::move(op));
  }
  return g;
}

[[nodiscard]] std::uint64_t groups_digest(const KeyGroups& g) {
  std::uint64_t h = g.keys.size();
  for (std::size_t i = 0; i < g.keys.size(); ++i) {
    h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(g.keys[i]);
    h = h * 0x100000001b3ULL ^ ops_digest(g.histories[i]);
  }
  return h;
}

/// Outcome of auditing every touched key.
struct Audit {
  std::size_t keys = 0;
  std::size_t hottest_ops = 0;
  std::size_t failed_ops = 0;      ///< ops in histories judged not linearizable
  std::size_t off_route = 0;       ///< histories that missed the fast route
  /// Off-route histories that write the register's initial value: the
  /// serving generator's value for process 0's first op is 0, which makes
  /// reads of 0 on that key ambiguous, so the classifier rightly sends that
  /// one history to the general search.
  std::size_t off_route_initial_write = 0;
  std::size_t off_route_ops = 0;
  LinStats lin;
  double check_s = 0;
};

[[nodiscard]] bool writes_initial_value(const adt::DataType& reg,
                                        const std::vector<sim::OpRecord>& history) {
  const adt::Value v0 = reg.initial_state()->apply(adt::RegisterType::kRead, adt::Value::nil());
  return std::any_of(history.begin(), history.end(), [&](const sim::OpRecord& op) {
    return op.op == adt::RegisterType::kWrite && op.arg == v0;
  });
}

/// Checks every key history.  Per-history times (a.lin) are taken only when
/// `traced`; a.check_s always times the whole loop.
Audit audit_keys(KeyGroups& g, const core::ShardedStore& store, bool corrupt_hottest,
                 bool traced, Tracer& tracer, std::uint32_t parent) {
  Audit a;
  a.keys = g.histories.size();
  const std::size_t hot = g.hottest();
  a.hottest_ops = g.histories.empty() ? 0 : g.histories[hot].size();
  if (corrupt_hottest && !g.histories.empty()) {
    lin::fast::append_impossible_observation(store.component(), g.histories[hot]);
  }
  const std::uint32_t span = tracer.open("check", parent);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < g.histories.size(); ++i) {
    const auto c0 = stamp(traced);
    lin::CheckReport r;
    try {
      r = lin::check(store.component(), g.histories[i]);
    } catch (const std::exception&) {
      // Unjudgeable (an incomplete record): every op in it fails.
      a.failed_ops += g.histories[i].size();
      ++a.off_route;
      continue;
    }
    a.lin.record(r, g.histories[i].size(), seconds_between(c0, stamp(traced)));
    if (!r.result.linearizable) {
      // The injected observation is not an attempted op.
      a.failed_ops += g.histories[i].size() - (corrupt_hottest && i == hot ? 1 : 0);
    }
    if (r.stats.route != lin::CheckRoute::kFastPath) {
      ++a.off_route;
      a.off_route_ops += g.histories[i].size();
      if (writes_initial_value(store.component(), g.histories[i])) ++a.off_route_initial_write;
    }
  }
  a.check_s = seconds_between(t0, Clock::now());
  tracer.close(span);
  return a;
}

/// One serving round: simulate, reduce and (audit workload) group + check.
struct ServeRound {
  double execute_s = 0;
  double reduce_s = 0;
  double group_s = 0;
  double check_s = 0;
  double wall_s = 0;
  std::size_t complete = 0;
  std::uint64_t digest = 0;  ///< of the history, or of the key groups
  Audit audit;
};

/// A traced round (`ledger` set) simulates through the traced mirror.
ServeRound serve_round(const ServeSetup& s, bool audit, bool corrupt, Ledger* ledger,
                       Tracer& tracer, std::uint32_t parent) {
  ServeRound r;
  const auto t0 = Clock::now();
  sim::RunRecord record;
  if (ledger != nullptr) {
    record = traced_execute(*s.store, s.spec, *ledger, tracer, parent);
  } else {
    const std::uint32_t span = tracer.open("execute", parent);
    record = harness::execute(*s.store, s.spec).record;
    tracer.close(span);
  }
  const auto t1 = Clock::now();
  const std::uint32_t reduce = tracer.open("reduce", parent);
  const campaign::JobMetrics m = campaign::reduce_record(record);
  tracer.close(reduce);
  const auto t2 = Clock::now();
  r.execute_s = seconds_between(t0, t1);
  r.reduce_s = seconds_between(t1, t2);
  r.complete = m.ops_complete;
  if (!audit) {
    r.wall_s = seconds_between(t0, Clock::now());
    r.digest = ops_digest(record.ops);
    return r;
  }
  const std::uint32_t group = tracer.open("group", parent);
  KeyGroups g = group_by_key(record.ops, *s.store);
  tracer.close(group);
  const auto t3 = Clock::now();
  r.group_s = seconds_between(t2, t3);
  r.audit = audit_keys(g, *s.store, corrupt, ledger != nullptr, tracer, parent);
  r.check_s = r.audit.check_s;
  r.wall_s = seconds_between(t0, Clock::now());
  r.digest = groups_digest(g);
  return r;
}

}  // namespace

Result run_serve(const Options& opt, bool audit, Tracer& tracer) {
  Result res;
  const char* file = audit ? "serve_zipf_audit.toml" : "serve_uniform.toml";
  const std::uint32_t root = tracer.open(opt.workload, 0);

  // Each set-up pass replaces the products of the one before; the plans are
  // identical, which the rounds' history digests confirm.
  std::vector<double> setup_s;
  std::vector<double> expand_s;
  std::vector<double> plan_s;
  ServeSetup s;
  const auto set_up = [&] {
    s = ServeSetup{};
    const std::uint32_t span = tracer.open("setup", root);
    const auto t0 = Clock::now();
    s = serve_setup(opt, file, tracer, span);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    tracer.close(span);
    expand_s.push_back(s.expand_s);
    plan_s.push_back(s.plan_s);
  };
  set_up();
  res.attempted = s.planned;

  // Reference round, untimed: everything later rounds must reproduce.
  std::uint64_t full_digest = 0;
  std::uint64_t ref_digest = 0;
  std::size_t ref_failed = 0;
  std::size_t ref_complete = 0;
  LatencySummary lat;
  {
    sim::RunRecord record = harness::execute(*s.store, s.spec).record;
    const campaign::JobMetrics m = campaign::reduce_record(record);
    res.require(record.ops.size() == s.planned, "not every planned op was invoked");
    res.require(m.ops_complete == s.planned, "not every planned op completed");
    res.failed += s.planned - std::min(s.planned, m.ops_complete);
    ref_complete = m.ops_complete;
    std::vector<double> samples;
    collect_latencies(record.ops, s.spec.params.d, samples);
    lat = summarize(std::move(samples));
    full_digest = ops_digest(record.ops);
    if (!audit) {
      ref_digest = full_digest;
    } else {
      const std::vector<sim::OpRecord> keyed = record.ops;  // grouping moves the records out
      KeyGroups g = group_by_key(record.ops, *s.store);
      const std::size_t hot = g.hottest();
      res.require(!g.histories.empty() &&
                      ops_equal(g.histories[hot],
                                core::restrict_to_key(keyed, *s.store, g.keys[hot])),
                  "one-pass grouping disagrees with core::restrict_to_key on the hottest key");
      Tracer off(false);
      const Audit a = audit_keys(g, *s.store, opt.corrupt_hottest, false, off, 0);
      res.require(a.failed_ops == 0, "audit judged a key history not linearizable");
      res.require(a.off_route == a.off_route_initial_write,
                  "an audited history missed the fast route");
      res.info.push_back(std::to_string(a.keys) + " keys audited, the hottest with " +
                         std::to_string(a.hottest_ops) + " ops");
      if (a.off_route > 0) {
        res.info.push_back(std::to_string(a.off_route) + " audited history of " +
                           std::to_string(a.off_route_ops) +
                           " ops writes the initial value and took the general route");
      }
      res.failed += a.failed_ops;
      ref_failed = a.failed_ops;
      ref_digest = groups_digest(g);
    }
  }

  std::vector<double> execute_s;
  LayerTotals totals;
  const Measured m = measure_rounds(opt, s.planned, tracer, root, set_up,
                                    [&](bool traced, std::uint32_t span) {
    const ServeRound r = serve_round(s, audit, opt.corrupt_hottest,
                                     traced ? &totals.ledger : nullptr, tracer, span);
    res.require(r.digest == ref_digest, "a round's history differs from the reference round");
    res.require(r.complete == s.planned, "a round left planned ops incomplete");
    res.require(r.audit.failed_ops == ref_failed, "a round's audit verdicts differ");
    if (traced) {
      totals.ledger_ops += r.complete;
      totals.reduce_s += r.reduce_s;
      totals.group_s += r.group_s;
      totals.lin.add(r.audit.lin);
    } else {
      execute_s.push_back(r.execute_s);
    }
    // The benchmark's own grouping is not the program's work.
    return RoundTime{r.wall_s, r.execute_s + r.reduce_s + r.check_s};
  });
  const double rss = peak_rss_mb();

  if (!opt.trace) {
    // Messages come from the ledger: ops-only records carry no messages.
    Ledger ledger;
    Tracer off(false);
    const sim::RunRecord record = traced_execute(*s.store, s.spec, ledger, off, 0);
    res.require(ops_digest(record.ops) == full_digest,
                "the traced World's ops differ from harness::execute's");
    add_end_to_end(res, m, setup_s, rss, lat,
                   static_cast<double>(ledger.handler_count[Ledger::kMessage]) /
                       static_cast<double>(std::max<std::size_t>(ref_complete, 1)));
  } else {
    const Ledger& l = totals.ledger;
    add_layer_metrics(res, totals, m, static_cast<double>(m.traced_wall.size()),
                      median(expand_s), median(plan_s), static_cast<double>(s.planned),
                      median(execute_s),
                      l.submit_s + l.run_s + l.take_s + totals.reduce_s + totals.group_s +
                          totals.lin.general_s + totals.lin.fast_s);
  }
  res.info.push_back(rounds_info(m.rates, m.traced_wall.size()));
  res.info.push_back(setup_info(setup_s));
  tracer.close(root);
  return res;
}

// ===========================================================================
// check-search

namespace {

/// One simulated check-search job.
struct CheckJob {
  const adt::DataType* type = nullptr;
  std::size_t planned = 0;
  bool threw = false;
  sim::RunRecord record;
};

struct CheckSetup {
  std::vector<scenario::ScenarioCampaign> camps;  ///< own the data types
  std::vector<CheckJob> jobs;
  double expand_s = 0;
  double plan_s = 0;
  double execute_s = 0;
  std::size_t planned = 0;
};

constexpr const char* kCheckFiles[] = {"check_queue.toml", "check_stack.toml"};

/// The `seed` axis of a check-search file is a range "a..b"; the run's seed
/// shifts it to a disjoint block of b - a + 1 job seeds.
std::vector<std::string> shifted_seeds(const scenario::Scenario& sc, std::uint64_t seed) {
  for (const auto& section : sc.doc.sections) {
    const scenario::TomlValue* v = section.find("axis.seed");
    if (v == nullptr) continue;
    const auto dots = v->str.find("..");
    if (v->kind != scenario::TomlValue::Kind::kString || dots == std::string::npos) break;
    const std::uint64_t lo = std::stoull(v->str.substr(0, dots));
    const std::uint64_t hi = std::stoull(v->str.substr(dots + 2));
    std::vector<std::string> out;
    for (std::uint64_t j = lo; j <= hi; ++j) {
      out.push_back(std::to_string(seed * 1000003ULL + j));
    }
    return out;
  }
  throw std::runtime_error(sc.doc.file + ": expected axis.seed = \"a..b\"");
}

/// Expands both files, generates every job's plan and simulates it with
/// full records -- through harness::execute, or through the traced mirror
/// when `ledger` is set.
CheckSetup check_setup(const Options& opt, Ledger* ledger, Tracer& tracer, std::uint32_t parent) {
  CheckSetup s;
  for (const char* file : kCheckFiles) {
    auto t0 = Clock::now();
    const std::uint32_t expand = tracer.open("expand", parent);
    const scenario::Scenario sc = scenario::load_scenario_file(scenario_path(opt, file));
    scenario::ScenarioCampaign camp =
        scenario::expand(sc, {{"seed", shifted_seeds(sc, opt.seed)}});
    tracer.close(expand);
    s.expand_s += seconds_between(t0, Clock::now());
    const std::uint32_t plan = tracer.open("plan", parent);
    std::vector<std::size_t> planned;
    for (campaign::Job& job : camp.spec.jobs) {
      t0 = Clock::now();
      planned.push_back(
          materialize(job.spec, job.spec.workload->generate(*job.type, job.spec.params)));
      s.plan_s += seconds_between(t0, Clock::now());
    }
    tracer.close(plan);
    const std::uint32_t run = tracer.open("simulate", parent);
    for (std::size_t i = 0; i < camp.spec.jobs.size(); ++i) {
      const campaign::Job& job = camp.spec.jobs[i];
      CheckJob cj;
      cj.type = job.type;
      cj.planned = planned[i];
      t0 = Clock::now();
      try {
        if (ledger != nullptr) {
          cj.record = traced_execute(*job.type, job.spec, *ledger, tracer, run);
        } else {
          cj.record = harness::execute(*job.type, job.spec).record;
        }
      } catch (const std::exception&) {
        cj.threw = true;
      }
      s.execute_s += seconds_between(t0, Clock::now());
      s.planned += cj.planned;
      s.jobs.push_back(std::move(cj));
    }
    tracer.close(run);
    s.camps.push_back(std::move(camp));
  }
  return s;
}

struct CheckRound {
  double reduce_s = 0;
  double wall_s = 0;
  std::size_t failed_ops = 0;
  std::size_t off_route = 0;
  std::size_t messages = 0;   ///< delivered, from the full records
  std::size_t steps = 0;
  std::size_t complete = 0;
  LinStats lin;
};

/// Reduces and checks every job.  Per-job spans and times (reduce_s, lin
/// times) are taken only when `traced`; wall_s always times the whole loop.
CheckRound check_round(const CheckSetup& s, bool traced, Tracer& tracer, std::uint32_t parent) {
  CheckRound r;
  const auto t0 = Clock::now();
  for (const CheckJob& job : s.jobs) {
    if (job.threw) {
      r.failed_ops += job.planned;
      continue;
    }
    const std::uint32_t span = traced ? tracer.open("job", parent) : 0;
    const auto j0 = stamp(traced);
    const campaign::JobMetrics m = campaign::reduce_record(job.record);
    const auto j1 = stamp(traced);
    lin::CheckReport rep;
    try {
      rep = lin::check(*job.type, job.record.ops);
    } catch (const std::exception&) {
      // Unjudgeable (an incomplete record): every op of the job fails.
      tracer.close(span);
      r.failed_ops += job.planned;
      ++r.off_route;
      continue;
    }
    const auto j2 = stamp(traced);
    tracer.close(span);
    r.reduce_s += seconds_between(j0, j1);
    r.lin.record(rep, job.record.ops.size(), seconds_between(j1, j2));
    r.complete += m.ops_complete;
    r.messages += m.messages_sent - m.messages_dropped;
    r.steps += m.steps;
    const std::size_t incomplete = job.planned - std::min(job.planned, m.ops_complete);
    r.failed_ops += rep.result.linearizable ? incomplete : job.planned;
    if (rep.stats.route != lin::CheckRoute::kGeneral) ++r.off_route;
  }
  r.wall_s = seconds_between(t0, Clock::now());
  return r;
}

}  // namespace

Result run_check_search(const Options& opt, Tracer& tracer) {
  Result res;
  const std::uint32_t root = tracer.open(opt.workload, 0);

  std::vector<double> setup_s;
  std::vector<double> expand_s;
  std::vector<double> plan_s;
  std::vector<double> execute_s;
  CheckSetup s;
  std::uint64_t first_digest = 0;
  const auto set_up = [&] {
    s = CheckSetup{};
    const std::uint32_t span = tracer.open("setup", root);
    const auto t0 = Clock::now();
    s = check_setup(opt, nullptr, tracer, span);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    tracer.close(span);
    expand_s.push_back(s.expand_s);
    plan_s.push_back(s.plan_s);
    execute_s.push_back(s.execute_s);
    std::uint64_t digest = 0;
    for (const CheckJob& job : s.jobs) {
      digest = digest * 0x100000001b3ULL ^ ops_digest(job.record.ops);
    }
    if (setup_s.size() == 1) first_digest = digest;
    res.require(digest == first_digest, "set-up passes simulated different histories");
  };
  set_up();
  res.attempted = s.planned;

  // Reference round, untimed.
  const CheckRound ref = check_round(s, false, tracer, 0);
  res.require(ref.failed_ops == 0,
              "a check-search history failed (incomplete, threw or not linearizable)");
  res.require(ref.off_route == 0, "a check-search history missed the general route");
  res.failed += ref.failed_ops;
  std::vector<double> samples;
  for (const CheckJob& job : s.jobs) {
    collect_latencies(job.record.ops, job.record.params.d, samples);
  }
  const LatencySummary lat = summarize(std::move(samples));

  LayerTotals totals;
  const Measured m = measure_rounds(opt, s.planned, tracer, root, set_up,
                                    [&](bool traced, std::uint32_t span) {
    const CheckRound r = check_round(s, traced, tracer, span);
    res.require(r.failed_ops == ref.failed_ops && r.lin.general_nodes == ref.lin.general_nodes,
                "a round's verdicts or search effort differ from the reference round");
    if (traced) {
      totals.reduce_s += r.reduce_s;
      totals.lin.add(r.lin);
    }
    return RoundTime{r.wall_s, r.wall_s};
  });
  const double rss = peak_rss_mb();

  if (!opt.trace) {
    add_end_to_end(res, m, setup_s, rss, lat,
                   static_cast<double>(ref.messages) /
                       static_cast<double>(std::max<std::size_t>(ref.complete, 1)));
  } else {
    // Simulation happens in set-up here: one traced pass over every job,
    // cross-checked against the untraced full records.
    const std::uint32_t span = tracer.open("setup-traced", root);
    CheckSetup traced = check_setup(opt, &totals.ledger, tracer, span);
    tracer.close(span);
    bool same = traced.jobs.size() == s.jobs.size();
    for (std::size_t i = 0; same && i < s.jobs.size(); ++i) {
      same = ops_equal(traced.jobs[i].record.ops, s.jobs[i].record.ops);
    }
    res.require(same, "the traced World's ops differ from harness::execute's");
    res.require(totals.ledger.handler_count[Ledger::kMessage] == ref.messages,
                "ledger deliveries disagree with reduce_record's message counts");
    res.require(totals.ledger.steps() == ref.steps,
                "ledger handler calls disagree with reduce_record's step counts");
    totals.ledger_ops = ref.complete;
    add_layer_metrics(res, totals, m, 1.0, median(expand_s), median(plan_s),
                      static_cast<double>(s.planned), median(execute_s),
                      totals.reduce_s + totals.lin.general_s + totals.lin.fast_s);
  }
  res.info.push_back(rounds_info(m.rates, m.traced_wall.size()));
  res.info.push_back(setup_info(setup_s));
  res.info.push_back("jobs = " + std::to_string(s.jobs.size()));
  tracer.close(root);
  return res;
}

}  // namespace perfbench
