#include "harness/workload.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "adt/data_type.hpp"
#include "core/sharded_store.hpp"

namespace lintime::harness {

namespace {

/// Zipf(theta) sampler over ranks 0..num_keys-1 (rank 0 hottest): a
/// precomputed normalized CDF, sampled by one RNG draw and a binary search.
/// Weight of rank k is 1/(k+1)^theta.
class ZipfTable {
 public:
  ZipfTable(std::int64_t num_keys, double theta) {
    cdf_.reserve(static_cast<std::size_t>(num_keys));
    double total = 0;
    for (std::int64_t k = 0; k < num_keys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k) + 1.0, theta);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] std::int64_t sample(std::mt19937_64& rng) const {
    // 53-bit mantissa draw in [0, 1); the same construction std::
    // uniform_real_distribution is allowed to use, written out so the
    // mapping from RNG stream to key is pinned across standard libraries.
    const double u = static_cast<double>(rng() >> 11U) * 0x1.0p-53;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::int64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

const core::ShardedStore& as_store(const adt::DataType& type) {
  const auto* store = dynamic_cast<const core::ShardedStore*>(&type);
  if (store == nullptr) {
    throw std::invalid_argument("ShardedWorkloadGen: data type is not a core::ShardedStore");
  }
  return *store;
}

std::string fmt_num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

WorkloadPlan RandomScriptsGen::generate(const adt::DataType& type,
                                        const sim::ModelParams& params) const {
  if (ops_per_proc_ <= 0) {
    throw std::invalid_argument("RandomScriptsGen: ops_per_proc must be > 0");
  }
  WorkloadPlan plan;
  plan.scripts = random_scripts(type, params.n, ops_per_proc_, seed_);
  plan.script_start = start_;
  plan.script_gap = gap_;
  return plan;
}

std::string RandomScriptsGen::describe() const {
  return "random-scripts(ops=" + std::to_string(ops_per_proc_) +
         ",seed=" + std::to_string(seed_) + ",start=" + fmt_num(start_) +
         ",gap=" + fmt_num(gap_) + ")";
}

WorkloadPlan StaggeredRoundsGen::generate(const adt::DataType& type,
                                          const sim::ModelParams& params) const {
  if (rounds_ <= 0) throw std::invalid_argument("StaggeredRoundsGen: rounds must be > 0");
  if (!(stagger_ >= 0) || !(round_gap_ > 0)) {
    throw std::invalid_argument("StaggeredRoundsGen: need stagger >= 0 and round_gap > 0");
  }
  const auto scripts =
      random_scripts(type, params.n, rounds_, seed_);
  WorkloadPlan plan;
  plan.calls.reserve(static_cast<std::size_t>(rounds_) * static_cast<std::size_t>(params.n));
  double t = 0;
  for (int i = 0; i < rounds_; ++i) {
    for (int p = 0; p < params.n; ++p) {
      const ScriptOp& step = scripts[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)];
      plan.calls.push_back(Call{t + p * stagger_, p, step.op, step.arg});
    }
    t += round_gap_;
  }
  return plan;
}

std::string StaggeredRoundsGen::describe() const {
  return "staggered-rounds(rounds=" + std::to_string(rounds_) +
         ",seed=" + std::to_string(seed_) + ",stagger=" + fmt_num(stagger_) +
         ",round-gap=" + fmt_num(round_gap_) + ")";
}

WorkloadPlan ShardedWorkloadGen::generate(const adt::DataType& type,
                                          const sim::ModelParams& params) const {
  const core::ShardedStore& store = as_store(type);
  const Options& o = opts_;
  if (o.ops_per_proc <= 0) {
    throw std::invalid_argument("ShardedWorkloadGen: ops_per_proc must be > 0");
  }
  if (!(o.zipf_theta >= 0) || !(o.spacing > 0) || !(o.think >= 0) || o.burst < 0 ||
      !(o.burst_gap >= 0)) {
    throw std::invalid_argument("ShardedWorkloadGen: malformed options");
  }

  WorkloadPlan plan;
  const int n = params.n;

  // One RNG stream per plan, two draws per operation: the op spec first,
  // then the key.  Written values are globally unique (1 + p*ops_per_proc +
  // i), which keeps per-key restrictions inside the fast monitors'
  // distinct-value precondition, and start at 1 so no write repeats a
  // register's initial 0.  The Zipf CDF is built only for Zipf keys; a
  // uniform plan would pay for a num_keys-entry table it never reads.
  std::mt19937_64 rng(o.seed);
  const auto& specs = store.component().ops();
  const auto num_keys = static_cast<std::uint64_t>(store.num_keys());
  std::optional<ZipfTable> zipf;
  if (o.zipf_theta > 0) zipf.emplace(store.num_keys(), o.zipf_theta);
  const auto draw_key = [&]() -> std::int64_t {
    if (zipf) return zipf->sample(rng);
    return static_cast<std::int64_t>(rng() % num_keys);
  };

  if (o.closed_loop) {
    plan.scripts.resize(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      auto& script = plan.scripts[static_cast<std::size_t>(p)];
      script.reserve(static_cast<std::size_t>(o.ops_per_proc));
      for (int i = 0; i < o.ops_per_proc; ++i) {
        const auto& spec = specs[rng() % specs.size()];
        const std::int64_t key = draw_key();
        adt::Value inner = spec.takes_arg
                               ? adt::Value{static_cast<std::int64_t>(p) * o.ops_per_proc + i + 1}
                               : adt::Value::nil();
        script.push_back(ScriptOp{spec.name, core::ShardedStore::keyed(key, std::move(inner))});
      }
    }
    plan.script_gap = o.think;
    return plan;
  }

  // Round-robin over processes inside each arrival epoch keeps the plan
  // strictly time-ascending, which is what lets the event ring take far
  // pushes on its O(1) monotone lane.
  plan.calls.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(o.ops_per_proc));
  for (int i = 0; i < o.ops_per_proc; ++i) {
    // Arrival epoch i starts at i*spacing when steady; under bursts, epochs
    // come `burst` back-to-back at `spacing` and then the line goes quiet
    // for `burst_gap` before the next burst.
    double epoch = 0;
    if (o.burst > 0) {
      const int b = i / o.burst;
      const int j = i % o.burst;
      epoch = b * (o.burst * o.spacing + o.burst_gap) + j * o.spacing;
    }
    for (int p = 0; p < n; ++p) {
      const auto& spec = specs[rng() % specs.size()];
      const std::int64_t key = draw_key();
      adt::Value inner = spec.takes_arg
                             ? adt::Value{static_cast<std::int64_t>(p) * o.ops_per_proc + i + 1}
                             : adt::Value::nil();
      const double when = o.burst > 0
                              ? epoch + (static_cast<double>(p) / n) * o.spacing
                              : (static_cast<double>(i) + static_cast<double>(p) / n) * o.spacing;
      plan.calls.push_back(
          Call{when, p, spec.name, core::ShardedStore::keyed(key, std::move(inner))});
    }
  }
  return plan;
}

std::string ShardedWorkloadGen::describe() const {
  const Options& o = opts_;
  std::string out = "sharded(ops=" + std::to_string(o.ops_per_proc) +
                    ",seed=" + std::to_string(o.seed) + ",zipf=" + fmt_num(o.zipf_theta);
  out += o.closed_loop ? ",closed,think=" + fmt_num(o.think)
                       : ",open,spacing=" + fmt_num(o.spacing);
  if (o.burst > 0) {
    out += ",burst=" + std::to_string(o.burst) + ",burst-gap=" + fmt_num(o.burst_gap);
  }
  return out + ")";
}

WorkloadPlan WorstLatencyGen::generate(const adt::DataType&,
                                       const sim::ModelParams& params) const {
  if (params.n < 2) {
    throw std::invalid_argument("WorstLatencyGen: needs n >= 2 (prefix at p0, call at p1)");
  }
  WorkloadPlan plan;
  const double t =
      (static_cast<double>(rho_.size()) + 2.0) * (params.d + params.u + params.eps + 1.0);
  plan.scripts.assign(static_cast<std::size_t>(params.n), {});
  plan.scripts[0] = rho_;
  plan.calls = {Call{t, 1, op_, arg_}};
  return plan;
}

std::string WorstLatencyGen::describe() const {
  std::string out = "worst-latency(op=" + op_ + ",arg=" + arg_.to_string() + ",rho=[";
  for (std::size_t i = 0; i < rho_.size(); ++i) {
    if (i > 0) out += ",";
    out += rho_[i].op + ":" + rho_[i].arg.to_string();
  }
  return out + "])";
}

}  // namespace lintime::harness
