#include "bench_util.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "campaign/executor.hpp"
#include "harness/workload.hpp"

namespace lintime::bench {

sim::ModelParams default_params() {
  sim::ModelParams p{5, 10.0, 2.0, 0.0};
  p.eps = p.optimal_eps();
  return p;
}

namespace {

/// The measured instance is the one at p1.
double latency_at_p1(const sim::RunRecord& record, const std::string& op_name) {
  double latency = -1;
  for (const auto& op : record.ops) {
    if (op.proc == 1 && op.op == op_name) latency = op.latency();
  }
  return latency;
}

}  // namespace

MeasureBatch::MeasureBatch(sim::ModelParams params, std::string name)
    : default_params_(params) {
  spec_.name = std::move(name);
}

std::size_t MeasureBatch::add(const adt::DataType& type, MeasureSpec spec) {
  return add(type, std::move(spec), default_params_);
}

std::size_t MeasureBatch::add(const adt::DataType& type, MeasureSpec spec,
                              const sim::ModelParams& params) {
  if (result_.has_value()) throw std::logic_error("MeasureBatch: add() after run()");
  const std::size_t handle = spec_.jobs.size();
  campaign::Job job;
  job.name = "#" + std::to_string(handle) + "/" + harness::to_string(spec.algo) + "/" + spec.op;
  job.tags = {{"algo", harness::to_string(spec.algo)},
              {"op", spec.op},
              {"X", fmt(spec.X)},
              {"n", std::to_string(params.n)}};
  job.type = &type;
  job.spec.params = params;
  job.spec.algo = spec.algo;
  job.spec.X = spec.X;
  job.spec.delays = std::make_shared<sim::ConstantDelay>(params.d);
  job.spec.workload =
      std::make_shared<harness::WorstLatencyGen>(spec.op, spec.arg, std::move(spec.rho));
  spec_.jobs.push_back(std::move(job));
  measured_ops_.push_back(spec.op);
  return handle;
}

void MeasureBatch::run(int jobs) {
  if (result_.has_value()) throw std::logic_error("MeasureBatch: run() called twice");
  campaign::ExecutorOptions options;
  options.jobs = jobs;
  options.keep_records = true;  // latency extraction needs the p1 instance
  result_ = campaign::run_campaign(spec_, options);
}

double MeasureBatch::latency(std::size_t handle) const {
  if (!result_.has_value()) throw std::logic_error("MeasureBatch: latency() before run()");
  const auto& job = result_->jobs.at(handle);
  if (!job.ok) {
    throw std::runtime_error("MeasureBatch: job '" + job.name + "' failed: " + job.error);
  }
  return latency_at_p1(job.run.record, measured_ops_.at(handle));
}

const campaign::CampaignResult& MeasureBatch::result() const {
  if (!result_.has_value()) throw std::logic_error("MeasureBatch: result() before run()");
  return *result_;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

void print_table(const std::string& title, const sim::ModelParams& params,
                 const std::vector<TableRow>& rows) {
  std::printf("%s\n", title.c_str());
  std::printf("model: n=%d, d=%g, u=%g, eps=(1-1/n)u=%g, m=min{eps,u,d/3}=%g\n", params.n,
              params.d, params.u, params.eps, params.m());
  std::printf("%-18s | %-14s | %-26s | %-16s | %-12s | %-12s\n", "Operation", "Prev LB",
              "New LB", "New UB", "Meas. Alg1", "Meas. Centr");
  std::printf("%s\n", std::string(112, '-').c_str());
  for (const auto& row : rows) {
    std::printf("%-18s | %-14s | %-26s | %-16s | %-12s | %-12s\n", row.operation.c_str(),
                row.prev_lower.c_str(), row.new_lower.c_str(), row.new_upper.c_str(),
                row.measured_ours < 0 ? "-" : fmt(row.measured_ours).c_str(),
                row.measured_central < 0 ? "-" : fmt(row.measured_central).c_str());
    if (!row.note.empty()) std::printf("%-18s   note: %s\n", "", row.note.c_str());
  }
  std::printf("\n");
}

void print_experiment(const shift::ExperimentResult& result) {
  std::printf("[lower-bound experiment] %s\n", result.name.c_str());
  std::printf("  bound = %s, unsafe |OP| = %s -> unsafe violated: %s, Algorithm 1 survived: %s\n",
              fmt(result.bound).c_str(), fmt(result.unsafe_latency).c_str(),
              result.unsafe_violated ? "YES" : "no", result.safe_survived ? "YES" : "no");
  std::istringstream details(result.details);
  std::string line;
  while (std::getline(details, line)) {
    std::printf("    %s\n", line.c_str());
  }
  std::printf("\n");
}

}  // namespace lintime::bench
