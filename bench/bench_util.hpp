#pragma once
// Shared utilities for the table/figure reproduction binaries: canonical
// parameters, worst-case latency measurement under the max-delay adversary,
// and fixed-width table printing in the shape of the paper's Tables 1-5.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "adt/data_type.hpp"
#include "campaign/executor.hpp"
#include "harness/runner.hpp"
#include "shift/theorems.hpp"

namespace lintime::bench {

/// The canonical model instantiation used throughout the benches:
/// n = 5, d = 10, u = 2, eps = (1 - 1/n) u = 1.6  =>  m = min{eps,u,d/3} = 1.6.
[[nodiscard]] sim::ModelParams default_params();

/// Worst-case measured latency of one operation under the max-delay
/// adversary: a prefix `rho` runs at p0, then `op` is invoked at p1 after
/// quiescence (the harness::WorstLatencyGen plan).  X is Algorithm 1's
/// tradeoff parameter (ignored by the baselines).
struct MeasureSpec {
  std::string op;
  adt::Value arg;
  std::vector<harness::ScriptOp> rho;
  double X = 0;
  harness::AlgoKind algo = harness::AlgoKind::kAlgorithmOne;
};

/// A batch of worst-case latency measurements executed as one campaign:
/// queue measurements with add() (each returns a handle), run() them all --
/// in parallel when `jobs` != 1 -- then read each latency(handle).  Results
/// are keyed by handle, so they are identical for any worker count.
class MeasureBatch {
 public:
  /// `params` is the default model for add(); the campaign `name` labels
  /// sink output when the batch is exported.
  explicit MeasureBatch(sim::ModelParams params, std::string name = "measure-batch");

  /// Queues one measurement against the batch default params.
  std::size_t add(const adt::DataType& type, MeasureSpec spec);
  /// Queues one measurement with job-specific model params.
  std::size_t add(const adt::DataType& type, MeasureSpec spec, const sim::ModelParams& params);

  /// Executes all queued jobs (0 = hardware concurrency).  Call once.
  void run(int jobs = 0);

  /// Worst-case latency of the handle's measured op (-1 if it never
  /// completed).  Only valid after run().
  [[nodiscard]] double latency(std::size_t handle) const;

  /// The underlying campaign result (for JSON/CSV export).  Valid after run().
  [[nodiscard]] const campaign::CampaignResult& result() const;

 private:
  sim::ModelParams default_params_;
  campaign::CampaignSpec spec_;
  std::vector<std::string> measured_ops_;  ///< op name per handle
  std::optional<campaign::CampaignResult> result_;
};

/// One row of a paper-style bounds table.
struct TableRow {
  std::string operation;
  std::string prev_lower;   ///< the paper's "Previous Lower Bound" column
  std::string new_lower;    ///< the paper's "New Lower Bound" column
  std::string new_upper;    ///< the paper's "New Upper Bound" column
  double measured_ours = -1;     ///< Algorithm 1, at the row's favourable X
  double measured_central = -1; ///< centralized baseline
  std::string note;
};

/// Prints the table with a header detailing the model parameters.
void print_table(const std::string& title, const sim::ModelParams& params,
                 const std::vector<TableRow>& rows);

/// Prints one theorem experiment outcome (the "lower bound demonstrated"
/// block under each table).
void print_experiment(const shift::ExperimentResult& result);

/// Formats a double with trailing-zero trimming.
[[nodiscard]] std::string fmt(double v);

}  // namespace lintime::bench
