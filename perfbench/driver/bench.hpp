#pragma once
// Shared pieces of the serving-and-checking benchmark driver: wall clock,
// in-memory phase spans, the per-layer ledger filled by the traced process
// decorator, and the metric list every workload prints.
//
// Everything here sits OUTSIDE the library: the driver times calls into the
// library's public entry points and wraps sim::Process / sim::Context from
// the outside, so a later change to the library cannot move the boundaries
// this benchmark measures at.

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adt/data_type.hpp"
#include "harness/runner.hpp"
#include "sim/run_record.hpp"

namespace perfbench {

namespace adt = lintime::adt;
namespace core = lintime::core;
namespace harness = lintime::harness;
namespace sim = lintime::sim;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Phase spans with parent ids, kept in memory and written out at exit.
/// Disabled tracers record nothing (the untraced run).
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = no parent
    std::string name;
    double start_s = 0;
    double end_s = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span; returns its id (0 when disabled).
  std::uint32_t open(std::string name, std::uint32_t parent);
  /// Closes span `id` (a no-op for 0).
  void close(std::uint32_t id);

  /// Writes every span as one JSON document.  Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Event-level boundaries aggregated as count + total time per handler and
/// per sim::Context call (10^6-10^7 events per run rule out a span each).
struct Ledger {
  enum Handler : std::size_t { kInvoke, kMessage, kTimer, kNumHandlers };
  enum Call : std::size_t { kSend, kBroadcast, kSetTimer, kCancelTimer, kRespond, kNumCalls };

  std::array<std::uint64_t, kNumHandlers> handler_count{};
  std::array<double, kNumHandlers> handler_s{};
  std::array<std::uint64_t, kNumCalls> call_count{};
  std::array<double, kNumCalls> call_s{};
  /// traced_execute's phases, summed over its calls.
  double submit_s = 0;  ///< World construction + submitting the plan
  double run_s = 0;     ///< World::run (handler time included)
  double take_s = 0;    ///< World::take_record

  [[nodiscard]] double handlers_total_s() const;
  [[nodiscard]] double calls_total_s() const;
  /// Handler time not spent inside Context calls: the algorithm's own work.
  [[nodiscard]] double core_self_s() const { return handlers_total_s() - calls_total_s(); }
  /// Handler invocations (steps): invokes + deliveries + fired timers.
  [[nodiscard]] std::uint64_t steps() const;
  /// Events the scheduler popped.  At quiescence every timer ever set has
  /// been popped, fired or cancelled, so this is invokes + deliveries +
  /// timers set.
  [[nodiscard]] std::uint64_t events() const;
  [[nodiscard]] std::uint64_t cancelled_pops() const {
    return call_count[kSetTimer] - handler_count[kTimer];
  }
};

/// Mirror of harness::execute for the algorithms the benchmark runs
/// (sharded serving and Algorithm 1): the same WorldConfig and process
/// construction, every process wrapped in a timing decorator that fills
/// `ledger` and adds the three phase times to it.  The spec must carry an
/// explicit plan (calls/scripts), not a generator.  Spans: submit, run,
/// take-record under `parent`.
[[nodiscard]] sim::RunRecord traced_execute(const adt::DataType& type,
                                            const harness::RunSpec& spec, Ledger& ledger,
                                            Tracer& tracer, std::uint32_t parent);

/// Order-sensitive 64-bit digest of a history (every OpRecord field).
[[nodiscard]] std::uint64_t ops_digest(const std::vector<sim::OpRecord>& ops);

/// Field-by-field equality of two histories.
[[nodiscard]] bool ops_equal(const std::vector<sim::OpRecord>& a,
                             const std::vector<sim::OpRecord>& b);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::vector<std::string> info;      ///< context lines for the human-readable report

  void add(std::string name, double value, std::string unit) {
    require(std::isfinite(value), name + " is not a finite number");
    metrics.push_back({std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit)});
  }
  void require(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scenario_dir;
  std::string spans_out;          ///< traced run: where to write spans ("" = nowhere)
  bool corrupt_hottest = false;   ///< self-test: corrupt one audited history
};

[[nodiscard]] Result run_serve(const Options& opt, bool zipf_audit, Tracer& tracer);
[[nodiscard]] Result run_check_search(const Options& opt, Tracer& tracer);

/// Median of a non-empty sample (mean of the middle pair for even sizes).
[[nodiscard]] double median(std::vector<double> v);
/// Peak resident set size of this process so far, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
