// lintime_perfbench: one workload of the serving-and-checking benchmark in
// one single-threaded process.
//
//   lintime_perfbench --workload serve-uniform|serve-zipf-audit|check-search
//                     --seed N --seconds S --trace 0|1 --scenario-dir DIR
//                     [--spans-out FILE] [--corrupt-hottest]
//
// Prints every metric by name and unit on stderr, then one JSON result line
// on stdout: {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives
// the end-to-end metrics, --trace 1 the per-layer split.  --corrupt-hottest
// (serve-zipf-audit only) appends an impossible observation to the hottest
// key's history; the run must then report failed ops.  Exit status is 0
// whenever a result line was printed, 2 on bad usage, 1 on an error.

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lintime_perfbench: " << why << "\n"
            << "usage: lintime_perfbench --workload serve-uniform|serve-zipf-audit|check-search"
               " --seed N --seconds S --trace 0|1 --scenario-dir DIR [--spans-out FILE]"
               " [--corrupt-hottest]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt-hottest") {
      opt.corrupt_hottest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--scenario-dir") {
        opt.scenario_dir = v;
      } else if (a == "--spans-out") {
        opt.spans_out = v;
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (opt.workload.empty() || opt.scenario_dir.empty() || !have_trace) {
    usage("--workload, --trace and --scenario-dir are required");
  }
  if (!(opt.seconds > 0)) usage("--seconds must be > 0");
  if (opt.corrupt_hottest && opt.workload != "serve-zipf-audit") {
    usage("--corrupt-hottest applies to serve-zipf-audit only");
  }
  return opt;
}

/// Counts print as integers; everything else as the shortest decimal that
/// reads back as the same double.
std::string number(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) return std::to_string(static_cast<long long>(v));
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_line(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  perfbench::Tracer tracer(opt.trace);
  Result res;
  try {
    if (opt.workload == "serve-uniform") {
      res = perfbench::run_serve(opt, /*zipf_audit=*/false, tracer);
    } else if (opt.workload == "serve-zipf-audit") {
      res = perfbench::run_serve(opt, /*zipf_audit=*/true, tracer);
    } else if (opt.workload == "check-search") {
      res = perfbench::run_check_search(opt, tracer);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "lintime_perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }

  for (const auto& m : res.metrics) {
    std::cerr << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  for (const auto& line : res.info) std::cerr << "  (" << line << ")\n";
  std::cerr << "  failed_op_share = "
            << number(res.attempted > 0 ? static_cast<double>(res.failed) /
                                              static_cast<double>(res.attempted)
                                        : 0.0)
            << " (" << res.failed << " of " << res.attempted << " ops)\n";
  for (const auto& p : res.problems) std::cerr << "  INCORRECT: " << p << "\n";
  if (opt.trace && !opt.spans_out.empty() && !tracer.write_json(opt.spans_out)) {
    std::cerr << "lintime_perfbench: cannot write spans to " << opt.spans_out << "\n";
    return 1;
  }
  std::cout << json_line(res) << std::endl;
  return 0;
}
