#include "campaign/sink.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <thread>

namespace lintime::campaign {

std::string fmt_double(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  if (v == 0.0) return "0";  // normalize -0
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    // Integral values print as integers ("10", not the equally-round-trip
    // but unreadable "1e+01" that precision-1 %g would produce).
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::ostringstream os;
    os << std::setprecision(prec) << v;
    if (std::stod(os.str()) == v) return os.str();
  }
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// JSON numbers must be finite; non-finite metrics become null.
std::string json_number(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  return fmt_double(v);
}

void write_op_metrics(std::ostream& os, const harness::OpMetrics& m) {
  os << "{\"count\":" << m.count << ",\"min\":" << json_number(m.min)
     << ",\"mean\":" << json_number(m.mean) << ",\"p50\":" << json_number(m.p50)
     << ",\"p90\":" << json_number(m.p90) << ",\"p99\":" << json_number(m.p99)
     << ",\"max\":" << json_number(m.max) << "}";
}

void write_op_map(std::ostream& os, const std::map<std::string, harness::OpMetrics>& ops) {
  os << "{";
  bool first = true;
  for (const auto& [name, m] : ops) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":";
    write_op_metrics(os, m);
  }
  os << "}";
}

void write_tags(std::ostream& os, const Tags& tags) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : tags) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
  }
  os << "}";
}

}  // namespace

void write_json(std::ostream& os, const CampaignResult& result) {
  os << "{\"campaign\":\"" << json_escape(result.name) << "\"";
  os << ",\"job_count\":" << result.jobs.size();
  os << ",\"jobs\":[";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const JobResult& job = result.jobs[i];
    if (i > 0) os << ",";
    os << "{\"index\":" << job.index;
    os << ",\"name\":\"" << json_escape(job.name) << "\"";
    os << ",\"tags\":";
    write_tags(os, job.tags);
    os << ",\"ok\":" << (job.ok ? "true" : "false");
    if (!job.ok) {
      os << ",\"error\":\"" << json_escape(job.error) << "\"";
    } else {
      const JobMetrics& m = job.metrics;
      os << ",\"ops_invoked\":" << m.ops_invoked;
      os << ",\"ops_complete\":" << m.ops_complete;
      os << ",\"steps\":" << m.steps;
      os << ",\"messages_sent\":" << m.messages_sent;
      os << ",\"messages_dropped\":" << m.messages_dropped;
      os << ",\"quiescence_time\":" << json_number(m.quiescence_time);
      os << ",\"verdict\":\"" << to_string(m.verdict) << "\"";
      if (m.verdict != JobMetrics::Verdict::kNotChecked) {
        os << ",\"check_nodes_expanded\":" << m.check_nodes_expanded;
        os << ",\"check_route\":\"" << json_escape(m.check_route) << "\"";
        os << ",\"check_memo_hits\":" << m.check_memo_hits;
        os << ",\"check_memo_collisions\":" << m.check_memo_collisions;
      }
      os << ",\"latency\":";
      write_op_map(os, m.ops);
    }
    os << "}";
  }
  os << "]";

  const CampaignMetrics agg = result.aggregate();
  os << ",\"aggregate\":{\"jobs_total\":" << agg.jobs_total;
  os << ",\"jobs_failed\":" << agg.jobs_failed;
  os << ",\"jobs_checked\":" << agg.jobs_checked;
  os << ",\"jobs_linearizable\":" << agg.jobs_linearizable;
  os << ",\"jobs_fast_path\":" << agg.jobs_fast_path;
  os << ",\"jobs_fallback\":" << agg.jobs_fallback;
  os << ",\"ops_complete\":" << agg.ops_complete;
  os << ",\"messages_sent\":" << agg.messages_sent;
  os << ",\"messages_dropped\":" << agg.messages_dropped;
  os << ",\"latency\":";
  write_op_map(os, agg.ops);
  os << "}}\n";
}

std::string to_json(const CampaignResult& result) {
  std::ostringstream os;
  write_json(os, result);
  return os.str();
}

namespace {

std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

std::string flat_tags(const Tags& tags) {
  std::string out;
  for (const auto& [k, v] : tags) {
    if (!out.empty()) out += ';';
    out += k + "=" + v;
  }
  return out;
}

}  // namespace

void write_csv(std::ostream& os, const CampaignResult& result) {
  os << "campaign,index,job,tags,ok,verdict,steps,messages_sent,messages_dropped,"
        "quiescence_time,op,count,min,mean,p50,p90,p99,max\n";
  for (const JobResult& job : result.jobs) {
    const JobMetrics& jm = job.metrics;
    const std::string prefix = csv_field(result.name) + "," + std::to_string(job.index) + "," +
                               csv_field(job.name) + "," + csv_field(flat_tags(job.tags)) + "," +
                               (job.ok ? "1" : "0") + "," + to_string(jm.verdict) + "," +
                               std::to_string(jm.steps) + "," + std::to_string(jm.messages_sent) +
                               "," + std::to_string(jm.messages_dropped) + "," +
                               fmt_double(jm.quiescence_time);
    if (!job.ok || jm.ops.empty()) {
      // One row so the job is still visible (failed, or ran zero ops).
      os << prefix << ",,,,,,,,\n";
      continue;
    }
    for (const auto& [op, m] : jm.ops) {
      os << prefix << "," << csv_field(op) << "," << m.count << "," << fmt_double(m.min) << ","
         << fmt_double(m.mean) << "," << fmt_double(m.p50) << "," << fmt_double(m.p90) << ","
         << fmt_double(m.p99) << "," << fmt_double(m.max) << "\n";
    }
  }
}

std::string to_csv(const CampaignResult& result) {
  std::ostringstream os;
  write_csv(os, result);
  return os.str();
}

BenchContext current_bench_context() {
  BenchContext ctx;
  ctx.num_cpus = static_cast<int>(std::thread::hardware_concurrency());
#ifdef LINTIME_BUILD_TYPE
  ctx.build_type = LINTIME_BUILD_TYPE;
#endif
#if defined(__clang__)
  ctx.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  ctx.compiler = "gcc " __VERSION__;
#else
  ctx.compiler = "unknown";
#endif
  return ctx;
}

void write_bench_context(std::ostream& os, const BenchContext& ctx) {
  os << "{\"num_cpus\":" << ctx.num_cpus << ",\"build_type\":\""
     << json_escape(ctx.build_type) << "\",\"compiler\":\"" << json_escape(ctx.compiler)
     << "\"}";
}

void write_bench_entry(std::ostream& os, const BenchEntry& entry) {
  os << "{\"campaign\":\"" << json_escape(entry.campaign) << "\",\"job_count\":"
     << entry.job_count << ",\"workers\":" << entry.workers
     << ",\"wall_seconds\":" << json_number(entry.wall_seconds);
  if (entry.total_ops > 0) {
    os << ",\"total_ops\":" << entry.total_ops;
    if (entry.wall_seconds > 0) {
      os << ",\"ops_per_sec\":"
         << json_number(static_cast<double>(entry.total_ops) / entry.wall_seconds);
    }
  }
  os << "}";
}

}  // namespace lintime::campaign
