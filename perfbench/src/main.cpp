// perfbench: runs one benchmark workload against libpolaris and
// prints, as its last stdout line, one JSON object with the run's
// correctness, operation counts and metrics. Earlier lines carry the host
// fingerprint, per-workload details and (traced runs) a span summary.
//
//   perfbench --workload suite_audit|train_mask|serve_mixed
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Normally launched through perfbench/run.py, which builds it first and
// shapes the result line to BENCHMARK.json.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::json_number;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "suite_audit|train_mask|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               message);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::string escaped;
        for (const char c : model) {
          if (c != '"' && c != '\\') escaped += c;
        }
        return escaped;
      }
    }
  }
  return "unknown";
}

/// nproc, CPU and what the library was built and dispatched as. A build
/// that is not optimized is flagged here and on stderr.
std::string host_line() {
  const auto runtime = polaris::obs::runtime_info();
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool release = runtime.build_type == "release" &&
                       (build_type == "Release" || build_type == "RelWithDebInfo");
  if (!release) {
    std::fprintf(stderr,
                 "perfbench: WARNING: not an optimized build (%s, library %s); "
                 "timings are not comparable\n",
                 build_type.c_str(), runtime.build_type.c_str());
  }
  std::string out = "{\"host\":{";
  out += "\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu\":\"" + cpu_model() + "\"";
  out += ",\"build_type\":\"" + build_type + "\"";
  out += ",\"library_build\":\"" + runtime.build_type + "\"";
  out += ",\"simd\":\"" + runtime.simd + "\"";
  out += ",\"lane_words\":" + std::to_string(runtime.lane_words);
  out += ",\"avx2_built\":" + std::string(runtime.avx2_built ? "true" : "false");
  out += ",\"release\":" + std::string(release ? "true" : "false");
  return out + "}}";
}

std::string span_summary_line(const perfbench::Tracer& tracer) {
  std::string out = "{\"spans\":{";
  bool first = true;
  for (const auto& [name, entry] : tracer.summary()) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":{\"count\":" + std::to_string(entry.count) +
           ",\"total_ms\":" + json_number(entry.total_ms) +
           ",\"self_ms\":" + json_number(entry.self_ms) + "}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions run;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(run.seconds > 0.0)) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      run.trace = value == "1";
    } else if (flag == "--trace-out") {
      run.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  const std::map<std::string, void (*)(const perfbench::RunOptions&,
                                       perfbench::Report&, perfbench::Tracer&)>
      workloads = {{"suite_audit", perfbench::run_suite_audit},
                   {"train_mask", perfbench::run_train_mask},
                   {"serve_mixed", perfbench::run_serve_mixed}};
  const auto workload = workloads.find(run.workload);
  if (workload == workloads.end()) usage("unknown workload");

  std::printf("%s\n", host_line().c_str());
  std::fflush(stdout);
  perfbench::Report report;
  perfbench::Tracer tracer(run.trace);
  try {
    workload->second(run, report, tracer);
  } catch (const std::exception& error) {
    report.op(false, std::string("run aborted: ") + error.what());
  }
  report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  if (run.trace) {
    std::printf("%s\n", span_summary_line(tracer).c_str());
    if (!run.trace_out.empty() && !tracer.write_json(run.trace_out)) {
      report.op(false, "cannot write span file " + run.trace_out);
    }
  }
  std::printf("%s\n%s\n", report.detail_line().c_str(),
              report.result_line().c_str());
  return report.correct() ? 0 : 1;
}
