#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {

namespace pl = polaris;

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) op(false, name + " is not a finite number");
  metrics_[name] = Metric{value, unit};
}

void Report::detail(const std::string& name, double value) {
  details_[name] = value;
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n",
               what.empty() ? "(unnamed operation)" : what.c_str());
}

std::string Report::detail_line() const {
  std::string out = "{\"detail\":{";
  bool first = true;
  for (const auto& [name, value] : details_) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":" + json_number(value);
  }
  return out + "}}";
}

std::string Report::result_line() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":{\"value\":" + json_number(metric.value) +
           ",\"unit\":\"" + metric.unit + "\"}";
  }
  return out + "}}";
}

pl::core::PolarisConfig paper_config(std::uint64_t tvla_seed) {
  pl::core::PolarisConfig config;
  config.mask_size = 60;
  config.locality = 7;
  config.iterations = 100;
  config.theta_r = 0.70;
  config.model = pl::core::ModelKind::kAdaBoost;
  config.learning_rate = 0.01;
  config.model_rounds = 300;
  config.tvla.traces = 8192;
  config.tvla.noise_std_fj = 1.0;
  config.tvla.seed = tvla_seed;
  config.threads = kLanes;
  return config;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_report(const pl::tvla::LeakageReport& a,
                 const pl::tvla::LeakageReport& b) {
  if (!same_bits(a.t_values(), b.t_values())) return false;
  for (std::size_t g = 0; g < a.group_count(); ++g) {
    if (a.measured(static_cast<pl::netlist::GateId>(g)) !=
        b.measured(static_cast<pl::netlist::GateId>(g))) {
      return false;
    }
  }
  return a.threshold() == b.threshold() &&
         a.traces_used() == b.traces_used() &&
         a.early_stopped() == b.early_stopped();
}

bool same_reports(std::span<const pl::tvla::LeakageReport> a,
                  std::span<const pl::tvla::LeakageReport> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_report(a[i], b[i])) return false;
  }
  return true;
}

double peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Connection::Connection(const pl::server::net::Endpoint& endpoint)
    : fd_(pl::server::net::connect_endpoint(endpoint)) {}

Connection::~Connection() { ::close(fd_); }

pl::server::Response Connection::roundtrip(std::span<const std::uint8_t> payload) {
  pl::server::write_frame(fd_, payload);
  std::vector<std::uint8_t> reply;
  if (pl::server::read_frame(fd_, pl::server::kDefaultMaxFrame * 4, reply) !=
      pl::server::FrameResult::kFrame) {
    throw std::runtime_error("perfbench: no response frame");
  }
  return pl::server::decode_response(std::move(reply));
}

pl::obs::Snapshot RegistryDelta::take() const {
  pl::obs::Snapshot now = pl::obs::Registry::global().snapshot();
  now.subtract(before_);
  return now;
}

double histogram_percentile(const pl::obs::Snapshot& snapshot, const char* name,
                            double p) {
  const auto* histogram = snapshot.find_histogram(name);
  return histogram == nullptr ? 0.0 : histogram->percentile(p);
}

}  // namespace perfbench
