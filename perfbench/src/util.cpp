#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

void result::metric(std::string name, double value, std::string unit) {
  for (entry& e : entries_)
    if (e.name == name) {
      e.value = value;
      e.unit = std::move(unit);
      return;
    }
  entries_.push_back(entry{std::move(name), value, std::move(unit)});
}

bool result::has(std::string_view name) const {
  for (const entry& e : entries_)
    if (e.name == name) return true;
  return false;
}

double result::value(std::string_view name) const {
  for (const entry& e : entries_)
    if (e.name == name) return e.value;
  throw std::logic_error("result: no metric " + std::string(name));
}

void result::fail(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  std::printf("FAILED   %llu: %s\n", static_cast<unsigned long long>(n),
              why.c_str());
}

void result::broken(const std::string& why) {
  broken_ = true;
  std::printf("BROKEN   %s\n", why.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  return "unknown";
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string fingerprint_json(const config& cfg) {
  using namespace jrf::core::simd;
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"cpu\": \"%s\", \"nproc\": %ld, \"simd_detected\": \"%s\", "
      "\"simd_active\": \"%s\", \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"smoke\": %d}",
      escape(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      to_string(detected_level()), to_string(active_level()),
      PERFBENCH_BUILD_TYPE, escape(PERFBENCH_COMPILER).c_str(),
      escape(cfg.source_id).c_str(), escape(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.seconds,
      cfg.trace ? 1 : 0, cfg.smoke ? 1 : 0);
  return buf;
}

}  // namespace perfbench
