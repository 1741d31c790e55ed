// Shared declarations of the raw-filter benchmark (perfbench/).
//
// One binary runs one named workload from a seed, measures for a fixed
// number of seconds and prints every metric by name with its unit; the
// last stdout line is the machine-readable result. Untraced runs
// (--trace 0) produce the end-to-end metrics, traced runs (--trace 1) the
// per-layer metrics from spans recorded around the public calls into each
// module. See perfbench/README.md for the metric table.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using steady = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

struct config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Smoke size: small stream inputs and fleet, for the self-test.
  bool smoke = false;
  // Flip the verdict of this record in the bench's sink before the checks
  // (self-test of the failure accounting); negative = off.
  std::int64_t flip_record = -1;
  std::string source_id = "unknown";  // git SHA or source digest
  std::string out_dir = ".bench_build";  // span files land here
};

// --- statistics -----------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> values, double q);

// --- results --------------------------------------------------------------

/// Named metrics of one run plus the correctness ledger. Every check that
/// runs adds its item count to `attempted`; every missing, differing or
/// false-negative verdict adds to `failed`.
class result {
 public:
  void metric(std::string name, double value, std::string unit);
  bool has(std::string_view name) const;
  double value(std::string_view name) const;

  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Record `n` failed items with a reason printed in the human report.
  void fail(std::uint64_t n, const std::string& why);
  /// A check that could not run at all (not an item miss).
  void broken(const std::string& why);

  std::uint64_t attempted_count() const { return attempted_; }
  std::uint64_t failed_count() const { return failed_; }
  bool correct() const { return failed_ == 0 && !broken_; }

  struct entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<entry>& entries() const { return entries_; }

 private:
  std::vector<entry> entries_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool broken_ = false;
};

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Pin the calling thread to the CPU it runs on. Single-threaded stream
/// passes migrate between cores otherwise, which on a shared 4-core host
/// spreads pass times far more than the code under test does.
void pin_to_current_cpu();

/// One line describing host, build and SIMD tier.
std::string fingerprint_json(const config& cfg);

// --- workloads ------------------------------------------------------------

void run_qs0_stream(const config& cfg, result& out);
void run_fleet_10k(const config& cfg, result& out);
void run_qt_project(const config& cfg, result& out);
void run_qs1_service(const config& cfg, result& out);

}  // namespace perfbench
