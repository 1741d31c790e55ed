// perfbench - the raw filter's benchmark program.
//
//   jrf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--smoke] [--flip-record R] [--source-id ID]
//                 [--out-dir DIR]
//
// Prints a host fingerprint, the input properties, every metric as
// "metric <name> <value> <unit>", and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any check
// fails. --flip-record inverts one record's verdict inside the bench's
// sink, to prove the checks count it; --smoke shrinks the inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct metric_def {
  const char* name;
  const char* unit;
};

// Reported by untraced runs, on every workload (README.md: definitions).
constexpr metric_def kEndToEnd[] = {
    {"throughput_mbps", "MB/s"}, {"setup_s", "s"},  {"peak_rss_mb", "MB"},
    {"filtered_pct", "%"},       {"p50_us", "us"},  {"max_rate_rps", "1/s"},
};

// Reported by traced runs, on every workload; 0 where a layer has no work.
constexpr metric_def kPerLayer[] = {
    {"query.parse_s", "s"},
    {"query.compile_s", "s"},
    {"core.compile_set_s", "s"},
    {"core.unique_engines", "count"},
    {"core.trie_nodes", "count"},
    {"core.memchr_mbps", "MB/s"},
    {"core.bitmap_pass_mbps", "MB/s"},
    {"core.bitmap_pass_fraction_of_memchr", "ratio"},
    {"core.engine_mbps", "MB/s"},
    {"core.engine_fraction_of_memchr", "ratio"},
    {"core.memchr_s", "s"},
    {"core.bitmap_pass_self_s", "s"},
    {"core.engine_self_s", "s"},
    {"core.ns_per_record", "ns"},
    {"core.records", "count"},
    {"core.accepted", "count"},
    {"core.fpr_pct", "%"},
    {"project.busy_s", "s"},
    {"project.ns_per_row", "ns"},
    {"project.rows", "count"},
    {"project.text_bytes", "B"},
    {"project.useful_pct", "%"},
    {"project.fraction_of_memchr", "ratio"},
    {"api.self_s", "s"},
    {"api.sink_s", "s"},
    {"api.verdict_words", "count"},
    {"api.build_s", "s"},
    {"api.fraction_of_memchr", "ratio"},
    {"system.self_s", "s"},
    {"system.fraction_of_memchr", "ratio"},
    {"system.hard_backpressure_events", "count"},
    {"system.fifo_high_water_bytes", "B"},
    {"net.decide_p50_us", "us"},
    {"net.decide_p99_us", "us"},
    {"net.echo_p50_us", "us"},
    {"net.echo_p99_us", "us"},
    {"net.p99_us", "us"},
    {"net.p999_us", "us"},
    {"net.refused", "count"},
    {"net.idle_closed", "count"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.r25k.sent", "count"},
    {"loadgen.r25k.succeeded", "count"},
    {"loadgen.r25k.failed", "count"},
    {"loadgen.r50k.sent", "count"},
    {"loadgen.r50k.succeeded", "count"},
    {"loadgen.r50k.failed", "count"},
    {"loadgen.r100k.sent", "count"},
    {"loadgen.r100k.succeeded", "count"},
    {"loadgen.r100k.failed", "count"},
    {"loadgen.r200k.sent", "count"},
    {"loadgen.r200k.succeeded", "count"},
    {"loadgen.r200k.failed", "count"},
    {"input.bytes", "B"},
    {"input.records", "count"},
    {"input.mean_record_bytes", "B"},
    {"input.selectivity_pct", "%"},
    {"input.paper_selectivity_pct", "%"},
    {"input.numeric_repeat_pct", "%"},
    {"trace.e2e_pass_s", "s"},
    {"trace.ladder_pass_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.e2e_throughput_mbps", "MB/s"},
    {"trace.traced_throughput_mbps", "MB/s"},
    {"trace.ladders", "count"},
    {"trace.spans", "count"},
    {"trace.span_violations", "count"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload qs0-stream|fleet-10k|qt-project|"
               "qs1-service --seed N --seconds S --trace 0|1 [--smoke] "
               "[--flip-record R] [--source-id ID] [--out-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (value == nullptr) return usage(argv[0]);
    ++i;
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--flip-record") {
      cfg.flip_record = std::strtoll(value, nullptr, 10);
    } else if (arg == "--source-id") {
      cfg.source_id = value;
    } else if (arg == "--out-dir") {
      cfg.out_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !(cfg.seconds > 0)) return usage(argv[0]);

  std::printf("fingerprint %s\n", fingerprint_json(cfg).c_str());
  result out;
  try {
    if (cfg.workload == "qs0-stream") run_qs0_stream(cfg, out);
    else if (cfg.workload == "fleet-10k") run_fleet_10k(cfg, out);
    else if (cfg.workload == "qt-project") run_qt_project(cfg, out);
    else if (cfg.workload == "qs1-service") run_qs1_service(cfg, out);
    else return usage(argv[0]);
  } catch (const std::exception& e) {
    out.broken(std::string("exception: ") + e.what());
  }

  // The reported set is exactly the list for the mode: layers without
  // work on this workload report 0, and a name outside the list is a
  // bench bug.
  std::vector<result::entry> metrics;
  const auto& defs = cfg.trace ? std::span<const metric_def>(kPerLayer)
                               : std::span<const metric_def>(kEndToEnd);
  for (const metric_def& d : defs) {
    const double v = out.has(d.name) ? out.value(d.name) : 0.0;
    if (!std::isfinite(v)) out.broken(std::string("non-finite ") + d.name);
    metrics.push_back({d.name, std::isfinite(v) ? v : 0.0, d.unit});
  }
  for (const result::entry& e : out.entries()) {
    bool known = false;
    for (const metric_def& d : defs) known = known || e.name == d.name;
    if (!known) out.broken("metric outside the list: " + e.name);
  }
  for (const result::entry& e : metrics)
    std::printf("metric   %-40s %16.6f %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  std::printf("checks   attempted %llu failed %llu -> %s\n",
              static_cast<unsigned long long>(out.attempted_count()),
              static_cast<unsigned long long>(out.failed_count()),
              out.correct() ? "correct" : "NOT CORRECT");

  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    out.attempted_count(), 1));
  json += ", \"failed\": " + std::to_string(out.failed_count());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
