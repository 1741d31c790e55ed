// Workload inputs, generated fresh from the run's seed: whole NDJSON
// streams of distinct generated records (never inflate() copies), the
// fleet's query texts, and the input properties every run reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct input {
  std::string stream;             // '\n'-terminated records
  std::vector<std::size_t> ends;  // offset of each record's separator
  std::size_t records() const { return ends.size(); }
  std::size_t record_begin(std::size_t r) const {
    return r == 0 ? 0 : ends[r - 1] + 1;
  }
  /// Bytes of record r, its separator included.
  std::size_t record_size(std::size_t r) const {
    return ends[r] + 1 - record_begin(r);
  }
};

input smartcity_input(std::uint64_t seed, std::size_t records);
input taxi_input(std::uint64_t seed, std::size_t records);

struct input_properties {
  double bytes = 0;
  double records = 0;
  double mean_record_bytes = 0;
  /// Share of numeric tokens (maximal runs of the engine's token class
  /// holding a digit) equal to an earlier token of the same stream - the
  /// opportunity of the engine's cross-record numeral memo.
  double numeric_repeat_pct = 0;
};

input_properties describe(std::string_view stream, std::size_t records);

/// `count` SenML range queries in Table VIII syntax: each a 1-3 way
/// conjunction over the five QS attributes, bounds drawn from a fixed
/// per-attribute threshold pool.
std::vector<std::string> fleet_query_texts(std::uint64_t seed,
                                           std::size_t count);

/// Seed of one generator stream: the run seed mixed with a per-use salt,
/// so workloads and record streams do not share draws.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
