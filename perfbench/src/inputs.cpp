#include "inputs.hpp"

#include <string_view>
#include <unordered_set>

#include "data/smartcity.hpp"
#include "data/taxi.hpp"
#include "util/prng.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

template <typename Generator>
input generate(Generator& gen, std::size_t records) {
  input in;
  in.stream.reserve(records * 320);
  in.ends.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    in.stream += gen.record();
    in.ends.push_back(in.stream.size());
    in.stream += '\n';
  }
  return in;
}

bool token_byte(unsigned char c) {
  return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
         c == 'e' || c == 'E';
}

}  // namespace

input smartcity_input(std::uint64_t seed, std::size_t records) {
  jrf::data::smartcity_generator gen(seed);
  return generate(gen, records);
}

input taxi_input(std::uint64_t seed, std::size_t records) {
  jrf::data::taxi_generator gen(seed);
  return generate(gen, records);
}

input_properties describe(std::string_view s, std::size_t records) {
  input_properties p;
  p.bytes = static_cast<double>(s.size());
  p.records = static_cast<double>(records);
  p.mean_record_bytes = p.records > 0 ? p.bytes / p.records : 0.0;
  std::unordered_set<std::string_view> seen;
  seen.reserve(records * 8);
  std::uint64_t tokens = 0;
  std::uint64_t repeats = 0;
  for (std::size_t i = 0; i < s.size();) {
    if (!token_byte(static_cast<unsigned char>(s[i]))) {
      ++i;
      continue;
    }
    std::size_t j = i;
    bool digit = false;
    while (j < s.size() && token_byte(static_cast<unsigned char>(s[j]))) {
      digit = digit || (s[j] >= '0' && s[j] <= '9');
      ++j;
    }
    if (digit) {
      ++tokens;
      if (!seen.insert(s.substr(i, j - i)).second) ++repeats;
    }
    i = j;
  }
  p.numeric_repeat_pct =
      tokens > 0 ? 100.0 * static_cast<double>(repeats) /
                       static_cast<double>(tokens)
                 : 0.0;
  return p;
}

std::vector<std::string> fleet_query_texts(std::uint64_t seed,
                                           std::size_t count) {
  // Threshold pools per attribute, written with the precision the data
  // carries (integer automata for the integral attributes). A bounded pool
  // keeps the interned engine set bounded and makes queries share
  // conjuncts, hence plan-trie prefixes.
  struct attribute {
    const char* name;
    std::vector<const char*> lo;
    std::vector<const char*> hi;
  };
  static const attribute attributes[] = {
      {"temperature", {"8.5", "14.0", "19.5", "23.0"},
       {"22.0", "27.5", "33.0", "38.5"}},
      {"humidity", {"15.0", "30.5", "42.0", "50.0"},
       {"48.0", "55.5", "66.0", "80.0"}},
      {"light", {"0", "1100", "1250", "1345"},
       {"1200", "1320", "5000", "26282"}},
      {"dust", {"100.00", "300.00", "500.00", "800.00"},
       {"700.00", "1200.00", "2500.00", "6000.00"}},
      {"airquality_raw", {"5", "15", "24", "31"}, {"27", "36", "45", "60"}},
  };
  jrf::util::prng rng(mix_seed(seed, 0xF1EE7));
  std::vector<std::string> texts;
  texts.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    // 1-3 distinct attributes, in attribute order.
    const std::size_t ways = 1 + rng.below(3);
    bool pick[5] = {false, false, false, false, false};
    for (std::size_t chosen = 0; chosen < ways;) {
      const std::size_t a = rng.below(5);
      if (!pick[a]) {
        pick[a] = true;
        ++chosen;
      }
    }
    std::string text;
    for (std::size_t a = 0; a < 5; ++a) {
      if (!pick[a]) continue;
      const attribute& at = attributes[a];
      std::string_view lo;
      std::string_view hi;
      do {
        lo = at.lo[rng.below(at.lo.size())];
        hi = at.hi[rng.below(at.hi.size())];
      } while (std::stod(std::string(lo)) >= std::stod(std::string(hi)));
      if (!text.empty()) text += " AND ";
      text += "(";
      text += lo;
      text += " <= \"";
      text += at.name;
      text += "\" <= ";
      text += hi;
      text += ")";
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

}  // namespace perfbench
