// The three stream workloads: qs0-stream, fleet-10k and qt-project.
//
// Untraced run: every pass builds a fresh sharded(1) pipeline (one setup
// sample; no engine ever sees bytes twice, so the engines' cross-record
// caches start cold every pass) and offers one part of the fresh input in
// fixed chunks from one thread (one throughput and latency sample).
//
// Traced run: the first part replayed through cumulative rungs, each on
// fresh objects - memchr, core::bitmap_pass, the chunked engine, the
// engine plus the bench's own projection hook, the chunked facade and the
// sharded(1) facade - each ladder followed by an untraced sharded(1) pass.
// Each rung's increment over the one below is that layer's self time.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "api/pipeline.hpp"
#include "bench.hpp"
#include "core/bitmaps.hpp"
#include "core/filter_engine.hpp"
#include "core/raw_filter.hpp"
#include "inputs.hpp"
#include "project/columns.hpp"
#include "project/paths.hpp"
#include "project/tape.hpp"
#include "query/compile.hpp"
#include "query/eval.hpp"
#include "query/parse.hpp"
#include "query/riotbench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace jrf;

constexpr std::size_t kChunkBytes = 64 * 1024;  // one offer() per chunk
constexpr int kMinPasses = 3;
constexpr int kSetupRepeats = 5;  // build-only setup samples per run
// Traced runs: ladder iterations (each replays the part through every
// rung); capped because per-record sink spans are kept in memory.
constexpr int kMinLadders = 2;
constexpr int kMaxLadders = 3;
constexpr std::uint8_t kMissing = 2;
constexpr std::size_t kFleetSamples = 8;  // columns checked standalone

// The slice of the input one pass offers: whole records.
struct part {
  std::size_t first = 0;  // first record
  std::size_t records = 0;
  std::size_t begin = 0;  // byte offset in the stream
  std::string_view bytes;
};

struct workload {
  std::string name;
  query::data_model model = query::data_model::senml;
  std::vector<query::query> queries;
  // Fleet only: the query texts, so that build() parses them (setup).
  std::vector<std::string> texts;
  input in;
  std::vector<part> parts;  // pass k offers parts[k % parts.size()]
  input_properties props;   // of one part: what one pass sees
  bool fleet = false;    // on_verdict sink instead of on_decision
  bool project = false;  // project() with an on_projection sink
  double paper_selectivity_pct = 0.0;  // Table VIII; 0 = none
  std::vector<std::size_t> samples;    // fleet: sampled query ordinals
};

void split_parts(workload& w, std::size_t count) {
  const std::size_t n = w.in.records();
  for (std::size_t k = 0; k < count; ++k) {
    part p;
    p.first = k * n / count;
    p.records = (k + 1) * n / count - p.first;
    p.begin = w.in.record_begin(p.first);
    const std::size_t end = w.in.ends[p.first + p.records - 1] + 1;
    p.bytes = std::string_view(w.in.stream).substr(p.begin, end - p.begin);
    w.parts.push_back(p);
  }
}

std::uint64_t mix_word(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 29);
}

// What the bench's sinks saw during one pass. Record indices are the
// pipeline's, i.e. relative to the part.
struct capture {
  const workload* w = nullptr;
  const part* p = nullptr;
  std::vector<std::uint8_t> verdict;       // 0/1, kMissing until decided
  std::uint64_t unexpected = 0;            // unknown or repeated records
  std::vector<std::uint64_t> row_hash;     // fleet: hash of the bitmap row
  std::vector<std::uint8_t> sample_bits;   // fleet: records x samples
  std::uint64_t verdict_words = 0;
  std::uint64_t rows = 0;                  // projected rows
  std::uint64_t text_bytes = 0;            // projected column text
  std::vector<std::uint64_t> projected;    // record indices of those rows
  std::vector<float> latency_us;           // offer start -> verdict
  std::vector<std::int64_t> offer_start;   // per chunk
  std::int64_t flip = -1;
  tracer* tr = nullptr;
  std::uint32_t sink_name = 0;
  std::uint32_t pass = 0;

  void reset(const workload& wl, const part& pt, std::int64_t flip_record) {
    w = &wl;
    p = &pt;
    const std::size_t n = pt.records;
    verdict.assign(n, kMissing);
    unexpected = 0;
    row_hash.assign(wl.fleet ? n : 0, 0);
    sample_bits.assign(wl.fleet ? n * wl.samples.size() : 0, 0);
    verdict_words = rows = text_bytes = 0;
    projected.clear();
    latency_us.assign(n, 0.0f);
    offer_start.assign(pt.bytes.size() / kChunkBytes + 1, 0);
    flip = flip_record;
    tr = nullptr;
  }

  // Returns false for an unknown or repeated record.
  bool take(std::uint64_t r, bool accepted, std::int64_t t) {
    if (r >= verdict.size() || verdict[r] != kMissing) {
      ++unexpected;
      return false;
    }
    if (static_cast<std::int64_t>(r) == flip) accepted = !accepted;
    verdict[r] = accepted ? 1 : 0;
    const std::size_t chunk =
        (w->in.ends[p->first + r] - p->begin) / kChunkBytes;
    latency_us[r] = static_cast<float>(t - offer_start[chunk]) * 1e-3f;
    return true;
  }
};

expected<pipeline> build_pipeline(const workload& w, backend_kind kind,
                                  capture& c) {
  auto b = pipeline::make();
  if (w.texts.empty()) {
    b.from_query(w.queries[0]);
  } else {
    b.filter_expression(w.texts[0], w.model);
    for (std::size_t i = 1; i < w.texts.size(); ++i)
      b.add_filter_expression(w.texts[i], w.model);
  }
  b.backend(kind);
  if (kind == backend_kind::sharded) b.shards(1);
  if (w.fleet) {
    b.on_verdict([&c](std::size_t, std::uint64_t r,
                      std::span<const core::query_id> ids,
                      std::span<const std::uint64_t> words) {
      const std::int64_t t = now_ns();
      scoped_span span(c.tr, c.sink_name, c.pass);
      std::uint64_t any = 0;
      std::uint64_t h = 0;
      for (const std::uint64_t word : words) {
        any |= word;
        h = mix_word(h, word);
      }
      c.verdict_words += words.size();
      if (ids.size() != c.w->queries.size()) {
        ++c.unexpected;
        return;
      }
      if (!c.take(r, any != 0, t)) return;
      c.row_hash[r] = h;
      const std::size_t s = c.w->samples.size();
      for (std::size_t k = 0; k < s; ++k) {
        const std::size_t q = c.w->samples[k];
        c.sample_bits[r * s + k] =
            static_cast<std::uint8_t>((words[q >> 6] >> (q & 63)) & 1);
      }
    });
  } else {
    b.on_decision([&c](std::size_t, std::uint64_t r, bool accepted) {
      const std::int64_t t = now_ns();
      scoped_span span(c.tr, c.sink_name, c.pass);
      c.take(r, accepted, t);
    });
  }
  if (w.project) {
    b.project().on_projection(
        [&c](std::size_t, const project::column_batch& batch) {
          scoped_span span(c.tr, c.sink_name, c.pass);
          c.rows += batch.rows();
          for (const project::column_data& col : batch.columns)
            c.text_bytes += col.text.size();
          c.projected.insert(c.projected.end(), batch.records.begin(),
                             batch.records.end());
        });
  }
  return b.build();
}

struct span_names {
  std::uint32_t offer = 0, finish = 0;
};

// Offer the part in fixed chunks and finish. Returns the pass time from
// the first offer to finish returning; nullopt (with `error`) on a facade
// error.
std::optional<double> stream_pass(pipeline& p, capture& c,
                                  const span_names& names,
                                  run_result& result, std::string& error) {
  const std::string_view s = c.p->bytes;
  const std::int64_t start = now_ns();
  for (std::size_t off = 0, k = 0; off < s.size(); off += kChunkBytes, ++k) {
    c.offer_start[k] = now_ns();
    scoped_span span(c.tr, names.offer, c.pass);
    auto taken = p.offer(0, s.substr(off, kChunkBytes));
    if (!taken) {
      error = taken.error().message;
      return std::nullopt;
    }
  }
  {
    scoped_span span(c.tr, names.finish, c.pass);
    auto finished = p.finish();
    if (!finished) {
      error = finished.error().message;
      return std::nullopt;
    }
    result = std::move(*finished);
  }
  return seconds_between(start, now_ns());
}

// Reference verdicts over the whole input (untimed): the standalone
// chunked engine, with per-record bitmap-row hashes for the fleet, plus
// the fleet's sampled queries on single-query engines and the exact
// evaluator's labels.
struct reference {
  std::vector<bool> decisions;
  std::vector<std::uint64_t> row_hash;
  std::vector<std::vector<bool>> sample_columns;  // fleet: single engines
  std::vector<std::vector<bool>> labels;          // exact, per query checked
  std::vector<std::size_t> label_queries;         // which queries
};

std::vector<core::expr_ptr> compile_all(const std::vector<query::query>& qs) {
  std::vector<core::expr_ptr> out;
  out.reserve(qs.size());
  for (const query::query& q : qs) out.push_back(query::compile_default(q));
  return out;
}

reference make_reference(const workload& w) {
  reference ref;
  const std::vector<core::expr_ptr> exprs = compile_all(w.queries);
  auto engine = core::make_filter_engine(core::engine_kind::chunked, exprs);
  const std::size_t per = engine->words_per_record();
  auto take_rows = [&] {
    if (!w.fleet) return;
    const std::vector<std::uint64_t> words = engine->take_decision_words();
    for (std::size_t r = 0; r * per < words.size(); ++r) {
      std::uint64_t h = 0;
      for (std::size_t k = 0; k < per; ++k) h = mix_word(h, words[r * per + k]);
      ref.row_hash.push_back(h);
    }
  };
  const std::string_view s = w.in.stream;
  for (std::size_t off = 0; off < s.size(); off += kChunkBytes) {
    engine->scan_chunk(s.substr(off, kChunkBytes));
    take_rows();
  }
  engine->finish();
  take_rows();
  ref.decisions = engine->take_decisions();
  if (w.fleet) {
    for (const std::size_t q : w.samples) {
      auto single = core::make_filter_engine(core::engine_kind::chunked,
                                             exprs[q]);
      ref.sample_columns.push_back(single->filter_stream(s));
      ref.label_queries.push_back(q);
    }
  } else {
    ref.label_queries.push_back(0);
  }
  for (const std::size_t q : ref.label_queries)
    ref.labels.push_back(query::label_stream(w.queries[q], s));
  return ref;
}

// Compare one pass's captured verdicts against the reference; every
// missing, repeated or differing verdict is a failed item.
void check_pass(const workload& w, const reference& ref, const capture& c,
                const char* what, result& out) {
  const part& p = *c.p;
  out.attempted(p.records);
  std::uint64_t missing = 0, differ = 0, bits = 0;
  for (std::size_t r = 0; r < p.records; ++r) {
    const std::size_t g = p.first + r;
    if (c.verdict[r] == kMissing) {
      ++missing;
      continue;
    }
    if ((c.verdict[r] == 1) != ref.decisions[g] ||
        (w.fleet && c.row_hash[r] != ref.row_hash[g]))
      ++differ;
    for (std::size_t k = 0; k < ref.sample_columns.size(); ++k)
      if ((c.sample_bits[r * w.samples.size() + k] == 1) !=
          ref.sample_columns[k][g])
        ++bits;
  }
  const std::string tag = std::string(what) + ": ";
  out.fail(missing, tag + "records without a verdict");
  out.fail(c.unexpected, tag + "verdicts for unknown or repeated records");
  out.fail(differ, tag + "verdicts that differ from the standalone engine");
  out.fail(bits, tag + "sampled query bits that differ from single-query "
                       "engines");
}

// The exact-evaluator check of one pass: no query may drop a true match.
void check_false_negatives(const workload& w, const reference& ref,
                           const capture& c, result& out) {
  const part& p = *c.p;
  for (std::size_t k = 0; k < ref.label_queries.size(); ++k) {
    std::vector<bool> column(p.records);
    for (std::size_t r = 0; r < p.records; ++r)
      column[r] = w.fleet ? c.sample_bits[r * w.samples.size() + k] == 1
                          : c.verdict[r] == 1;
    const auto report = query::verify_no_false_negatives(
        w.queries[ref.label_queries[k]], p.bytes, column);
    out.attempted(report.true_matches);
    out.fail(report.false_negatives,
             "false negatives against the exact evaluator (query " +
                 std::to_string(ref.label_queries[k]) + ")");
  }
}

// Share of the input's bytes (separators included) in dropped records.
double filtered_pct(const workload& w, const std::vector<bool>& decisions) {
  std::uint64_t dropped = 0;
  for (std::size_t r = 0; r < w.in.records(); ++r)
    if (!decisions[r]) dropped += w.in.record_size(r);
  return 100.0 * static_cast<double>(dropped) /
         static_cast<double>(w.in.stream.size());
}

// Pooled FPR of the checked queries: false positives over true negatives.
double fpr_pct(const reference& ref, bool fleet) {
  std::uint64_t fp = 0, negatives = 0;
  for (std::size_t k = 0; k < ref.labels.size(); ++k) {
    const std::vector<bool>& d =
        fleet ? ref.sample_columns[k] : ref.decisions;
    const double rate = core::false_positive_rate(d, ref.labels[k]);
    std::uint64_t neg = 0;
    for (const bool l : ref.labels[k]) neg += l ? 0 : 1;
    fp += static_cast<std::uint64_t>(rate * static_cast<double>(neg) + 0.5);
    negatives += neg;
  }
  return negatives ? 100.0 * static_cast<double>(fp) /
                         static_cast<double>(negatives)
                   : 0.0;
}

double selectivity_pct(const std::vector<bool>& labels) {
  std::uint64_t hits = 0;
  for (const bool l : labels) hits += l ? 1 : 0;
  return labels.empty() ? 0.0
                        : 100.0 * static_cast<double>(hits) /
                              static_cast<double>(labels.size());
}

// Exact selectivity: the query's, or the mean over the fleet's samples.
double selectivity_pct(const reference& ref) {
  double sum = 0.0;
  for (const auto& labels : ref.labels) sum += selectivity_pct(labels);
  return ref.labels.empty() ? 0.0
                            : sum / static_cast<double>(ref.labels.size());
}

void print_input(const workload& w, const reference& ref) {
  std::printf("input    %s: %zu records, %zu bytes in %zu parts; per part "
              "%.0f records, %.0f bytes, %.1f B/record, numeric token "
              "repeats %.1f%%\n",
              w.name.c_str(), w.in.records(), w.in.stream.size(),
              w.parts.size(), w.props.records, w.props.bytes,
              w.props.mean_record_bytes, w.props.numeric_repeat_pct);
  if (w.fleet) {
    double lo = 100.0, hi = 0.0;
    for (const auto& labels : ref.labels) {
      lo = std::min(lo, selectivity_pct(labels));
      hi = std::max(hi, selectivity_pct(labels));
    }
    std::printf("input    %zu queries; sampled per-query selectivity "
                "%.1f-%.1f%%\n",
                w.queries.size(), lo, hi);
  } else {
    std::printf("input    exact selectivity %.2f%% (paper Table VIII: "
                "%.1f%%)\n",
                selectivity_pct(ref), w.paper_selectivity_pct);
  }
}

double percentile_of(const std::vector<float>& v, double q) {
  return quantile(std::vector<double>(v.begin(), v.end()), q);
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.

void run_untraced(const config& cfg, const workload& w, const reference& ref,
                  result& out) {
  capture c;
  std::vector<double> setup, mbps, p50;
  // Setup samples: build-only repeats, then one build per pass.
  for (int i = 0; i < kSetupRepeats; ++i) {
    c.reset(w, w.parts[0], cfg.flip_record);
    const std::int64_t t0 = now_ns();
    auto built = build_pipeline(w, backend_kind::sharded, c);
    setup.push_back(seconds_between(t0, now_ns()));
    if (!built) {
      out.broken("build failed: " + built.error().message);
      return;
    }
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::vector<const part*> pass_part;
  for (std::size_t i = 0;
       i < kMinPasses || i < w.parts.size() || now_ns() < deadline; ++i) {
    const part& pt = w.parts[i % w.parts.size()];
    c.reset(w, pt, cfg.flip_record);
    const std::int64_t t0 = now_ns();
    auto built = build_pipeline(w, backend_kind::sharded, c);
    const std::int64_t t1 = now_ns();
    if (!built) {
      out.broken("build failed: " + built.error().message);
      return;
    }
    run_result res;
    std::string error;
    const auto seconds = stream_pass(*built, c, span_names{}, res, error);
    if (!seconds) {
      out.broken("stream failed: " + error);
      return;
    }
    setup.push_back(seconds_between(t0, t1));
    mbps.push_back(static_cast<double>(pt.bytes.size()) / *seconds / 1e6);
    p50.push_back(percentile_of(c.latency_us, 0.5));
    pass_part.push_back(&pt);
    check_pass(w, ref, c, "sharded(1) facade", out);
    if (i < w.parts.size()) check_false_negatives(w, ref, c, out);
  }
  // The run's figures come from its fastest pass: on a shared host other
  // tenants only ever slow a pass down (cache and core contention shows
  // up in CPU time too, not only in wall time), so the fastest of many
  // fresh-engine passes is the steady estimate of the code's own speed.
  const std::size_t best = static_cast<std::size_t>(
      std::max_element(mbps.begin(), mbps.end()) - mbps.begin());
  const part& bp = *pass_part[best];
  const double seconds =
      static_cast<double>(bp.bytes.size()) / 1e6 / mbps[best];
  std::printf("passes   %zu (MB/s: fastest %.2f median %.2f slowest %.2f)\n",
              mbps.size(), mbps[best], median(mbps),
              *std::min_element(mbps.begin(), mbps.end()));
  out.metric("throughput_mbps", mbps[best], "MB/s");
  out.metric("setup_s", median(setup), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("filtered_pct", filtered_pct(w, ref.decisions), "%");
  out.metric("p50_us", p50[best], "us");
  out.metric("max_rate_rps", static_cast<double>(bp.records) / seconds, "1/s");
}

// ---------------------------------------------------------------------------
// Traced run: the layer ladder over the first part.

class ladder {
 public:
  ladder(const config& cfg, const workload& w, const reference& ref,
         result& out)
      : cfg_(cfg), w_(w), ref_(ref), out_(out), p_(w.parts[0]) {}

  void run();

 private:
  std::uint32_t next_pass() { return ++pass_id_; }
  std::vector<core::expr_ptr> setup();
  void memchr_rung();
  void bitmap_rung();
  void engine_rung(const std::vector<core::expr_ptr>& exprs, bool hook);
  bool facade_rung(backend_kind kind, bool traced);
  void report();

  const config& cfg_;
  const workload& w_;
  const reference& ref_;
  result& out_;
  const part& p_;
  tracer tr_;
  std::uint32_t pass_id_ = 0;
  capture c_;

  // Span names.
  std::uint32_t n_setup_ = tr_.name("setup");
  std::uint32_t n_parse_ = tr_.name("query.parse");
  std::uint32_t n_compile_ = tr_.name("query.compile");
  std::uint32_t n_compile_set_ = tr_.name("core.compile_set");
  std::uint32_t n_build_ = tr_.name("api.build");
  std::uint32_t n_memchr_ = tr_.name("rung.memchr");
  std::uint32_t n_bitmap_ = tr_.name("rung.bitmap_pass");
  std::uint32_t n_bitmap_call_ = tr_.name("core.bitmap_pass.compute");
  std::uint32_t n_engine_ = tr_.name("rung.engine");
  std::uint32_t n_scan_ = tr_.name("core.scan_chunk");
  std::uint32_t n_efinish_ = tr_.name("core.finish");
  std::uint32_t n_project_ = tr_.name("rung.engine_project");
  std::uint32_t n_hook_ = tr_.name("project.hook");
  std::uint32_t n_chunked_ = tr_.name("rung.chunked_facade");
  std::uint32_t n_sharded_ = tr_.name("rung.sharded_facade");
  std::uint32_t n_offer_ = tr_.name("api.offer");
  std::uint32_t n_finish_ = tr_.name("api.finish");
  std::uint32_t n_sink_ = tr_.name("api.sink");

  // Per ladder iteration.
  std::vector<double> memchr_, bitmap_, engine_, project_, chunked_, sharded_,
      e2e_, sink_chunked_, parse_, compile_, compile_set_, build_;
  std::uint64_t unique_engines_ = 0, trie_nodes_ = 0, records_ = 0,
                accepted_ = 0, rows_ = 0, text_bytes_ = 0, useful_ = 0,
                verdict_words_ = 0, hard_bp_ = 0, fifo_high_ = 0;
};

// Setup stages, each on its own: parse, compile, shared plan, build.
std::vector<core::expr_ptr> ladder::setup() {
  const std::uint32_t pass = next_pass();
  std::vector<core::expr_ptr> exprs;
  {
    scoped_span root(&tr_, n_setup_, pass);
    std::vector<query::query> parsed;
    {
      scoped_span sp(&tr_, n_parse_, pass);
      for (const std::string& text : w_.texts)
        parsed.push_back(query::parse_filter_expression(text, w_.model));
    }
    if (w_.texts.empty()) parsed = w_.queries;
    {
      scoped_span sp(&tr_, n_compile_, pass);
      exprs = compile_all(parsed);
    }
    {
      scoped_span sp(&tr_, n_compile_set_, pass);
      const auto layout = core::compiled_layout::compile_set(exprs);
      unique_engines_ = layout.engines.size();
      trie_nodes_ = layout.trie.size();
    }
    c_.reset(w_, p_, -1);
    std::optional<expected<pipeline>> built;
    {
      scoped_span sp(&tr_, n_build_, pass);
      built.emplace(build_pipeline(w_, backend_kind::sharded, c_));
    }
    if (!*built) out_.broken("build failed: " + built->error().message);
  }
  parse_.push_back(tr_.first_s(n_parse_, pass));
  compile_.push_back(tr_.first_s(n_compile_, pass));
  compile_set_.push_back(tr_.first_s(n_compile_set_, pass));
  build_.push_back(tr_.first_s(n_build_, pass));
  return exprs;
}

// Rung 0: memchr over the part, the in-process ceiling.
void ladder::memchr_rung() {
  const std::uint32_t pass = next_pass();
  std::uint64_t count = 0;
  {
    scoped_span root(&tr_, n_memchr_, pass);
    const char* p = p_.bytes.data();
    const char* end = p + p_.bytes.size();
    while ((p = static_cast<const char*>(std::memchr(
                p, '\n', static_cast<std::size_t>(end - p)))) != nullptr) {
      ++count;
      ++p;
    }
  }
  if (count != p_.records)
    out_.fail(1, "memchr rung counted a different record count");
  memchr_.push_back(tr_.first_s(n_memchr_, pass));
}

// Rung 1: the structural bitmap pass, in the workload's chunks.
void ladder::bitmap_rung() {
  const std::uint32_t pass = next_pass();
  const auto* data = reinterpret_cast<const unsigned char*>(p_.bytes.data());
  const std::size_t size = p_.bytes.size();
  core::bitmap_pass bp;
  core::framing_state state;
  {
    scoped_span root(&tr_, n_bitmap_, pass);
    for (std::size_t off = 0; off < size; off += kChunkBytes) {
      scoped_span sp(&tr_, n_bitmap_call_, pass);
      bp.compute(data + off, std::min(kChunkBytes, size - off), '\n', state,
                 core::simd::simd_level::automatic);
      state = bp.end_state();
    }
  }
  bitmap_.push_back(tr_.first_s(n_bitmap_, pass));
}

// Rungs 2 and 3: the engine alone, then with the bench's projection hook
// (extractor -> tape -> column_builder, as a projecting lane does).
void ladder::engine_rung(const std::vector<core::expr_ptr>& exprs,
                         bool hook) {
  const std::uint32_t pass = next_pass();
  const std::uint32_t name = hook ? n_project_ : n_engine_;
  auto engine = core::make_filter_engine(core::engine_kind::chunked, exprs);
  const project::path_set paths = project::derive_paths(w_.queries);
  project::extractor extractor(paths, core::simd::simd_level::automatic);
  project::tape tape(paths.size());
  project::column_builder columns(paths);
  std::vector<project::field_ref> fields(paths.size());
  std::uint64_t rows = 0, text = 0;
  auto flush = [&] {
    columns.append(tape);
    tape.clear();
    const project::column_batch batch = columns.flush(0);
    rows += batch.rows();
    for (const auto& col : batch.columns) text += col.text.size();
  };
  if (hook) {
    engine->set_accepted_hook(
        [&](std::uint64_t ordinal, std::span<const unsigned char> record,
            const core::bitmap_pass& bp, std::size_t offset) {
          scoped_span sp(&tr_, n_hook_, pass);
          extractor.extract(record, bp, offset, fields.data());
          tape.add_record(ordinal, fields, record);
          if (tape.rows() >= 1024) flush();
        });
  }
  {
    scoped_span root(&tr_, name, pass);
    for (std::size_t off = 0; off < p_.bytes.size(); off += kChunkBytes) {
      scoped_span sp(&tr_, n_scan_, pass);
      engine->scan_chunk(p_.bytes.substr(off, kChunkBytes));
    }
    scoped_span sp(&tr_, n_efinish_, pass);
    engine->finish();
    if (hook) {
      scoped_span hs(&tr_, n_hook_, pass);
      flush();
    }
  }
  const std::vector<bool>& d = engine->decisions();
  out_.attempted(d.size());
  std::uint64_t differ = d.size() == p_.records ? 0 : d.size();
  for (std::size_t r = 0; differ == 0 && r < d.size(); ++r)
    differ += d[r] != ref_.decisions[p_.first + r] ? 1 : 0;
  out_.fail(differ, "engine rung verdicts differ from the reference");
  records_ = d.size();
  accepted_ = static_cast<std::uint64_t>(std::count(d.begin(), d.end(), true));
  if (hook) {
    project_.push_back(tr_.first_s(name, pass));
    rows_ = rows;
    text_bytes_ = text;
  } else {
    engine_.push_back(tr_.first_s(name, pass));
  }
}

// Rungs 4 and 5: a facade pass, traced or (the overhead reference) not.
bool ladder::facade_rung(backend_kind kind, bool traced) {
  const std::uint32_t pass = next_pass();
  const bool chunked = kind == backend_kind::chunked;
  const std::uint32_t name = chunked ? n_chunked_ : n_sharded_;
  c_.reset(w_, p_, cfg_.flip_record);
  c_.tr = traced ? &tr_ : nullptr;
  c_.sink_name = n_sink_;
  c_.pass = pass;
  auto built = build_pipeline(w_, kind, c_);
  if (!built) {
    out_.broken("build failed: " + built.error().message);
    return false;
  }
  run_result res;
  std::string error;
  std::optional<double> seconds;
  if (traced) {
    scoped_span root(&tr_, name, pass);
    seconds =
        stream_pass(*built, c_, span_names{n_offer_, n_finish_}, res, error);
  } else {
    seconds = stream_pass(*built, c_, span_names{}, res, error);
  }
  if (!seconds) {
    out_.broken("stream failed: " + error);
    return false;
  }
  check_pass(w_, ref_, c_, chunked ? "chunked facade" : "sharded(1) facade",
             out_);
  if (!traced) {
    e2e_.push_back(*seconds);
  } else if (chunked) {
    chunked_.push_back(tr_.first_s(name, pass));
    sink_chunked_.push_back(tr_.total_s(n_sink_, pass));
    verdict_words_ = c_.verdict_words;
    useful_ = 0;
    for (const std::uint64_t r : c_.projected)
      useful_ += r < p_.records && ref_.labels[0][p_.first + r] ? 1 : 0;
  } else {
    sharded_.push_back(tr_.first_s(name, pass));
    for (const auto& sh : res.shards) {
      hard_bp_ = sh.hard_backpressure_events;
      fifo_high_ = sh.fifo_high_watermark;
    }
  }
  return true;
}

void ladder::run() {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cfg_.seconds * 1e9);
  for (int it = 0;
       it < kMinLadders || (it < kMaxLadders && now_ns() < deadline); ++it) {
    const std::vector<core::expr_ptr> exprs = setup();
    memchr_rung();
    bitmap_rung();
    engine_rung(exprs, false);
    if (w_.project) engine_rung(exprs, true);
    if (!facade_rung(backend_kind::chunked, true) ||
        !facade_rung(backend_kind::sharded, true) ||
        !facade_rung(backend_kind::sharded, false))
      return;
  }
  report();
}

void ladder::report() {
  // Fastest pass of each rung, as in the untraced run; a layer's self
  // time is its rung's time minus the rung below it.
  auto fastest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const double t0 = fastest(memchr_), t1 = fastest(bitmap_),
               t2 = fastest(engine_);
  const double t3 = w_.project ? fastest(project_) : t2;
  const double t4 = fastest(chunked_), t5 = fastest(sharded_);
  const double e2e = fastest(e2e_);
  const double sink = sink_chunked_[static_cast<std::size_t>(
      std::min_element(chunked_.begin(), chunked_.end()) - chunked_.begin())];
  const double mb = static_cast<double>(p_.bytes.size()) / 1e6;
  const double memchr_mbps = mb / t0;
  result& out = out_;

  out.metric("query.parse_s", median(parse_), "s");
  out.metric("query.compile_s", median(compile_), "s");
  out.metric("core.compile_set_s", median(compile_set_), "s");
  out.metric("core.unique_engines", static_cast<double>(unique_engines_),
             "count");
  out.metric("core.trie_nodes", static_cast<double>(trie_nodes_), "count");
  out.metric("core.memchr_mbps", memchr_mbps, "MB/s");
  out.metric("core.bitmap_pass_mbps", mb / t1, "MB/s");
  out.metric("core.bitmap_pass_fraction_of_memchr", (mb / t1) / memchr_mbps,
             "ratio");
  out.metric("core.engine_mbps", mb / t2, "MB/s");
  out.metric("core.engine_fraction_of_memchr", (mb / t2) / memchr_mbps,
             "ratio");
  out.metric("core.memchr_s", t0, "s");
  out.metric("core.bitmap_pass_self_s", t1 - t0, "s");
  out.metric("core.engine_self_s", t2 - t1, "s");
  out.metric("core.ns_per_record", t2 / static_cast<double>(records_) * 1e9,
             "ns");
  out.metric("core.records", static_cast<double>(records_), "count");
  out.metric("core.accepted", static_cast<double>(accepted_), "count");
  out.metric("core.fpr_pct", fpr_pct(ref_, w_.fleet), "%");
  if (w_.project) {
    out.metric("project.busy_s", t3 - t2, "s");
    out.metric("project.ns_per_row",
               rows_ ? (t3 - t2) / static_cast<double>(rows_) * 1e9 : 0.0,
               "ns");
    out.metric("project.fraction_of_memchr", (mb / t3) / memchr_mbps,
               "ratio");
    out.metric("project.rows", static_cast<double>(rows_), "count");
    out.metric("project.text_bytes", static_cast<double>(text_bytes_), "B");
    out.metric("project.useful_pct",
               rows_ ? 100.0 * static_cast<double>(useful_) /
                           static_cast<double>(rows_)
                     : 0.0,
               "%");
  }
  out.metric("api.self_s", t4 - t3 - sink, "s");
  out.metric("api.sink_s", sink, "s");
  out.metric("api.verdict_words", static_cast<double>(verdict_words_),
             "count");
  out.metric("api.build_s", median(build_), "s");
  out.metric("api.fraction_of_memchr", (mb / t4) / memchr_mbps, "ratio");
  out.metric("system.self_s", t5 - t4, "s");
  out.metric("system.fraction_of_memchr", (mb / t5) / memchr_mbps, "ratio");
  out.metric("system.hard_backpressure_events", static_cast<double>(hard_bp_),
             "count");
  out.metric("system.fifo_high_water_bytes", static_cast<double>(fifo_high_),
             "B");
  // Accounting: the self times above telescope to the traced sharded(1)
  // pass; its excess over the untraced pass is the tracing overhead.
  const double ladder_s = t0 + (t1 - t0) + (t2 - t1) + (t3 - t2) +
                          (t4 - t3 - sink) + sink + (t5 - t4);
  out.metric("trace.e2e_pass_s", e2e, "s");
  out.metric("trace.ladder_pass_s", ladder_s, "s");
  out.metric("trace.overhead_pct", 100.0 * (ladder_s - e2e) / e2e, "%");
  out.metric("trace.e2e_throughput_mbps", mb / e2e, "MB/s");
  out.metric("trace.traced_throughput_mbps", mb / t5, "MB/s");
  out.metric("trace.ladders", static_cast<double>(e2e_.size()), "count");
  const std::uint64_t violations = tr_.violations();
  out.metric("trace.spans", static_cast<double>(tr_.spans().size()), "count");
  out.metric("trace.span_violations", static_cast<double>(violations),
             "count");
  if (violations != 0) out.broken("span nesting violated");
  const std::string path = cfg_.out_dir + "/" + w_.name + ".spans.tsv";
  if (!tr_.write(path))
    out.broken("cannot write " + path);
  else
    std::printf("spans    %zu written to %s\n", tr_.spans().size(),
                path.c_str());
}

void run_workload(const config& cfg, workload& w, std::size_t parts,
                  result& out) {
  for (const std::string& text : w.texts)
    w.queries.push_back(query::parse_filter_expression(text, w.model));
  split_parts(w, parts);
  w.props = describe(w.parts[0].bytes, w.parts[0].records);
  const reference ref = make_reference(w);
  print_input(w, ref);
  pin_to_current_cpu();
  if (cfg.trace) {
    ladder(cfg, w, ref, out).run();
    out.metric("input.bytes", w.props.bytes, "B");
    out.metric("input.records", w.props.records, "count");
    out.metric("input.mean_record_bytes", w.props.mean_record_bytes, "B");
    out.metric("input.selectivity_pct", selectivity_pct(ref), "%");
    out.metric("input.paper_selectivity_pct", w.paper_selectivity_pct, "%");
    out.metric("input.numeric_repeat_pct", w.props.numeric_repeat_pct, "%");
  } else {
    run_untraced(cfg, w, ref, out);
  }
}

}  // namespace

void run_qs0_stream(const config& cfg, result& out) {
  workload w;
  w.name = "qs0-stream";
  w.queries = {query::riotbench::qs0()};
  w.in = smartcity_input(mix_seed(cfg.seed, 0x5C0),
                         cfg.smoke ? 4000 : 200000);
  w.paper_selectivity_pct = 63.9;
  run_workload(cfg, w, 1, out);
}

void run_fleet_10k(const config& cfg, result& out) {
  workload w;
  w.name = "fleet-10k";
  w.fleet = true;
  const std::size_t n = cfg.smoke ? 200 : 10000;
  w.texts = fleet_query_texts(cfg.seed, n);
  for (std::size_t k = 0; k < kFleetSamples; ++k)
    w.samples.push_back(k * n / kFleetSamples + k);
  // Four 10k-record parts: passes stay short enough for several per run,
  // while filtered_pct (the share of records no query accepts, which is
  // rare) is taken over all 40k records.
  w.in = smartcity_input(mix_seed(cfg.seed, 0xF1E), cfg.smoke ? 2000 : 40000);
  run_workload(cfg, w, cfg.smoke ? 2 : 4, out);
}

void run_qt_project(const config& cfg, result& out) {
  workload w;
  w.name = "qt-project";
  w.model = query::data_model::flat;
  w.project = true;
  w.queries = {query::riotbench::qt()};
  w.in = taxi_input(mix_seed(cfg.seed, 0x7A7), cfg.smoke ? 4000 : 150000);
  w.paper_selectivity_pct = 5.7;
  run_workload(cfg, w, 1, out);
}

}  // namespace perfbench
