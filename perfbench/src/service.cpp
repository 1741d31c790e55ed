// qs1-service: QS1 behind net::filter_service with verdict echo, two
// shards fed by two Unix-socket connections.
//
// Open-loop load from one generator thread: a fixed ladder of rates, each
// phase on absolute deadlines. Every record is due at a fixed time; the
// generator writes everything due in one write per connection and never
// retries or drops. Each record is timed from its due time to its echo
// byte, so a stall counts against every record that waited behind it. The
// highest ladder rate whose p99 stays within the limit, with every record
// echoed, sets max_rate_rps: the record rate that phase achieved. Each
// phase's records are generated (fresh from the seed) and checked between
// phases, so only one phase's input is in memory at a time.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "api/pipeline.hpp"
#include "bench.hpp"
#include "core/filter_engine.hpp"
#include "inputs.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "query/compile.hpp"
#include "query/eval.hpp"
#include "query/riotbench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace jrf;

constexpr std::size_t kConnections = 2;
constexpr double kLimitUs = 10000.0;  // p99 latency limit of a phase
// A phase's p99 is the median of the p99s of its windows (0.5 s each, at
// least three), so one scheduler stall on a shared host fails one window,
// not the phase; a service that cannot keep up fails every window.
constexpr double kWindowS = 0.5;
constexpr double kP50Rate = 100000.0;  // p50_us is read at this rate
constexpr int kSetupRepeats = 15;
// Traced runs keep the spans of every 16th record (the per-layer latency
// figures use every record's timestamps); a million records would
// otherwise keep three million spans in memory.
constexpr std::size_t kSpanEvery = 16;

struct phase {
  double rate = 0;          // records/s, aggregate over both connections
  std::size_t first = 0;    // global index of its first record
  std::size_t count = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // last echo of the phase
  std::uint64_t bytes = 0;
};

// Per connection: the per-shard record k is global record k * 2 + c.
struct connection {
  net::socket_fd fd;
  std::vector<std::int64_t> echo_ns;
  std::vector<char> echo;  // '1' / '0' as echoed
  std::atomic<std::size_t> echoed{0};
};

std::string phase_tag(double rate) {
  std::string tag = "r";
  tag += std::to_string(static_cast<long long>(rate / 1000.0));
  tag += 'k';
  return tag;
}

// One reader thread polls both connections and stamps every echo byte.
void read_echoes(std::vector<std::unique_ptr<connection>>& conns,
                 std::atomic<bool>& error) {
  char buf[8192];
  std::size_t open = conns.size();
  std::vector<bool> done(conns.size(), false);
  while (open > 0) {
    pollfd fds[kConnections];
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds[c].fd = done[c] ? -1 : conns[c]->fd.get();
      fds[c].events = POLLIN;
      fds[c].revents = 0;
    }
    if (::poll(fds, kConnections, 200) < 0) continue;
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (done[c] || fds[c].revents == 0) continue;
      connection& cn = *conns[c];
      std::size_t n = 0;
      try {
        n = net::read_some(cn.fd, buf, sizeof buf);
      } catch (const std::exception&) {
        error = true;
      }
      const std::int64_t t = now_ns();
      std::size_t k = cn.echoed.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < n; ++b, ++k) {
        if (k >= cn.echo.size()) {
          error = true;
          break;
        }
        cn.echo[k] = buf[b];
        cn.echo_ns[k] = t;
      }
      cn.echoed.store(k, std::memory_order_release);
      if (n == 0) {
        done[c] = true;
        --open;
      }
    }
  }
}

}  // namespace

void run_qs1_service(const config& cfg, result& out) {
  const query::query q = query::riotbench::qs1();
  // Every phase sends the same number of records, so a phase's length
  // shrinks as its rate grows and the ladder lasts `seconds` (memory and
  // checking time stay proportional to the record count). The highest
  // rate stays well inside the service's capacity on a 4-core host, so
  // max_rate_rps moves only on a regression.
  const std::vector<double> rates{25000, 50000, 100000, 200000};
  double inverse_sum = 0;
  for (const double rate : rates) inverse_sum += 1.0 / rate;
  std::size_t per_phase = static_cast<std::size_t>(cfg.seconds / inverse_sum);
  per_phase -= per_phase % kConnections;

  std::vector<phase> phases;
  std::size_t total = 0;
  for (const double rate : rates) {
    phase p;
    p.rate = rate;
    p.first = total;
    p.count = per_phase;
    total += p.count;
    phases.push_back(p);
  }
  // Per record of the whole run: reference verdict, due and send times.
  std::vector<bool> ref(total, false);
  std::vector<std::int64_t> due_ns(total, 0), send_ns(total, 0);
  // Decision timestamps per shard (traced runs register the callback).
  std::vector<std::vector<std::int64_t>> decide_ns(kConnections);
  for (auto& d : decide_ns) d.assign(total / kConnections, 0);

  const std::string sock_path =
      cfg.out_dir + "/qs1-" + std::to_string(::getpid()) + ".sock";
  auto open_service = [&]() {
    net::service_options opts;
    opts.listen.unix_path = sock_path;
    opts.echo_decisions = true;
    if (cfg.trace)
      opts.on_decision = [&decide_ns](std::size_t shard, std::uint64_t k,
                                      bool) {
        if (shard < decide_ns.size() && k < decide_ns[shard].size())
          decide_ns[shard][k] = now_ns();
      };
    auto builder = pipeline::make();
    builder.from_query(q).backend(backend_kind::sharded).shards(kConnections);
    return net::filter_service::open(std::move(builder), std::move(opts));
  };

  // Setup: open (and shut down) the service several times; the last one
  // serves the run.
  std::vector<double> setup;
  std::optional<net::filter_service> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (service) (void)service->shutdown();
    service.reset();
    const std::int64_t t0 = now_ns();
    auto opened = open_service();
    setup.push_back(seconds_between(t0, now_ns()));
    if (!opened) {
      out.broken("service open failed: " + opened.error().message);
      return;
    }
    service.emplace(std::move(*opened));
  }
  net::filter_service& svc = *service;

  std::vector<std::unique_ptr<connection>> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto cn = std::make_unique<connection>();
    cn->fd = net::connect_to(svc.where());
    while (svc.connections_accepted() < c + 1) std::this_thread::yield();
    cn->echo_ns.assign(total / kConnections, 0);
    cn->echo.assign(total / kConnections, 0);
    conns.push_back(std::move(cn));
  }
  std::atomic<bool> reader_error{false};
  std::thread reader(
      [&conns, &reader_error] { read_echoes(conns, reader_error); });

  auto engine = core::make_filter_engine(core::engine_kind::chunked,
                                         query::compile_default(q));
  input_properties props;
  std::uint64_t dropped = 0, all_bytes = 0, hits = 0, echoed_accepts = 0;
  bool send_failed = false;
  std::string batch[kConnections];
  // The reader thread and the service stay up until the code below the
  // loop joins and shuts them down, so a failure inside a phase only ends
  // the ladder early.
  try {
    for (std::size_t pi = 0; pi < phases.size() && !send_failed; ++pi) {
      phase& p = phases[pi];
      // Between phases (the service idles): this phase's fresh records,
      // and their reference verdicts.
      const input in =
          smartcity_input(mix_seed(cfg.seed, 0x5C1 + pi), p.count);
      const std::vector<bool> phase_ref = engine->filter_stream(in.stream);
      if (p.rate == kP50Rate) props = describe(in.stream, in.records());
      for (std::size_t j = 0; j < p.count; ++j) {
        ref[p.first + j] = phase_ref[j];
        const std::uint64_t size = in.record_size(j);
        p.bytes += size;
        dropped += phase_ref[j] ? 0 : size;
      }
      all_bytes += p.bytes;

      // Generator: this thread, absolute deadlines, one write per connection
      // per wake-up carrying every record due by then.
      p.start_ns = now_ns() + 1000000;  // 1 ms to settle
      const double interval_ns = 1e9 / p.rate;
      for (std::size_t j = 0; j < p.count; ++j)
        due_ns[p.first + j] =
            p.start_ns + static_cast<std::int64_t>(interval_ns * j);
      std::size_t next = 0;
      while (next < p.count && !send_failed) {
        std::this_thread::sleep_until(steady::time_point(
            std::chrono::nanoseconds(due_ns[p.first + next])));
        const std::int64_t now = now_ns();
        std::size_t end = next;
        while (end < p.count && due_ns[p.first + end] <= now) ++end;
        for (auto& b : batch) b.clear();
        for (std::size_t j = next; j < end; ++j)
          batch[(p.first + j) % kConnections].append(
              in.stream, in.record_begin(j), in.record_size(j));
        const std::int64_t sent = now_ns();
        for (std::size_t c = 0; c < kConnections; ++c) {
          if (batch[c].empty()) continue;
          try {
            net::write_all(conns[c]->fd, batch[c]);
          } catch (const std::exception&) {
            send_failed = true;
          }
        }
        for (std::size_t j = next; j < end; ++j) send_ns[p.first + j] = sent;
        next = end;
      }
      // Wait for the phase's echoes (bounded) before the next rate starts.
      const std::size_t want = (p.first + p.count) / kConnections;
      const std::int64_t give_up = now_ns() + 5000000000LL;
      while (now_ns() < give_up &&
             (conns[0]->echoed.load(std::memory_order_acquire) < want ||
              conns[1]->echoed.load(std::memory_order_acquire) < want))
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      p.end_ns = now_ns();

      // Check the phase: one echo per record, equal to the reference, and
      // no false negatives against the exact evaluator.
      out.attempted(p.count);
      std::uint64_t missing = 0, differ = 0;
      std::vector<bool> echoed(p.count, false);
      for (std::size_t j = 0; j < p.count; ++j) {
        const std::size_t i = p.first + j;
        connection& cn = *conns[i % kConnections];
        const std::size_t k = i / kConnections;
        char e =
            k < cn.echoed.load(std::memory_order_acquire) ? cn.echo[k] : 0;
        if (static_cast<std::int64_t>(i) == cfg.flip_record)
          e = e == '1' ? '0' : '1';
        if (e != '0' && e != '1') {
          ++missing;
          continue;
        }
        echoed[j] = e == '1';
        echoed_accepts += echoed[j] ? 1 : 0;
        if (echoed[j] != ref[i]) ++differ;
      }
      const std::string tag = phase_tag(p.rate) + ": ";
      out.fail(missing, tag + "records without an echoed verdict");
      out.fail(differ, tag + "echoed verdicts that differ from the standalone "
                             "engine");
      const auto fn = query::verify_no_false_negatives(q, in.stream, echoed);
      out.attempted(fn.true_matches);
      hits += fn.true_matches;
      out.fail(fn.false_negatives,
               tag + "false negatives against the exact evaluator");
    }
  } catch (const std::exception& e) {
    out.broken(std::string("load phase failed: ") + e.what());
  }
  if (send_failed) out.broken("a connection refused a write");

  auto finished = svc.shutdown();
  for (auto& cn : conns) cn->fd.shutdown_write();
  reader.join();
  if (!finished) {
    out.broken("shutdown failed: " + finished.error().message);
    return;
  }
  if (reader_error) out.broken("echo stream overran or failed");
  if (echoed_accepts != finished->accepted())
    out.fail(1, "echoed accepts " + std::to_string(echoed_accepts) +
                    " != pipeline accepts " +
                    std::to_string(finished->accepted()));
  std::uint64_t shard_records = 0;
  for (const auto& d : finished->shard_decisions) shard_records += d.size();
  if (shard_records != total) out.fail(1, "pipeline decided another count");

  // Latency per phase, from due time to echo byte.
  const bool traced = cfg.trace;
  tracer tr;
  const std::uint32_t n_phase = tr.name("loadgen.phase");
  const std::uint32_t n_record = tr.name("loadgen.record");
  const std::uint32_t n_decide = tr.name("net.decide");
  const std::uint32_t n_echo = tr.name("net.echo");
  // Highest phase meeting the limit: its nominal rate, and the record and
  // byte rates achieved from its start to its last echo.
  double top_rate = 0, top_rps = 0, top_mbps = 0, p50_at = 0;
  std::vector<double> lag_all;
  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    const phase& p = phases[pi];
    const auto pass = static_cast<std::uint32_t>(pi);
    std::vector<double> lat, decide, echo;
    const double length_s = static_cast<double>(p.count) / p.rate;
    std::vector<std::vector<double>> windows(std::max<std::size_t>(
        3, static_cast<std::size_t>(length_s / kWindowS)));
    std::uint64_t ok = 0, bad = 0;
    const std::uint32_t root =
        traced ? tr.add(n_phase, pass, tracer::none, p.start_ns, p.end_ns)
               : tracer::none;
    for (std::size_t j = 0; j < p.count; ++j) {
      const std::size_t i = p.first + j;
      connection& cn = *conns[i % kConnections];
      const std::size_t k = i / kConnections;
      lag_all.push_back(static_cast<double>(send_ns[i] - due_ns[i]) * 1e-3);
      if (k >= cn.echoed.load() || cn.echo[k] != (ref[i] ? '1' : '0')) {
        ++bad;
        continue;
      }
      ++ok;
      lat.push_back(static_cast<double>(cn.echo_ns[k] - due_ns[i]) * 1e-3);
      windows[j * windows.size() / p.count].push_back(lat.back());
      if (traced) {
        const std::int64_t dec = decide_ns[i % kConnections][k];
        decide.push_back(static_cast<double>(dec - due_ns[i]) * 1e-3);
        echo.push_back(static_cast<double>(cn.echo_ns[k] - dec) * 1e-3);
        if (j % kSpanEvery == 0) {
          const std::uint32_t rec =
              tr.add(n_record, pass, root, due_ns[i], cn.echo_ns[k]);
          tr.add(n_decide, pass, rec, due_ns[i], dec);
          tr.add(n_echo, pass, rec, dec, cn.echo_ns[k]);
        }
      }
    }
    const double p50 = quantile(lat, 0.50), p99 = quantile(lat, 0.99),
                 p999 = quantile(lat, 0.999);
    std::vector<double> window_p99;
    for (const auto& win : windows) window_p99.push_back(quantile(win, 0.99));
    const double p99_window = median(window_p99);
    // A refused or missing record counts as missing the limit.
    const bool meets = bad == 0 && !lat.empty() && p99_window <= kLimitUs;
    std::printf("phase    %-6s sent %zu ok %llu failed %llu  p50 %.1f us  "
                "p99 %.1f us (median of %zu windows %.1f us)  p99.9 %.1f us"
                "  %s\n",
                phase_tag(p.rate).c_str(), p.count,
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(bad), p50, p99,
                windows.size(), p99_window, p999,
                meets ? "meets limit" : "misses limit");
    if (meets && p.rate > top_rate) {
      const double seconds = seconds_between(p.start_ns, p.end_ns);
      top_rate = p.rate;
      top_rps = static_cast<double>(p.count) / seconds;
      top_mbps = static_cast<double>(p.bytes) / seconds / 1e6;
    }
    if (p.rate == kP50Rate) {
      p50_at = p50;
      if (traced) {
        out.metric("net.p99_us", p99, "us");
        out.metric("net.p999_us", p999, "us");
        out.metric("net.decide_p50_us", quantile(decide, 0.50), "us");
        out.metric("net.decide_p99_us", quantile(decide, 0.99), "us");
        out.metric("net.echo_p50_us", quantile(echo, 0.50), "us");
        out.metric("net.echo_p99_us", quantile(echo, 0.99), "us");
      }
    }
    if (traced) {
      const std::string tag = "loadgen." + phase_tag(p.rate);
      out.metric(tag + ".sent", static_cast<double>(p.count), "count");
      out.metric(tag + ".succeeded", static_cast<double>(ok), "count");
      out.metric(tag + ".failed", static_cast<double>(bad), "count");
    }
  }
  std::printf("input    qs1-service: %zu records, %llu bytes; at 100k/s "
              "%.0f records, %.1f B/record, numeric token repeats %.1f%%; "
              "exact selectivity %.2f%% (paper Table VIII: 5.4%%)\n",
              total, static_cast<unsigned long long>(all_bytes),
              props.records, props.mean_record_bytes,
              props.numeric_repeat_pct,
              100.0 * static_cast<double>(hits) / static_cast<double>(total));

  if (!traced) {
    std::printf("ladder   highest rate meeting the limit: %.0f records/s "
                "(%.0f achieved)\n", top_rate, top_rps);
    out.metric("throughput_mbps", top_mbps, "MB/s");
    out.metric("setup_s", median(setup), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("filtered_pct",
               100.0 * static_cast<double>(dropped) /
                   static_cast<double>(all_bytes),
               "%");
    out.metric("p50_us", p50_at, "us");
    out.metric("max_rate_rps", top_rps, "1/s");
    return;
  }

  std::uint64_t hard_bp = 0, fifo_high = 0;
  for (const auto& s : finished->shards) {
    hard_bp += s.hard_backpressure_events;
    fifo_high = std::max<std::uint64_t>(fifo_high, s.fifo_high_watermark);
  }
  out.metric("core.records", static_cast<double>(total), "count");
  out.metric("core.accepted", static_cast<double>(finished->accepted()),
             "count");
  // With no false negatives (checked above) every true match was among
  // the echoed accepts; the rest are false positives.
  const std::uint64_t false_positives =
      echoed_accepts - std::min(echoed_accepts, hits);
  out.metric("core.fpr_pct",
             hits < total ? 100.0 * static_cast<double>(false_positives) /
                                static_cast<double>(total - hits)
                          : 0.0,
             "%");
  out.metric("system.hard_backpressure_events", static_cast<double>(hard_bp),
             "count");
  out.metric("system.fifo_high_water_bytes", static_cast<double>(fifo_high),
             "B");
  out.metric("net.refused", static_cast<double>(svc.connections_refused()),
             "count");
  out.metric("net.idle_closed",
             static_cast<double>(svc.connections_idle_closed()), "count");
  out.metric("loadgen.lag_p99_us", quantile(lag_all, 0.99), "us");
  out.metric("input.bytes", props.bytes, "B");
  out.metric("input.records", props.records, "count");
  out.metric("input.mean_record_bytes", props.mean_record_bytes, "B");
  out.metric("input.selectivity_pct",
             100.0 * static_cast<double>(hits) / static_cast<double>(total),
             "%");
  out.metric("input.paper_selectivity_pct", 5.4, "%");
  out.metric("input.numeric_repeat_pct", props.numeric_repeat_pct, "%");
  out.metric("trace.spans", static_cast<double>(tr.spans().size()), "count");
  const std::uint64_t violations = tr.violations();
  out.metric("trace.span_violations", static_cast<double>(violations),
             "count");
  if (violations != 0) out.broken("span nesting violated");
  const std::string path = cfg.out_dir + "/qs1-service.spans.tsv";
  if (!tr.write(path)) out.broken("cannot write " + path);
}

}  // namespace perfbench
