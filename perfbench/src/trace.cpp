#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

std::uint32_t tracer::name(std::string_view text) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == text) return static_cast<std::uint32_t>(i);
  names_.emplace_back(text);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t tracer::begin(std::uint32_t name_id, std::uint32_t pass) {
  span s;
  s.name = name_id;
  s.pass = pass;
  s.parent = stack_.empty() ? none : stack_.back();
  s.start_ns = now_ns();
  s.end_ns = s.start_ns - 1;  // open: fails the checks until end()
  spans_.push_back(s);
  const auto id = static_cast<std::uint32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void tracer::end(std::uint32_t id) {
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("tracer: spans closed out of order");
  spans_[id].end_ns = now_ns();
  stack_.pop_back();
}

std::uint32_t tracer::add(std::uint32_t name_id, std::uint32_t pass,
                          std::uint32_t parent, std::int64_t start_ns,
                          std::int64_t end_ns) {
  spans_.push_back(span{name_id, parent, pass, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::uint64_t tracer::violations() const {
  std::uint64_t bad = stack_.size();
  struct child {
    std::uint32_t parent;
    std::int64_t start, end;
  };
  std::vector<child> children;
  for (const span& s : spans_) {
    if (s.end_ns < s.start_ns) {
      ++bad;
      continue;
    }
    if (s.parent == none) continue;
    if (s.parent >= spans_.size()) {
      ++bad;
      continue;
    }
    const span& p = spans_[s.parent];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) ++bad;
    children.push_back(child{s.parent, s.start_ns, s.end_ns});
  }
  // Self time = duration minus the union of the children's intervals
  // (children may run concurrently, e.g. records in flight in a phase).
  std::sort(children.begin(), children.end(),
            [](const child& a, const child& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.start < b.start;
            });
  for (std::size_t i = 0; i < children.size();) {
    const std::uint32_t parent = children[i].parent;
    std::int64_t covered = 0;
    std::int64_t lo = children[i].start, hi = children[i].end;
    for (; i < children.size() && children[i].parent == parent; ++i) {
      if (children[i].start > hi) {
        covered += hi - lo;
        lo = children[i].start;
        hi = children[i].end;
      } else {
        hi = std::max(hi, children[i].end);
      }
    }
    covered += hi - lo;
    const span& p = spans_[parent];
    if (p.end_ns - p.start_ns < covered) ++bad;
  }
  return bad;
}

double tracer::total_s(std::uint32_t name_id, std::uint32_t pass) const {
  std::int64_t ns = 0;
  for (const span& s : spans_)
    if (s.name == name_id && s.pass == pass) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

double tracer::first_s(std::uint32_t name_id, std::uint32_t pass) const {
  for (const span& s : spans_)
    if (s.name == name_id && s.pass == pass)
      return seconds_between(s.start_ns, s.end_ns);
  return 0.0;
}

bool tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t epoch = 0;
  if (!spans_.empty()) {
    epoch = spans_.front().start_ns;
    for (const span& s : spans_) epoch = std::min(epoch, s.start_ns);
  }
  std::fprintf(f, "id\tparent\tpass\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%u\t%s\t%lld\t%lld\n", i,
                 s.parent == none ? -1LL : static_cast<long long>(s.parent),
                 s.pass, names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns - epoch),
                 static_cast<long long>(s.end_ns - epoch));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
