// In-memory span recorder of the traced runs.
//
// A span is (name, start, end, parent, pass). Spans opened with begin()
// nest under the innermost open span of the same recorder, so a recorder
// belongs to one thread; spans measured elsewhere (the service's
// per-record timestamps) are added closed with add(). Everything stays in
// memory until write() dumps it at the end of the run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class tracer {
 public:
  static constexpr std::uint32_t none = 0xFFFFFFFFu;

  struct span {
    std::uint32_t name = 0;
    std::uint32_t parent = none;
    std::uint32_t pass = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Intern a span name; call once per name, outside timed code.
  std::uint32_t name(std::string_view text);

  /// Open a span now, as a child of the innermost open span.
  std::uint32_t begin(std::uint32_t name_id, std::uint32_t pass);
  /// Close the innermost open span, which must be `id`.
  void end(std::uint32_t id);
  /// Add a closed span measured elsewhere.
  std::uint32_t add(std::uint32_t name_id, std::uint32_t pass,
                    std::uint32_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);

  const std::vector<span>& spans() const { return spans_; }

  /// Spans that end before they start, leave their parent's interval or
  /// were never closed, plus parents whose children (their union: children
  /// may overlap) cover more than the parent, i.e. negative self time.
  std::uint64_t violations() const;

  /// Sum of the durations of spans named `name_id` in `pass`, seconds.
  double total_s(std::uint32_t name_id, std::uint32_t pass) const;
  /// Duration of the first span named `name_id` in `pass`, seconds.
  double first_s(std::uint32_t name_id, std::uint32_t pass) const;

  /// One line per span: id, parent, pass, name, start and end in ns since
  /// the first span. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a null recorder makes it free.
class scoped_span {
 public:
  scoped_span(tracer* t, std::uint32_t name_id, std::uint32_t pass)
      : t_(t), id_(t ? t->begin(name_id, pass) : tracer::none) {}
  ~scoped_span() {
    if (t_) t_->end(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer* t_;
  std::uint32_t id_;
};

}  // namespace perfbench
