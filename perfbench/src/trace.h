// trace.h — in-memory spans recorded by the benchmark around calls into
// the library's public API.
//
// A span has a name, a start and end on the steady clock, the span that
// was open when it began (its parent), and a count: how many calls (or
// updates) the span covers. Spans are appended to memory while the run
// goes and written out once, when it ends. Per-layer metrics are read off
// the per-name totals: nanoseconds per counted unit.
//
// A disabled tracer records nothing and its spans cost one branch, so the
// same loop serves the untraced and the traced run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Record {
    uint32_t name = 0;
    int32_t parent = -1;  // Index of the enclosing record, -1 at the root.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t count = 1;
  };

  struct Totals {
    int64_t ns = 0;      // Summed span durations.
    uint64_t count = 0;  // Summed span counts.
    uint64_t spans = 0;
  };

  // Closes its record on destruction.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    friend class Tracer;
    Span(Tracer* tracer, int32_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int32_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Returns the id of `name`, registering it on first use.
  uint32_t Intern(std::string_view name);

  // Opens a span covering `count` units; a no-op when disabled.
  [[nodiscard]] Span Open(uint32_t name, uint64_t count = 1);
  [[nodiscard]] Span Open(std::string_view name, uint64_t count = 1) {
    return Open(Intern(name), count);
  }

  // Records an already-timed span under the currently open one.
  void Add(uint32_t name, int64_t start_ns, int64_t end_ns,
           uint64_t count = 1);

  Totals TotalsFor(std::string_view name) const;
  // Summed nanoseconds per counted unit of `name`; 0 when never recorded.
  double NsPerCount(std::string_view name) const;

  const std::vector<Record>& records() const { return records_; }

  // Writes every record as one tab-separated line
  // (index, name, parent, start_ns, end_ns, count). False on I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  void Close(int32_t index);

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Record> records_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
