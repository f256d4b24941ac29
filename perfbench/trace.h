// Spans of the traced benchmark run. The benchmark opens a span around
// each public call it makes into a libcar layer; spans stay in memory and
// are written out when the run ends. Spans inside the library are not
// recorded: a layer's time is what its public entry points cost.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// "<layer>.<call>", e.g. "reasoner.batch"; static storage.
  const char* name = "";
  /// The timed operation (request or schema check) the span belongs to.
  uint64_t request = 0;
  /// Index of the enclosing span in the trace, -1 for a root.
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (nested or back-to-back, overlapping
/// children counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per span name.
std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans);

/// Records spans on one thread, nesting each new span under the innermost
/// open one.
class Tracer {
 public:
  /// Opens a span; returns its index for End. Spans end in the reverse
  /// order they began (ScopedSpan does that).
  int Begin(const char* name, uint64_t request);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span and line; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the scope; a null tracer records
/// nothing, so traced and untraced code paths share one body.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer),
        index_(tracer == nullptr ? -1 : tracer->Begin(name, request)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
