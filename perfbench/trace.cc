#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      const Span& parent = spans[span.parent];
      children[span.parent].emplace_back(
          std::max(span.start_ns, parent.start_ns),
          std::min(span.end_ns, parent.end_ns));
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : intervals) {
      const int64_t from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

int Tracer::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"request\":%llu,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 span.name, static_cast<unsigned long long>(span.request),
                 span.parent, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
