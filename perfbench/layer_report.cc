#include <string>

#include "base/strings.h"
#include "bench.h"
#include "stats.h"

namespace perfbench {

LayerReport::LayerReport(const PassOutcome& traced,
                         const std::vector<Span>& spans,
                         WorkloadResult* result)
    : traced_(traced), self_ns_(SelfTimeByName(spans)), result_(result) {}

double LayerReport::Ms(const char* span) const {
  auto it = self_ns_.find(span);
  const int64_t ns = it == self_ns_.end() ? 0 : it->second;
  return static_cast<double>(ns) / 1e6 /
         static_cast<double>(traced_.op_class.size());
}

uint64_t LayerReport::Count(const std::string& name) const {
  auto it = traced_.counts.find(name);
  return it == traced_.counts.end() ? 0 : it->second;
}

double LayerReport::Per(const std::string& name) const {
  return static_cast<double>(Count(name)) /
         static_cast<double>(traced_.op_class.size());
}

void LayerReport::SetShare(const char* metric, uint64_t numerator,
                           uint64_t denominator) {
  result_->layer[metric] = Share{numerator, denominator}.value();
  result_->notes.push_back(
      car::StrCat(metric, " = ", numerator, " / ", denominator));
}

void LayerReport::Unreached(const char* metric, const char* why) {
  result_->layer[metric] = 0;
  result_->unreachable[metric] = why;
}

void LayerReport::Finish(const PassOutcome& untraced) {
  result_->layer["trace.overhead_share"] =
      traced_.timed_s.front() / Median(untraced.timed_s) - 1.0;
  int64_t total = 0;
  for (const auto& [name, ns] : self_ns_) total += ns;
  for (const auto& [name, ns] : self_ns_) {
    result_->notes.push_back(car::StrCat(
        "self time share ", name, ": ",
        total == 0 ? 0.0
                   : static_cast<double>(ns) / static_cast<double>(total)));
  }
}

}  // namespace perfbench
