// Tests of the benchmark's own helpers: percentiles and the ten-samples-
// beyond rule, share bookkeeping, span self time, and seeded inputs.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reasoner/incremental.h"
#include "reasoner/query_text.h"
#include "bench.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankUsesExactIntegerArithmetic) {
  EXPECT_EQ(NearestRank(200, 95), 190u);
  EXPECT_EQ(NearestRank(199, 95), 190u);  // ceil(189.05)
  EXPECT_EQ(NearestRank(100, 50), 50u);
  EXPECT_EQ(NearestRank(101, 50), 51u);
  EXPECT_EQ(NearestRank(1, 1), 1u);
  EXPECT_EQ(NearestRank(10, 0), 1u);
  EXPECT_EQ(NearestRank(7, 100), 7u);
}

TEST(PercentileTest, TenSamplesBeyondP95NeedTwoHundredSamples) {
  EXPECT_EQ(SamplesBeyond(200, 95), 10u);
  EXPECT_EQ(SamplesBeyond(199, 95), 9u);
  EXPECT_EQ(MinSamplesFor(95, 10), 200u);
  EXPECT_EQ(MinSamplesFor(99, 10), 1000u);
  EXPECT_EQ(MinSamplesFor(50, 10), 20u);
}

TEST(PercentileTest, SummarizeSortsAndReportsTheFlankingPercentiles) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  const LatencySummary s = Summarize(samples);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p45, 450);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p55, 550);
  EXPECT_EQ(s.p90, 900);
  EXPECT_EQ(s.p95, 950);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.beyond_p95, 50u);
}

TEST(PercentileTest, SingleSample) {
  const LatencySummary s = Summarize({3.5});
  EXPECT_EQ(s.p50, 3.5);
  EXPECT_EQ(s.p99, 3.5);
  EXPECT_EQ(s.beyond_p95, 0u);
}

TEST(PercentileTest, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({7}), 7);
}

TEST(ShareTest, KeepsNumeratorAndDenominator) {
  const Share share{3, 4};
  EXPECT_EQ(share.numerator, 3u);
  EXPECT_EQ(share.denominator, 4u);
  EXPECT_DOUBLE_EQ(share.value(), 0.75);
  EXPECT_DOUBLE_EQ((Share{4, 4}.value()), 1.0);
}

TEST(ShareTest, EmptyBaseIsZero) {
  EXPECT_EQ(Share{}.value(), 0.0);
  EXPECT_EQ((Share{0, 0}.value()), 0.0);
}

TEST(ShareTest, LayerReportNotesEveryShareWithItsBase) {
  PassOutcome traced;
  traced.op_class = {"batch_probe", "batch_probe", "open_cold", "mutate"};
  traced.counts = {{"memo_hits", 6}, {"queries", 8}, {"pivots", 10}};
  WorkloadResult result;
  LayerReport report(traced, {}, &result);
  report.SetShare("reasoner.memo_hit_share", report.Count("memo_hits"),
                  report.Count("queries"));
  report.SetShare("solver.warm_share", report.Count("warm_starts"),
                  report.Count("lp_solves"));
  report.Set("math.pivots", report.Per("pivots"));
  report.Unreached("solver.solve_ms", "inside the batch");
  EXPECT_DOUBLE_EQ(result.layer.at("reasoner.memo_hit_share"), 0.75);
  EXPECT_EQ(result.layer.at("solver.warm_share"), 0.0);
  EXPECT_DOUBLE_EQ(result.layer.at("math.pivots"), 2.5);
  EXPECT_EQ(result.layer.at("solver.solve_ms"), 0.0);
  EXPECT_EQ(result.unreachable.at("solver.solve_ms"), "inside the batch");
  EXPECT_EQ(result.notes,
            (std::vector<std::string>{"reasoner.memo_hit_share = 6 / 8",
                                      "solver.warm_share = 0 / 0"}));
}

Span MakeSpan(const char* name, int parent, int64_t start, int64_t end) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTimeTest, NestedChildrenSubtractOnlyFromTheirParent) {
  const std::vector<Span> spans = {
      MakeSpan("request", -1, 0, 100),
      MakeSpan("serve.codec", 0, 10, 40),
      MakeSpan("reasoner.batch", 1, 20, 30),
  };
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{70, 20, 10}));
}

TEST(SelfTimeTest, BackToBackChildrenCoverTheirUnion) {
  const std::vector<Span> spans = {
      MakeSpan("request", -1, 0, 100),
      MakeSpan("a", 0, 10, 30),
      MakeSpan("b", 0, 30, 60),
      MakeSpan("a", 0, 60, 70),
  };
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{40, 20, 30, 10}));
  const auto by_name = SelfTimeByName(spans);
  EXPECT_EQ(by_name.at("request"), 40);
  EXPECT_EQ(by_name.at("a"), 30);
  EXPECT_EQ(by_name.at("b"), 30);
}

TEST(SelfTimeTest, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans = {
      MakeSpan("request", -1, 0, 100),
      MakeSpan("a", 0, 10, 50),
      MakeSpan("b", 0, 40, 70),
      MakeSpan("c", 0, 90, 120),  // Clipped to the parent's end.
  };
  EXPECT_EQ(SelfTimes(spans)[0], 100 - 60 - 10);
}

TEST(SelfTimeTest, TracerNestsSpansUnderTheInnermostOpenOne) {
  Tracer tracer;
  {
    ScopedSpan request(&tracer, "request", 7);
    { ScopedSpan codec(&tracer, "serve.codec", 7); }
    {
      ScopedSpan batch(&tracer, "reasoner.batch", 7);
      ScopedSpan inner(&tracer, "inner", 7);
    }
  }
  { ScopedSpan next(&tracer, "request", 8); }
  ScopedSpan untraced(nullptr, "ignored", 9);
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[4].parent, -1);
  EXPECT_EQ(spans[4].request, 8u);
  for (const Span& span : spans) EXPECT_LE(span.start_ns, span.end_ns);
  for (int64_t self : SelfTimes(spans)) EXPECT_GE(self, 0);
}

TEST(InputsTest, SameSeedSameTraceDifferentSeedDifferentTrace) {
  EXPECT_EQ(HashInputs(MakeServeFresh(1, 40)),
            HashInputs(MakeServeFresh(1, 40)));
  EXPECT_NE(HashInputs(MakeServeFresh(1, 40)),
            HashInputs(MakeServeFresh(2, 40)));
  EXPECT_EQ(HashInputs(MakeServeChurn(1, 300)),
            HashInputs(MakeServeChurn(1, 300)));
  EXPECT_NE(HashInputs(MakeServeChurn(1, 300)),
            HashInputs(MakeServeChurn(2, 300)));
  EXPECT_EQ(HashInputs(MakeCorpus(1, 100)), HashInputs(MakeCorpus(1, 100)));
  EXPECT_NE(HashInputs(MakeCorpus(1, 100)), HashInputs(MakeCorpus(2, 100)));
}

TEST(InputsTest, FreshQueriesAreNewToTheirSession) {
  const ServeInputs inputs = MakeServeFresh(3, 64);
  std::vector<std::set<std::string>> seen(inputs.tenants.size());
  size_t queries = 0;
  for (const auto* ops : {&inputs.setup, &inputs.timed}) {
    for (const ServeOp& op : *ops) {
      const car::Schema& schema =
          *inputs.tenants[op.tenant].variants[op.variant].schema;
      for (const std::string& line : op.queries) {
        auto query =
            car::ParseQueryTokens(schema, car::TokenizeQueryLine(line));
        ASSERT_TRUE(query.ok()) << line;
        EXPECT_TRUE(
            seen[op.tenant]
                .insert(car::IncrementalSession::CanonicalQueryKey(*query))
                .second)
            << line;
        ++queries;
      }
    }
  }
  EXPECT_EQ(queries, (inputs.setup.size() / 2 + inputs.timed.size()) * 8);
}

TEST(InputsTest, ChurnMutatesOnlyResidentTenantsAndOutnumbersTheSlots) {
  const ServeInputs inputs = MakeServeChurn(4, 2000);
  EXPECT_GT(inputs.tenants.size(), inputs.max_sessions);
  EXPECT_TRUE(inputs.persistent);
  // The client's LRU model, replayed: a mutation always targets a tenant
  // among the max_sessions most recently opened ones.
  std::vector<int> lru;
  auto touch = [&](int tenant) {
    std::erase(lru, tenant);
    lru.push_back(tenant);
    if (lru.size() > inputs.max_sessions) lru.erase(lru.begin());
  };
  size_t mutations = 0;
  for (const auto* ops : {&inputs.setup, &inputs.timed}) {
    for (const ServeOp& op : *ops) {
      if (op.kind == ServeOp::Kind::kQuery) continue;
      if (op.kind == ServeOp::Kind::kMutate) {
        ++mutations;
        EXPECT_NE(std::find(lru.begin(), lru.end(), op.tenant), lru.end());
      }
      touch(op.tenant);
    }
  }
  EXPECT_GT(mutations, 0u);
}

TEST(InputsTest, CorpusRunsWholePasses) {
  const CorpusInputs inputs = MakeCorpus(5, 100);
  const size_t size = inputs.entries.size();
  ASSERT_GE(inputs.order.size(), 100u);
  ASSERT_EQ(inputs.order.size() % size, 0u);
  std::vector<int> count(size);
  for (int entry : inputs.order) ++count[entry];
  const int passes = static_cast<int>(inputs.order.size() / size);
  for (int c : count) EXPECT_EQ(c, passes);
}

}  // namespace
}  // namespace perfbench
