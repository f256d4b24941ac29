// EXP-R driver: traffic replay against the car_serve serving stack.
//
// Workload: four tenants (chain, clustered and hierarchy schemas, each
// with an A/B mutation variant) driven through a deterministic
// open/query/mutate trace against an in-process serve::Server. Every
// request makes the full wire round trip — encode, decode, dispatch,
// encode, decode — so the measured latency includes the codec. Every
// query batch is cross-checked against a from-scratch offline reasoner
// (incremental machinery disabled) on the same schema variant: a single
// differing or degraded answer fails the run.
//
// The trace is replayed twice on fresh servers: under the serving
// default (lazy expansion) and under ServerOptions::lazy_expansion=false
// (eager full base). The quantities of interest are the request-latency
// percentiles (p50/p95/p99) per configuration, split into cold query
// batches (the first one after a tenant was (re)built cold, which pays
// the base build), warm batches (riding the resident session), and the
// warm batches among them that probed (missed the memo) — plus the
// cache hit rates. One JSON-lines record per configuration and scope, a
// summary per configuration and a lazy-vs-eager comparison land in
// BENCH_serve.json; bench/check_bench.py holds warm p50 <= cold p50 and
// a lazy probe-batch p95 within kMaxProbeP95Ratio of eager's.
//
// Usage: bench_serve [--threads=N] [--out=FILE]

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "base/rng.h"
#include "bench_harness.h"
#include "query_pool.h"
#include "frontend/printer.h"
#include "reasoner/query_text.h"
#include "reasoner/reasoner.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads/generators.h"

namespace car {
namespace {

/// One mutation variant of a tenant: the generated schema, its canonical
/// text (what the trace ships to the server), a pool of textual queries,
/// and the lazily-filled offline answer key.
struct Variant {
  std::unique_ptr<Schema> schema;
  std::string text;
  std::vector<std::string> query_pool;
  std::map<std::string, bool> offline_answers;
};

struct Tenant {
  std::string name;
  Variant variants[2];
  int active_variant = 0;
  /// The next query batch pays the cold base build.
  bool next_batch_cold = true;
};

Variant MakeVariant(Schema schema, uint64_t pool_seed, int pool_size) {
  Variant variant;
  variant.schema = std::make_unique<Schema>(std::move(schema));
  variant.text = PrintSchema(*variant.schema);
  Rng rng(pool_seed);
  variant.query_pool = bench::MakeQueryPool(*variant.schema, &rng, pool_size);
  return variant;
}

/// Offline ground truth: a from-scratch reasoner (no incremental
/// machinery, no governor) answers each distinct query line once.
Result<bool> OfflineAnswer(Variant* variant, const std::string& line) {
  auto memo = variant->offline_answers.find(line);
  if (memo != variant->offline_answers.end()) return memo->second;
  std::vector<std::string> tokens = TokenizeQueryLine(line);
  CAR_ASSIGN_OR_RETURN(ImplicationQuery query,
                       ParseQueryTokens(*variant->schema, tokens));
  Reasoner scratch(variant->schema.get());
  CAR_ASSIGN_OR_RETURN(bool answer, scratch.RunImplicationQuery(query));
  variant->offline_answers[line] = answer;
  return answer;
}

using bench::Percentile;

/// Ships one request over the full codec path and times the round trip.
/// Any codec asymmetry shows up as a decode failure here.
serve::Response RoundTrip(serve::Server* server,
                          const serve::Request& request,
                          double* latency_ms, bool* wire_ok) {
  bench::Stopwatch watch;
  auto decoded_request =
      serve::DecodeRequest(serve::EncodeRequest(request));
  if (!decoded_request.ok()) {
    *wire_ok = false;
    return serve::ErrorResponse{decoded_request.status().code(),
                                decoded_request.status().message()};
  }
  serve::Response response = server->Handle(decoded_request.value());
  auto decoded_response =
      serve::DecodeResponse(serve::EncodeResponse(response));
  *latency_ms = watch.ElapsedMs();
  if (!decoded_response.ok() || decoded_response.value() != response) {
    *wire_ok = false;
    return response;
  }
  return decoded_response.value();
}

/// The bound on the lazy serving default: its probe-batch p95 may be at
/// most this many times the eager configuration's.
constexpr double kMaxProbeP95Ratio = 3.0;

/// What one replay of the trace measured.
struct Replay {
  std::vector<double> open_ms;
  std::vector<double> query_cold_ms;
  std::vector<double> query_warm_ms;
  /// The warm batches that ran at least one probe (memo misses).
  std::vector<double> query_probe_ms;
  uint64_t total_queries = 0;
  uint64_t wrong_answers = 0;
  uint64_t degraded_batches = 0;
  uint64_t probes = 0;
  uint64_t warm_starts = 0;
  bool wire_ok = true;
  serve::StatsResponse stats;
};

/// Replays the open/query/mutate trace against a fresh server with
/// `options`, checking every answer against the offline reasoner. False
/// when the trace itself broke (a failed open, mutate or query, or an
/// offline error), after saying why on stderr.
bool ReplayTrace(std::vector<Tenant>* tenants,
                 const serve::ServerOptions& options, int rounds,
                 int batch_size, Replay* out) {
  serve::Server server(options);
  for (Tenant& tenant : *tenants) {
    tenant.active_variant = 0;
    tenant.next_batch_cold = true;
  }

  auto open_tenant = [&](Tenant* tenant, int variant,
                         bool expect_warm) -> bool {
    serve::OpenRequest open;
    open.name = tenant->name;
    open.schema_text = tenant->variants[variant].text;
    double latency = 0.0;
    serve::Response response =
        RoundTrip(&server, open, &latency, &out->wire_ok);
    auto* opened = std::get_if<serve::OpenedResponse>(&response);
    if (opened == nullptr) {
      std::fprintf(stderr, "open '%s' failed\n", tenant->name.c_str());
      return false;
    }
    out->open_ms.push_back(latency);
    if (opened->warm != expect_warm) {
      std::fprintf(stderr, "open '%s': warm=%d, expected %d\n",
                   tenant->name.c_str(), opened->warm ? 1 : 0,
                   expect_warm ? 1 : 0);
      return false;
    }
    tenant->active_variant = variant;
    if (!opened->warm) tenant->next_batch_cold = true;
    return true;
  };

  for (int round = 0; round < rounds; ++round) {
    for (Tenant& tenant : *tenants) {
      // Trace shape per tenant and round: open cold once, re-open warm
      // mid-trace, toggle the variant (a cold mutation) at the half-way
      // and three-quarter marks.
      if (round == 0) {
        if (!open_tenant(&tenant, 0, /*expect_warm=*/false)) return false;
      } else if (round == rounds / 4) {
        if (!open_tenant(&tenant, tenant.active_variant,
                         /*expect_warm=*/true)) {
          return false;
        }
      } else if (round == rounds / 2 || round == (3 * rounds) / 4) {
        serve::MutateRequest mutate;
        mutate.name = tenant.name;
        int next = 1 - tenant.active_variant;
        mutate.schema_text = tenant.variants[next].text;
        double latency = 0.0;
        serve::Response response =
            RoundTrip(&server, mutate, &latency, &out->wire_ok);
        auto* opened = std::get_if<serve::OpenedResponse>(&response);
        if (opened == nullptr || opened->warm) {
          std::fprintf(stderr, "mutate '%s' did not rebuild cold\n",
                       tenant.name.c_str());
          return false;
        }
        out->open_ms.push_back(latency);
        tenant.active_variant = next;
        tenant.next_batch_cold = true;
      }

      Variant& variant = tenant.variants[tenant.active_variant];
      serve::QueryRequest query;
      query.name = tenant.name;
      for (int i = 0; i < batch_size; ++i) {
        size_t pick = (static_cast<size_t>(round) * 7 +
                       static_cast<size_t>(i) * 3) %
                      variant.query_pool.size();
        query.queries.push_back(variant.query_pool[pick]);
      }

      double latency = 0.0;
      serve::Response response =
          RoundTrip(&server, query, &latency, &out->wire_ok);
      auto* answers = std::get_if<serve::AnswersResponse>(&response);
      if (answers == nullptr) {
        std::fprintf(stderr, "query '%s' failed\n", tenant.name.c_str());
        return false;
      }
      if (answers->degraded) {
        ++out->degraded_batches;
        continue;
      }
      if (tenant.next_batch_cold) {
        out->query_cold_ms.push_back(latency);
      } else {
        out->query_warm_ms.push_back(latency);
        if (answers->stats.probes > 0) out->query_probe_ms.push_back(latency);
      }
      tenant.next_batch_cold = false;
      out->total_queries += query.queries.size();
      out->probes += answers->stats.probes;
      out->warm_starts += answers->stats.warm_starts;

      for (size_t i = 0; i < query.queries.size(); ++i) {
        auto expected = OfflineAnswer(&variant, query.queries[i]);
        if (!expected.ok()) {
          std::fprintf(stderr, "offline: %s\n",
                       expected.status().ToString().c_str());
          return false;
        }
        if ((answers->answers[i] == 1) != expected.value()) {
          ++out->wrong_answers;
          std::fprintf(stderr, "ANSWER MISMATCH '%s' query '%s'\n",
                       tenant.name.c_str(), query.queries[i].c_str());
        }
      }
    }
  }
  out->stats = server.StatsSnapshot();
  return true;
}

int Main(int argc, char** argv) {
  const bench::Flags flags =
      bench::ParseFlags(argc, argv, 1, "BENCH_serve.json");
  const int rounds = 16;
  const int batch_size = 16;
  const int pool_size = 48;

  // Four tenants across three schema families; the B variant of each is
  // a structurally different schema, so a mutation really rebuilds. The
  // schemas are generated in this order from one Rng.
  Rng rng(17);
  Schema schemas[] = {GenerateChainSchema({12, 2}),
                      GenerateChainSchema({14, 3}),
                      GenerateClusteredSchema(&rng, {2, 3, 2, false}),
                      GenerateClusteredSchema(&rng, {3, 3, 2, false}),
                      GenerateHierarchy(&rng, {15, 1, 3}),
                      GenerateHierarchy(&rng, {18, 2, 3}),
                      GenerateChainSchema({10, 4}),
                      GenerateChainSchema({11, 4})};
  std::vector<Tenant> tenants(4);
  const char* names[] = {"t-chain", "t-clustered", "t-hierarchy",
                         "t-chain-wide"};
  for (size_t t = 0; t < tenants.size(); ++t) {
    tenants[t].name = names[t];
    for (int v = 0; v < 2; ++v) {
      tenants[t].variants[v] =
          MakeVariant(std::move(schemas[2 * t + v]), 100 * (t + 1) + v + 1,
                      pool_size);
    }
  }

  // The serving default first, then the eager configuration, each on a
  // fresh server.
  struct Config {
    const char* name;
    bool lazy_expansion;
    Replay replay;
  };
  Config configs[] = {{"lazy", true, {}}, {"eager", false, {}}};
  for (Config& config : configs) {
    serve::ServerOptions server_options;
    server_options.num_threads = flags.threads;
    server_options.lazy_expansion = config.lazy_expansion;
    if (!ReplayTrace(&tenants, server_options, rounds, batch_size,
                     &config.replay)) {
      std::fprintf(stderr, "%s replay failed\n", config.name);
      return 1;
    }
  }

  std::printf("EXP-R: car_serve traffic replay (threads=%d)\n\n",
              flags.threads);
  std::printf("| config | scope | count | p50 (ms) | p95 (ms) | p99 (ms) |\n");
  std::printf("|---|---|---|---|---|---|\n");
  bench::JsonLinesFile out(flags.out_path);
  if (!out.ok()) return 1;
  struct Scope {
    const char* name;
    const std::vector<double>* values;
  };
  bool ok = true;
  for (const Config& config : configs) {
    const Replay& replay = config.replay;
    for (const Scope& scope :
         {Scope{"open", &replay.open_ms},
          Scope{"query_cold", &replay.query_cold_ms},
          Scope{"query_warm", &replay.query_warm_ms},
          Scope{"query_probe", &replay.query_probe_ms}}) {
      std::printf("| %s | %s | %zu | %.2f | %.2f | %.2f |\n", config.name,
                  scope.name, scope.values->size(),
                  Percentile(*scope.values, 50),
                  Percentile(*scope.values, 95),
                  Percentile(*scope.values, 99));
      bench::JsonRecord record;
      record.Add("bench", "serve")
          .Add("config", config.name)
          .Add("scope", scope.name)
          .Add("threads", flags.threads)
          .Add("count", static_cast<uint64_t>(scope.values->size()))
          .Add("p50_ms", Percentile(*scope.values, 50))
          .Add("p95_ms", Percentile(*scope.values, 95))
          .Add("p99_ms", Percentile(*scope.values, 99));
      out.Write(record);
    }

    const serve::StatsResponse& stats = replay.stats;
    const double cold_p50 = Percentile(replay.query_cold_ms, 50);
    const double warm_p50 = Percentile(replay.query_warm_ms, 50);
    const bool answers_identical =
        replay.wrong_answers == 0 && replay.wire_ok;
    const double hit_rate =
        stats.lookup_hits + stats.lookup_misses > 0
            ? static_cast<double>(stats.lookup_hits) /
                  static_cast<double>(stats.lookup_hits +
                                      stats.lookup_misses)
            : 0.0;
    bench::JsonRecord summary;
    summary.Add("bench", "serve")
        .Add("config", config.name)
        .Add("scope", "summary")
        .Add("threads", flags.threads)
        .Add("tenants", static_cast<uint64_t>(tenants.size()))
        .Add("queries", replay.total_queries)
        .Add("answers_identical", answers_identical)
        .Add("degraded_batches", replay.degraded_batches)
        .Add("warm_p50_ms", warm_p50)
        .Add("cold_p50_ms", cold_p50)
        .Add("warm_vs_cold", cold_p50 > 0 ? warm_p50 / cold_p50 : 0.0)
        .Add("probe_p95_ms", Percentile(replay.query_probe_ms, 95))
        .Add("probes", replay.probes)
        .Add("warm_starts", replay.warm_starts)
        .Add("opens", stats.opens)
        .Add("warm_opens", stats.warm_opens)
        .Add("replacements", stats.replacements)
        .Add("evictions", stats.evictions)
        .Add("lookup_hit_rate", hit_rate)
        .Add("sessions", stats.sessions)
        .Add("resident_bytes", stats.resident_bytes);
    out.Write(summary);

    if (!answers_identical) {
      std::fprintf(stderr, "FAIL (%s): served answers differ from offline "
                           "(or wire round trip broke)\n", config.name);
      ok = false;
    }
    if (replay.degraded_batches != 0) {
      std::fprintf(stderr, "FAIL (%s): unexpected degraded batches\n",
                   config.name);
      ok = false;
    }
  }


  // The lazy serving default against the eager configuration on the same
  // trace: the probing batches are where the two engines differ.
  const double lazy_probe_p95 =
      Percentile(configs[0].replay.query_probe_ms, 95);
  const double eager_probe_p95 =
      Percentile(configs[1].replay.query_probe_ms, 95);
  const double ratio =
      eager_probe_p95 > 0 ? lazy_probe_p95 / eager_probe_p95 : 0.0;
  bench::JsonRecord comparison;
  comparison.Add("bench", "serve")
      .Add("scope", "lazy_vs_eager")
      .Add("threads", flags.threads)
      .Add("lazy_probe_p95_ms", lazy_probe_p95)
      .Add("eager_probe_p95_ms", eager_probe_p95)
      .Add("probe_p95_ratio", ratio)
      .Add("max_probe_p95_ratio", kMaxProbeP95Ratio)
      .Add("lazy_probe_batches",
           static_cast<uint64_t>(configs[0].replay.query_probe_ms.size()))
      .Add("eager_probe_batches",
           static_cast<uint64_t>(configs[1].replay.query_probe_ms.size()));
  out.Write(comparison);
  std::printf("\nlazy vs eager probe-batch p95: %.2f ms vs %.2f ms (%.2fx; "
              "gate %.1fx)\n", lazy_probe_p95, eager_probe_p95, ratio,
              kMaxProbeP95Ratio);
  std::printf("wrote %s\n", flags.out_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace car

int main(int argc, char** argv) { return car::Main(argc, argv); }
