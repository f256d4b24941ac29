// serve_fresh and serve_churn: libcar's serving stack driven in-process
// by one closed-loop client thread.
//
// The untraced pass sends every request through the wire codec into
// serve::Server::Handle, exactly as a transport would. The traced pass
// replays the same seeded trace one level below Handle — the same public
// SessionCache / IncrementalSession calls in the same order — with a span
// around each call and the layer counters read at the span boundaries.
// Equal responses and equal server counters show the mirror is faithful.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "base/exec_context.h"
#include "base/status.h"
#include "base/strings.h"
#include "bench.h"
#include "persist/snapshot_store.h"
#include "reasoner/incremental.h"
#include "reasoner/query_text.h"
#include "reasoner/reasoner.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session_cache.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = car::serve;
using car::StrCat;

/// Per-request deadline, far above the slowest batch: a stall shows as a
/// degraded batch instead of a hung run.
constexpr uint64_t kRequestDeadlineMs = 30000;
/// Worker threads of the from-scratch answer key (outside all timing).
constexpr int kAnswerKeyThreads = 4;

ServeInputs MakeInputs(const std::string& workload, uint64_t seed,
                       size_t ops) {
  return workload == "serve_fresh" ? MakeServeFresh(seed, ops)
                                   : MakeServeChurn(seed, ops);
}

/// A fresh, empty state directory for one server instance.
std::string FreshStateDir(const std::string& root, const std::string& name) {
  std::filesystem::path path = std::filesystem::path(root) / name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path.string();
}

/// The shipped server defaults (lazy sessions, one worker thread,
/// prefilter on, default memory budget), sized and persisted as the
/// workload asks; a persistent server gets the empty directory
/// `<state_root>/<name>`.
serve::ServerOptions OptionsFor(const ServeInputs& inputs,
                                const std::string& state_root,
                                const std::string& name) {
  serve::ServerOptions options;
  options.max_sessions = inputs.max_sessions;
  if (inputs.persistent) options.state_dir = FreshStateDir(state_root, name);
  return options;
}

serve::Request RequestFor(const ServeInputs& inputs, const ServeOp& op) {
  const Tenant& tenant = inputs.tenants[op.tenant];
  switch (op.kind) {
    case ServeOp::Kind::kOpen:
      return serve::OpenRequest{tenant.name, tenant.variants[op.variant].text};
    case ServeOp::Kind::kMutate:
      return serve::MutateRequest{tenant.name,
                                  tenant.variants[op.variant].text};
    case ServeOp::Kind::kQuery:
      break;
  }
  serve::QueryRequest query;
  query.name = tenant.name;
  query.limits.deadline_ms = kRequestDeadlineMs;
  query.queries = op.queries;
  return query;
}

/// The requests of `ops`, built before any timing starts.
std::vector<serve::Request> RequestsFor(const ServeInputs& inputs,
                                        const std::vector<ServeOp>& ops) {
  std::vector<serve::Request> requests;
  requests.reserve(ops.size());
  for (const ServeOp& op : ops) requests.push_back(RequestFor(inputs, op));
  return requests;
}

serve::QueryStatsDelta Delta(const car::IncrementalStats& before,
                             const car::IncrementalStats& after) {
  serve::QueryStatsDelta delta;
  delta.probes = after.probes - before.probes;
  delta.memo_hits = after.memo_hits - before.memo_hits;
  delta.closure_hits = after.closure_hits - before.closure_hits;
  delta.cluster_local = after.cluster_local - before.cluster_local;
  delta.warm_starts = after.warm_starts - before.warm_starts;
  delta.fallbacks = after.fallbacks - before.fallbacks;
  return delta;
}

/// serve::Server::Handle, one level down (see the file comment). Only the
/// request kinds the benchmark sends are mirrored.
class TracedServer {
 public:
  explicit TracedServer(const serve::ServerOptions& options)
      : options_(options),
        store_(OpenStore()),
        cache_([this] {
          serve::SessionCacheOptions cache_options;
          cache_options.max_sessions = options_.max_sessions;
          cache_options.memory_budget_bytes = options_.memory_budget_bytes;
          cache_options.reasoner.num_threads = options_.num_threads;
          cache_options.reasoner.prefilter = options_.prefilter;
          cache_options.reasoner.lazy_expansion = options_.lazy_expansion;
          cache_options.store = store_.get();
          return cache_options;
        }()) {}

  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  /// Starts recording spans and counts (the timed phase).
  void StartTracing(Tracer* tracer) {
    tracer_ = tracer;
    counts_.clear();
  }

  serve::Response Handle(const serve::Request& request, uint64_t id) {
    ++stats_.requests;
    return std::visit(
        [&](const auto& message) -> serve::Response {
          using T = std::decay_t<decltype(message)>;
          if constexpr (std::is_same_v<T, serve::OpenRequest>) {
            return HandleOpen(message.name, message.schema_text, id);
          } else if constexpr (std::is_same_v<T, serve::QueryRequest>) {
            return HandleQuery(message, id);
          } else if constexpr (std::is_same_v<T, serve::MutateRequest>) {
            if (Find(message.name, id) == nullptr) {
              return MakeError(car::NotFound(StrCat(
                  "tenant '", car::Elide(message.name), "' is not open")));
            }
            return HandleOpen(message.name, message.schema_text, id);
          } else {
            return MakeError(car::InvalidArgument(
                "request kind not mirrored by the benchmark"));
          }
        },
        request);
  }

  /// serve::Server::StatsSnapshot's fields.
  serve::StatsResponse Stats() const {
    const serve::SessionCacheStats& cache = cache_.stats();
    serve::StatsResponse response;
    response.sessions = cache_.resident_sessions();
    response.resident_bytes = cache_.resident_bytes();
    response.opens = cache.opens;
    response.warm_opens = cache.warm_opens;
    response.replacements = cache.replacements;
    response.evictions = cache.evictions;
    response.lookup_hits = cache.lookup_hits;
    response.lookup_misses = cache.lookup_misses;
    response.requests = stats_.requests;
    response.query_batches = stats_.query_batches;
    response.queries = stats_.queries;
    response.degraded = stats_.degraded;
    response.errors = stats_.errors;
    return response;
  }

  const serve::SessionCacheStats& cache_stats() const {
    return cache_.stats();
  }
  const std::map<std::string, uint64_t>& counts() const { return counts_; }

 private:
  std::unique_ptr<car::persist::SnapshotStore> OpenStore() {
    if (options_.state_dir.empty()) return nullptr;
    io_exec_.InjectIoFaultAfter(options_.io_fault_after);
    car::persist::SnapshotStoreOptions store_options;
    store_options.exec = &io_exec_;
    auto store =
        car::persist::SnapshotStore::Open(options_.state_dir, store_options);
    if (!store.ok()) return nullptr;
    return std::move(store.value());
  }

  serve::SessionEntry* Find(const std::string& name, uint64_t id) {
    ScopedSpan span(tracer_, "serve.lookup", id);
    return cache_.Find(name);
  }

  serve::Response HandleOpen(const std::string& name, std::string_view text,
                             uint64_t id) {
    if (name.empty()) {
      return MakeError(car::InvalidArgument("empty tenant name"));
    }
    bool warm = false;
    counts_["bytes_parsed"] += text.size();
    auto opened = [&] {
      ScopedSpan span(tracer_, "serve.open", id);
      return cache_.Open(name, text, &warm);
    }();
    if (!opened.ok()) return MakeError(opened.status());
    const serve::SessionEntry& entry = *opened.value();
    serve::OpenedResponse response;
    response.fingerprint = entry.fingerprint;
    response.num_classes = static_cast<uint32_t>(entry.schema->num_classes());
    response.num_relations =
        static_cast<uint32_t>(entry.schema->num_relations());
    response.warm = warm;
    return response;
  }

  serve::Response HandleQuery(const serve::QueryRequest& request,
                              uint64_t id) {
    serve::SessionEntry* entry = Find(request.name, id);
    if (entry == nullptr) {
      return MakeError(car::NotFound(
          StrCat("tenant '", car::Elide(request.name), "' is not open")));
    }
    std::vector<car::ImplicationQuery> queries;
    {
      ScopedSpan span(tracer_, "reasoner.query_text", id);
      for (const std::string& line : request.queries) {
        std::vector<std::string> tokens = car::TokenizeQueryLine(line);
        if (tokens.empty()) {
          return MakeError(car::InvalidArgument(
              StrCat("empty query line '", car::Elide(line), "'")));
        }
        auto parsed = car::ParseQueryTokens(*entry->schema, tokens);
        if (!parsed.ok()) {
          return MakeError(car::Status(
              parsed.status().code(),
              StrCat("query '", car::Elide(line),
                     "': ", parsed.status().message())));
        }
        queries.push_back(std::move(parsed.value()));
      }
    }
    ++stats_.query_batches;
    stats_.queries += queries.size();

    car::ExecContext exec;
    car::AdmissionLimits::Tighten(options_.request_limits, request.limits)
        .ConfigureContext(&exec);
    const car::IncrementalStats before = entry->session->stats();
    auto answers = [&] {
      ScopedSpan span(tracer_, "reasoner.batch", id);
      entry->session->set_exec(&exec);
      auto result = entry->session->RunImplicationBatch(queries);
      entry->session->set_exec(nullptr);
      return result;
    }();
    CountBatch(before, entry->session->stats(), exec.progress());
    {
      ScopedSpan span(tracer_, "serve.update_cost", id);
      cache_.UpdateCost(entry);
    }
    {
      ScopedSpan span(tracer_, "persist.spill", id);
      cache_.Spill(entry);
    }

    serve::AnswersResponse response;
    response.stats = Delta(before, entry->session->stats());
    if (!answers.ok()) {
      if (!exec.tripped()) return MakeError(answers.status());
      const car::LimitReport report = exec.report();
      ++stats_.degraded;
      response.degraded = true;
      response.limit_kind = report.kind;
      response.limit_phase = report.phase;
      response.limit_value = report.limit;
      response.limit_count = report.count;
      return response;
    }
    for (bool answer : answers.value()) {
      response.answers.push_back(answer ? 1 : 0);
    }
    return response;
  }

  /// Folds one batch's session-stat deltas and governor progress into
  /// the layer counts.
  void CountBatch(const car::IncrementalStats& before,
                  const car::IncrementalStats& after,
                  const car::ProgressSnapshot& progress) {
    auto add = [this](const char* name, uint64_t value) {
      counts_[name] += value;
    };
    add("queries", after.queries - before.queries);
    add("probes", after.probes - before.probes);
    add("memo_hits", after.memo_hits - before.memo_hits);
    add("closure_hits", after.closure_hits - before.closure_hits);
    add("cluster_local", after.cluster_local - before.cluster_local);
    add("lazy_hits", after.lazy_hits - before.lazy_hits);
    add("fallbacks", after.fallbacks - before.fallbacks);
    add("base_builds", after.base_builds - before.base_builds);
    add("refinement_rounds",
        after.lazy_refinement_rounds - before.lazy_refinement_rounds);
    add("materialized", after.lazy_compounds_materialized -
                            before.lazy_compounds_materialized);
    add("spurious_witnesses",
        after.spurious_witnesses - before.spurious_witnesses);
    add("blocking_constraints",
        after.lazy_blocking_constraints - before.lazy_blocking_constraints);
    add("certificate_closures",
        after.lazy_certificate_closures - before.lazy_certificate_closures);
    add("scalar_promotions",
        after.scalar_promotions - before.scalar_promotions);
    add("compounds", progress.compounds_enumerated);
    add("lp_solves", progress.lp_solves);
    add("warm_starts", progress.warm_starts);
    add("pivots", progress.pivots_executed);
    add("peak_nonzeros", progress.peak_tableau_nonzeros);
    add("peak_cells", progress.peak_tableau_cells);
  }

  serve::Response MakeError(const car::Status& status) {
    ++stats_.errors;
    serve::ErrorResponse response;
    response.code = status.code();
    response.message = status.message();
    return response;
  }

  serve::ServerOptions options_;
  Tracer* tracer_ = nullptr;
  car::ExecContext io_exec_;
  std::unique_ptr<car::persist::SnapshotStore> store_;
  serve::SessionCache cache_;
  serve::ServerStats stats_;
  std::map<std::string, uint64_t> counts_;
};

/// One request through the wire codec both ways, as a transport sends
/// it. A codec asymmetry is reported as an error response.
template <typename Handler>
serve::Response RoundTrip(const serve::Request& request, Tracer* tracer,
                          uint64_t id, Handler&& handle) {
  auto decoded = [&] {
    ScopedSpan span(tracer, "serve.codec", id);
    return serve::DecodeRequest(serve::EncodeRequest(request));
  }();
  if (!decoded.ok() || decoded.value() != request) {
    return serve::ErrorResponse{car::StatusCode::kInternal,
                                "request codec round trip failed"};
  }
  serve::Response response = handle(decoded.value());
  auto back = [&] {
    ScopedSpan span(tracer, "serve.codec", id);
    return serve::DecodeResponse(serve::EncodeResponse(response));
  }();
  if (!back.ok() || back.value() != response) {
    return serve::ErrorResponse{car::StatusCode::kInternal,
                                "response codec round trip failed"};
  }
  return std::move(back.value());
}

std::string ClassOf(const ServeOp& op, const serve::Response& response) {
  if (std::holds_alternative<serve::ErrorResponse>(response)) return "error";
  if (const auto* opened = std::get_if<serve::OpenedResponse>(&response)) {
    if (op.kind == ServeOp::Kind::kMutate) return "mutate";
    return opened->warm ? "open_warm" : "open_cold";
  }
  const auto& answers = std::get<serve::AnswersResponse>(response);
  if (answers.degraded) return "degraded";
  // A batch whose every query came from the memo, the static closure or
  // a trivial shape never reaches the solver.
  return answers.stats.probes > 0 ? "batch_probe" : "batch_no_probe";
}

/// Deterministic rendering of a response, for the traced/untraced
/// comparison.
std::string Describe(const serve::Response& response) {
  if (const auto* error = std::get_if<serve::ErrorResponse>(&response)) {
    return StrCat("error ", static_cast<int>(error->code), " ",
                  error->message);
  }
  if (const auto* opened = std::get_if<serve::OpenedResponse>(&response)) {
    return StrCat("opened ", opened->fingerprint, " warm=", opened->warm);
  }
  const auto& answers = std::get<serve::AnswersResponse>(response);
  std::string bits;
  for (uint8_t answer : answers.answers) bits += answer ? '1' : '0';
  const serve::QueryStatsDelta& s = answers.stats;
  return StrCat("answers ", bits, " degraded=", answers.degraded,
                " probes=", s.probes, " memo=", s.memo_hits,
                " closure=", s.closure_hits, " local=", s.cluster_local,
                " warm=", s.warm_starts, " fallbacks=", s.fallbacks);
}

void RecordStats(const serve::StatsResponse& stats,
                 std::map<std::string, std::string>* out) {
  auto put = [out](const char* name, uint64_t value) {
    (*out)[StrCat("server.", name)] = StrCat(value);
  };
  put("sessions", stats.sessions);
  put("resident_bytes", stats.resident_bytes);
  put("opens", stats.opens);
  put("warm_opens", stats.warm_opens);
  put("replacements", stats.replacements);
  put("evictions", stats.evictions);
  put("lookup_hits", stats.lookup_hits);
  put("lookup_misses", stats.lookup_misses);
  put("requests", stats.requests);
  put("query_batches", stats.query_batches);
  put("queries", stats.queries);
  put("degraded", stats.degraded);
  put("errors", stats.errors);
}

/// What one pass leaves for the checks after it.
struct ServePass {
  PassOutcome outcome;
  std::unique_ptr<ServeInputs> inputs;
  std::vector<serve::Response> setup_responses;
  std::vector<serve::Response> timed_responses;
  uint64_t timed_evictions = 0;
  /// Traced pass only.
  std::vector<Span> spans;
};

void Account(const ServeOp& op, const serve::Response& response,
             Clock::time_point start, PassOutcome* outcome) {
  const std::string op_class = ClassOf(op, response);
  outcome->latency_ms.back().push_back(MillisSince(start));
  outcome->op_class.push_back(op_class);
  ++outcome->attempted;
  if (op_class == "error") ++outcome->errors;
  if (op_class == "degraded") {
    ++outcome->degraded;
    const auto& answers = std::get<serve::AnswersResponse>(response);
    if (answers.limit_kind == car::LimitKind::kDeadline) {
      ++outcome->deadline_trips;
    }
  }
}

void RecordResponses(const ServePass& pass,
                     std::map<std::string, std::string>* out) {
  for (size_t i = 0; i < pass.setup_responses.size(); ++i) {
    (*out)[StrCat("setup.", i)] = Describe(pass.setup_responses[i]);
  }
  for (size_t i = 0; i < pass.timed_responses.size(); ++i) {
    (*out)[StrCat("timed.", i)] = Describe(pass.timed_responses[i]);
  }
}

ServePass RunUntracedPass(const RunConfig& config, size_t ops) {
  ServePass pass;
  std::vector<std::string> first_replay;
  for (int replay = 0; replay < kReplays; ++replay) {
    // The previous replay's server and inputs are gone before the next
    // set-up starts, so every replay does the same work.
    pass.inputs.reset();
    pass.setup_responses.clear();
    pass.timed_responses.clear();
    const Clock::time_point setup_start = Clock::now();
    pass.inputs = std::make_unique<ServeInputs>(
        MakeInputs(config.workload, config.seed, ops));
    const std::vector<serve::Request> timed =
        RequestsFor(*pass.inputs, pass.inputs->timed);
    auto server = std::make_unique<serve::Server>(OptionsFor(
        *pass.inputs, config.state_dir, StrCat("untraced-", replay)));
    auto handle = [&](const serve::Request& request) {
      return server->Handle(request);
    };
    for (const serve::Request& request :
         RequestsFor(*pass.inputs, pass.inputs->setup)) {
      pass.setup_responses.push_back(RoundTrip(request, nullptr, 0, handle));
    }
    pass.outcome.setup_s.push_back(SecondsSince(setup_start));

    const uint64_t evictions_before = server->StatsSnapshot().evictions;
    pass.outcome.BeginReplay();
    const Clock::time_point timed_start = Clock::now();
    for (size_t i = 0; i < timed.size(); ++i) {
      const Clock::time_point start = Clock::now();
      serve::Response response = RoundTrip(timed[i], nullptr, 0, handle);
      Account(pass.inputs->timed[i], response, start, &pass.outcome);
      pass.timed_responses.push_back(std::move(response));
    }
    pass.outcome.timed_s.push_back(SecondsSince(timed_start));
    // Later replays reuse memory the allocator kept from earlier ones; the
    // first replay's peak is that of a process that ran the workload once.
    if (replay == 0) pass.outcome.peak_rss_mb = PeakRssMb();

    const serve::StatsResponse stats = server->StatsSnapshot();
    pass.timed_evictions = stats.evictions - evictions_before;
    pass.outcome.deterministic.clear();
    RecordStats(stats, &pass.outcome.deterministic);
    RecordResponses(pass, &pass.outcome.deterministic);
    std::vector<std::string> replay_results;
    for (const auto& [name, value] : pass.outcome.deterministic) {
      replay_results.push_back(value);
    }
    if (replay == 0) {
      first_replay = std::move(replay_results);
    } else if (replay_results != first_replay) {
      pass.outcome.replays_agree = false;
    }
  }
  return pass;
}

/// Adds the session-cache counter deltas of the timed phase to `counts`.
void CountCache(const serve::SessionCacheStats& a,
                const serve::SessionCacheStats& b,
                std::map<std::string, uint64_t>* counts) {
  auto put = [counts](const char* name, uint64_t before, uint64_t after) {
    (*counts)[StrCat("cache.", name)] = after - before;
  };
  put("opens", a.opens, b.opens);
  put("warm_opens", a.warm_opens, b.warm_opens);
  put("replacements", a.replacements, b.replacements);
  put("evictions", a.evictions, b.evictions);
  put("lookup_hits", a.lookup_hits, b.lookup_hits);
  put("lookup_misses", a.lookup_misses, b.lookup_misses);
  put("restores", a.restores, b.restores);
  put("restore_failures", a.restore_failures, b.restore_failures);
  put("spills", a.spills, b.spills);
  put("spill_failures", a.spill_failures, b.spill_failures);
  put("spill_ineligible", a.spill_ineligible, b.spill_ineligible);
}

/// `write_trace`: whether this pass writes its spans to config.trace_out.
ServePass RunTracedPass(const RunConfig& config, size_t ops,
                        bool write_trace) {
  ServePass pass;
  pass.inputs = std::make_unique<ServeInputs>(
      MakeInputs(config.workload, config.seed, ops));
  const std::vector<serve::Request> timed =
      RequestsFor(*pass.inputs, pass.inputs->timed);
  TracedServer server(OptionsFor(*pass.inputs, config.state_dir, "traced"));
  for (const serve::Request& request :
       RequestsFor(*pass.inputs, pass.inputs->setup)) {
    pass.setup_responses.push_back(
        RoundTrip(request, nullptr, 0, [&](const serve::Request& decoded) {
          return server.Handle(decoded, 0);
        }));
  }

  Tracer tracer;
  server.StartTracing(&tracer);
  const serve::SessionCacheStats cache_before = server.cache_stats();
  pass.outcome.BeginReplay();
  const Clock::time_point timed_start = Clock::now();
  for (size_t i = 0; i < timed.size(); ++i) {
    const uint64_t id = i + 1;
    const Clock::time_point start = Clock::now();
    serve::Response response = [&] {
      ScopedSpan span(&tracer, "request", id);
      return RoundTrip(timed[i], &tracer, id,
                       [&](const serve::Request& decoded) {
                         return server.Handle(decoded, id);
                       });
    }();
    Account(pass.inputs->timed[i], response, start, &pass.outcome);
    pass.timed_responses.push_back(std::move(response));
  }
  pass.outcome.timed_s.push_back(SecondsSince(timed_start));
  pass.spans = tracer.spans();
  pass.outcome.counts = server.counts();
  CountCache(cache_before, server.cache_stats(), &pass.outcome.counts);
  pass.timed_evictions = pass.outcome.counts["cache.evictions"];
  if (write_trace && !config.trace_out.empty() &&
      !tracer.WriteJsonLines(config.trace_out)) {
    pass.outcome.deterministic["trace_out"] = "unwritable";
  }
  RecordStats(server.Stats(), &pass.outcome.deterministic);
  RecordResponses(pass, &pass.outcome.deterministic);
  return pass;
}

/// Checks every served answer against a from-scratch reasoner with the
/// incremental engine, the prefilter and lazy expansion all off.
void CheckAnswers(const ServePass& pass, WorkloadResult* result) {
  const ServeInputs& inputs = *pass.inputs;
  struct Served {
    const ServeOp* op;
    const serve::Response* response;
  };
  std::vector<Served> served;
  for (size_t i = 0; i < inputs.setup.size(); ++i) {
    served.push_back({&inputs.setup[i], &pass.setup_responses[i]});
  }
  for (size_t i = 0; i < inputs.timed.size(); ++i) {
    served.push_back({&inputs.timed[i], &pass.timed_responses[i]});
  }

  // Distinct lines per (tenant, variant), answered in one batch each.
  std::map<std::pair<int, int>, std::set<std::string>> lines;
  for (const Served& s : served) {
    if (s.op->kind != ServeOp::Kind::kQuery) continue;
    lines[{s.op->tenant, s.op->variant}].insert(s.op->queries.begin(),
                                                 s.op->queries.end());
  }
  std::map<std::pair<int, int>, std::map<std::string, bool>> key;
  for (const auto& [where, distinct] : lines) {
    const car::Schema& schema =
        *inputs.tenants[where.first].variants[where.second].schema;
    std::vector<car::ImplicationQuery> queries;
    for (const std::string& line : distinct) {
      auto query =
          car::ParseQueryTokens(schema, car::TokenizeQueryLine(line));
      if (!query.ok()) {
        result->problems.push_back(StrCat("answer key cannot parse '", line,
                                          "': ", query.status().message()));
        return;
      }
      queries.push_back(std::move(query.value()));
    }
    car::ReasonerOptions options;
    options.incremental = false;
    options.prefilter = false;
    options.lazy_expansion = false;
    options.num_threads = kAnswerKeyThreads;
    car::Reasoner scratch(&schema, options);
    auto answers = scratch.RunImplicationBatch(queries);
    if (!answers.ok()) {
      result->problems.push_back(
          StrCat("answer key failed: ", answers.status().message()));
      return;
    }
    size_t i = 0;
    for (const std::string& line : distinct) {
      key[where][line] = answers.value()[i++];
    }
  }

  uint64_t checked = 0;
  uint64_t wrong = 0;
  for (const Served& s : served) {
    const auto* answers = std::get_if<serve::AnswersResponse>(s.response);
    if (s.op->kind != ServeOp::Kind::kQuery || answers == nullptr ||
        answers->degraded) {
      continue;
    }
    const auto& expected = key[{s.op->tenant, s.op->variant}];
    for (size_t i = 0; i < s.op->queries.size(); ++i) {
      ++checked;
      const bool served_answer = answers->answers[i] != 0;
      if (served_answer != expected.at(s.op->queries[i])) {
        if (++wrong <= 5) {
          result->problems.push_back(StrCat(
              "wrong answer: ", inputs.tenants[s.op->tenant].name, " '",
              s.op->queries[i], "' served ", served_answer));
        }
      }
    }
  }
  if (wrong > 5) {
    result->problems.push_back(StrCat(wrong, " wrong answers in total"));
  }
  result->notes.push_back(StrCat("answers checked against the from-scratch "
                                 "reasoner: ",
                                 checked, " (", wrong, " wrong)"));
}

/// Fails the run when the workload stops measuring what it claims.
void SelfCheck(const RunConfig& config, const ServePass& pass,
               WorkloadResult* result) {
  if (config.workload == "serve_fresh") {
    uint64_t memo_hits = 0;
    for (const serve::Response& response : pass.timed_responses) {
      if (const auto* answers =
              std::get_if<serve::AnswersResponse>(&response)) {
        memo_hits += answers->stats.memo_hits;
      }
    }
    if (memo_hits != 0) {
      result->problems.push_back(StrCat(
          "self-check: serve_fresh timed phase had ", memo_hits,
          " memo hits (every query must be new to its session)"));
    }
    if (pass.timed_evictions != 0) {
      result->problems.push_back(
          StrCat("self-check: serve_fresh evicted ", pass.timed_evictions,
                 " sessions (every tenant must stay resident)"));
    }
    return;
  }
  if (pass.timed_evictions == 0) {
    result->problems.push_back(
        "self-check: serve_churn timed phase evicted no session");
  }
  for (size_t i = 0; i < pass.inputs->timed.size(); ++i) {
    if (pass.inputs->timed[i].kind != ServeOp::Kind::kMutate) continue;
    const auto* opened =
        std::get_if<serve::OpenedResponse>(&pass.timed_responses[i]);
    if (opened == nullptr || opened->warm) {
      result->problems.push_back(StrCat(
          "self-check: serve_churn mutate ", i, " did not rebuild cold"));
      return;
    }
  }
}

/// serve_churn runs with a state directory: its spill points must reach
/// the store (the cache skips them silently without one). Needs the cache
/// counters, which only the traced pass can read.
void CheckPersistence(const ServePass& traced, WorkloadResult* result) {
  const std::map<std::string, uint64_t>& counts = traced.outcome.counts;
  if (counts.at("cache.spills") + counts.at("cache.spill_ineligible") +
          counts.at("cache.spill_failures") ==
      0) {
    result->problems.push_back(
        "self-check: serve_churn spill points never reached the state "
        "directory");
  }
}

/// Per-layer metrics of the traced pass, per timed operation.
void LayerMetrics(const ServePass& traced, const ServePass& untraced,
                  WorkloadResult* result) {
  LayerReport r(traced.outcome, traced.spans, result);
  const std::vector<std::string>& classes = traced.outcome.op_class;
  result->notes.push_back(StrCat(
      "requests answered without a probe = ",
      classes.size() - std::count(classes.begin(), classes.end(),
                                  std::string("batch_probe")),
      " / ", classes.size()));

  r.Set("serve.codec_ms", r.Ms("serve.codec"));
  r.Set("serve.open_ms", r.Ms("serve.open"));
  r.SetShare("serve.lookup_hit_share", r.Count("cache.lookup_hits"),
             r.Count("cache.lookup_hits") + r.Count("cache.lookup_misses"));
  r.SetShare("serve.warm_open_share", r.Count("cache.warm_opens"),
             r.Count("cache.opens"));
  r.Set("serve.evictions", r.Per("cache.evictions"));

  r.Set("persist.spill_ms", r.Ms("persist.spill"));
  r.Set("persist.restores", r.Per("cache.restores"));
  r.SetShare("persist.restore_share", r.Count("cache.restores"),
             r.Count("cache.opens") - r.Count("cache.warm_opens"));
  r.Set("persist.spills", r.Per("cache.spills"));
  r.Set("persist.spill_ineligible", r.Per("cache.spill_ineligible"));

  r.Set("reasoner.batch_ms", r.Ms("reasoner.batch"));
  r.Set("reasoner.probes", r.Per("probes"));
  r.SetShare("reasoner.memo_hit_share", r.Count("memo_hits"),
             r.Count("queries"));
  r.SetShare("reasoner.lazy_conclusive_share", r.Count("lazy_hits"),
             r.Count("probes"));
  r.Set("reasoner.fallbacks", r.Per("fallbacks"));
  r.Set("reasoner.base_builds", r.Per("base_builds"));
  r.Set("reasoner.refinement_rounds", r.Per("refinement_rounds"));

  r.SetShare("analysis.closure_hit_share", r.Count("closure_hits"),
             r.Count("queries"));
  r.Set("analysis.cluster_local", r.Per("cluster_local"));

  const char* inside = "runs inside IncrementalSession::RunImplicationBatch "
                       "or SessionCache::Open; spans inside the program are "
                       "out of scope, so its time is part of "
                       "reasoner.batch_ms / serve.open_ms";
  r.Unreached("frontend.parse_ms", inside);
  r.Set("frontend.bytes_parsed", r.Per("bytes_parsed"));

  r.Unreached("expansion.build_ms", inside);
  r.Set("expansion.compounds", r.Per("compounds"));
  r.Set("expansion.materialized", r.Per("materialized"));

  r.Unreached("solver.solve_ms", inside);
  r.Set("solver.lp_solves", r.Per("lp_solves"));
  r.SetShare("solver.warm_share", r.Count("warm_starts"),
             r.Count("lp_solves"));
  r.Unreached("solver.fixpoint_rounds",
              "neither IncrementalStats nor ExecContext::progress() "
              "exposes it");

  r.Set("math.pivots", r.Per("pivots"));
  r.SetShare("math.pivots_per_lp", r.Count("pivots"), r.Count("lp_solves"));
  r.Set("math.scalar_promotions", r.Per("scalar_promotions"));
  r.SetShare("math.fill", r.Count("peak_nonzeros"), r.Count("peak_cells"));

  r.Set("semantics.spurious_witnesses", r.Per("spurious_witnesses"));
  r.Set("semantics.blocking_constraints", r.Per("blocking_constraints"));
  r.Set("semantics.certificate_closures", r.Per("certificate_closures"));
  r.Finish(untraced.outcome);
}

}  // namespace

WorkloadResult RunServeWorkload(const RunConfig& config) {
  const size_t ops = TimedOps(config.workload, config.seconds);
  WorkloadResult result;
  ServePass untraced = RunUntracedPass(config, ops);
  result.untraced = untraced.outcome;
  CheckAnswers(untraced, &result);
  SelfCheck(config, untraced, &result);
  if (config.trace) {
    ServePass traced = RunTracedPass(config, ops, /*write_trace=*/true);
    result.traced = traced.outcome;
    result.traced_again =
        RunTracedPass(config, ops, /*write_trace=*/false).outcome;
    SelfCheck(config, traced, &result);
    if (config.workload == "serve_churn") CheckPersistence(traced, &result);
    LayerMetrics(traced, untraced, &result);
  }
  std::filesystem::remove_all(config.state_dir);
  return result;
}

}  // namespace perfbench
