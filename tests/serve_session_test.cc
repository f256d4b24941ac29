// Serving-stack tests for src/serve/server.h and session_cache.h:
// differential equivalence of the server against the from-scratch
// offline reasoner across thread counts, LRU/memory eviction semantics,
// a deterministic fault-injection sweep over admission control, and an
// end-to-end check of the car_serve binary over stdio.

#include "serve/server.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "frontend/parser.h"
#include "frontend/printer.h"
#include "gtest/gtest.h"
#include "reasoner/query_text.h"
#include "reasoner/reasoner.h"
#include "serve/protocol.h"
#include "serve/session_cache.h"
#include "test_schemas.h"
#include "workloads/generators.h"

namespace car {
namespace serve {
namespace {

/// Textual query lines over a schema's own names, deterministic in the
/// seed and covering every query kind the format supports.
std::vector<std::string> MakeQueryLines(const Schema& schema,
                                        uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<std::string> lines;
  auto class_name = [&] {
    return schema.ClassName(
        static_cast<ClassId>(rng.NextBelow(schema.num_classes())));
  };
  while (static_cast<int>(lines.size()) < count) {
    switch (rng.NextBelow(schema.num_relations() > 0 ? 5 : 4)) {
      case 0:
        lines.push_back(StrCat("isa ", class_name(), " ", class_name()));
        break;
      case 1:
        lines.push_back(
            StrCat("disjoint ", class_name(), " ", class_name()));
        break;
      case 2:
      case 3: {
        if (schema.num_attributes() == 0) continue;
        const std::string& attribute = schema.AttributeName(
            static_cast<AttributeId>(rng.NextBelow(schema.num_attributes())));
        std::string term =
            rng.NextBelow(3) == 0 ? StrCat("inv:", attribute) : attribute;
        if (rng.NextBelow(2) == 0) {
          lines.push_back(StrCat("min-card ", class_name(), " ", term,
                                 " ", 1 + rng.NextBelow(3)));
        } else {
          lines.push_back(StrCat("max-card ", class_name(), " ", term,
                                 " ", 1 + rng.NextBelow(3)));
        }
        break;
      }
      default: {
        RelationId relation = static_cast<RelationId>(
            rng.NextBelow(schema.num_relations()));
        const RelationDefinition* definition =
            schema.relation_definition(relation);
        const std::string& role = schema.RoleName(
            definition->roles[rng.NextBelow(definition->roles.size())]);
        lines.push_back(StrCat(
            rng.NextBelow(2) == 0 ? "min-part " : "max-part ",
            class_name(), " ", schema.RelationName(relation), " ", role,
            " ", 1 + rng.NextBelow(2)));
        break;
      }
    }
  }
  return lines;
}

/// Ground truth: the from-scratch engine (no incremental machinery, no
/// governor), the same path `car_tool query --from-scratch` runs.
std::vector<uint8_t> OfflineAnswers(const Schema& schema,
                                    const std::vector<std::string>& lines) {
  std::vector<ImplicationQuery> queries;
  for (const std::string& line : lines) {
    auto parsed = ParseQueryTokens(schema, TokenizeQueryLine(line));
    EXPECT_TRUE(parsed.ok()) << line << ": " << parsed.status();
    queries.push_back(std::move(parsed.value()));
  }
  Reasoner scratch(&schema);
  auto answers = scratch.RunImplicationBatch(queries);
  EXPECT_TRUE(answers.ok()) << answers.status();
  std::vector<uint8_t> bytes;
  for (bool answer : answers.value()) bytes.push_back(answer ? 1 : 0);
  return bytes;
}

Response Open(Server* server, const std::string& name,
              const std::string& text) {
  OpenRequest open;
  open.name = name;
  open.schema_text = text;
  return server->Handle(open);
}

Response Query(Server* server, const std::string& name,
               const std::vector<std::string>& lines,
               AdmissionLimits limits = {}) {
  QueryRequest query;
  query.name = name;
  query.limits = limits;
  query.queries = lines;
  return server->Handle(query);
}

TEST(ServeDifferential, BitIdenticalToOfflineAcrossThreadCounts) {
  Rng rng(7);
  std::vector<Schema> schemas;
  schemas.push_back(testing_schemas::Figure1());
  schemas.push_back(testing_schemas::Figure2());
  schemas.push_back(GenerateChainSchema({6, 2}));
  schemas.push_back(GenerateClusteredSchema(&rng, {2, 3, 2, false}));

  // Expected answers and the per-thread-count transcripts, per schema.
  std::vector<std::vector<uint8_t>> expected;
  std::vector<std::vector<std::string>> lines;
  for (size_t i = 0; i < schemas.size(); ++i) {
    lines.push_back(MakeQueryLines(schemas[i], 900 + i, 12));
    expected.push_back(OfflineAnswers(schemas[i], lines.back()));
  }

  for (int threads : {1, 2, 8}) {
    ServerOptions options;
    options.num_threads = threads;
    Server server(options);
    for (size_t i = 0; i < schemas.size(); ++i) {
      const std::string name = StrCat("tenant-", i);
      Response opened =
          Open(&server, name, PrintSchema(schemas[i]));
      ASSERT_TRUE(std::holds_alternative<OpenedResponse>(opened));

      // Twice: the cold batch and the fully-memoized warm repeat must
      // both match the offline answers bit for bit.
      for (int repeat = 0; repeat < 2; ++repeat) {
        Response response = Query(&server, name, lines[i]);
        auto* answers = std::get_if<AnswersResponse>(&response);
        ASSERT_NE(answers, nullptr);
        EXPECT_FALSE(answers->degraded);
        EXPECT_EQ(answers->answers, expected[i])
            << "threads=" << threads << " schema=" << i
            << " repeat=" << repeat;
      }
    }
  }
}

TEST(ServeSessionCache, LruEvictionRewarmsWithIdenticalAnswers) {
  ServerOptions options;
  options.max_sessions = 2;
  Server server(options);

  Rng rng(11);
  std::vector<std::string> texts = {
      PrintSchema(testing_schemas::Figure1()),
      PrintSchema(GenerateChainSchema({5, 2})),
      PrintSchema(GenerateClusteredSchema(&rng, {2, 3, 2, false}))};
  std::vector<std::vector<std::string>> lines;
  std::vector<std::vector<uint8_t>> first_answers(texts.size());

  for (size_t i = 0; i < texts.size(); ++i) {
    auto schema = ParseSchema(texts[i]);
    ASSERT_TRUE(schema.ok());
    lines.push_back(MakeQueryLines(*schema, 40 + i, 8));
  }

  // Opening three tenants under a two-session cap evicts the LRU one.
  for (size_t i = 0; i < texts.size(); ++i) {
    Response opened = Open(&server, StrCat("t", i), texts[i]);
    auto* ok = std::get_if<OpenedResponse>(&opened);
    ASSERT_NE(ok, nullptr);
    EXPECT_FALSE(ok->warm);
    Response response = Query(&server, StrCat("t", i), lines[i]);
    auto* answers = std::get_if<AnswersResponse>(&response);
    ASSERT_NE(answers, nullptr);
    first_answers[i] = answers->answers;
  }

  StatsResponse stats = server.StatsSnapshot();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_GE(stats.evictions, 1u);

  // t0 was evicted: querying it is a structured NotFound, never a stale
  // or rebuilt-behind-your-back answer.
  Response miss = Query(&server, "t0", lines[0]);
  auto* error = std::get_if<ErrorResponse>(&miss);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kNotFound);

  // Re-opening rebuilds it cold, and the answers are identical to the
  // pre-eviction ones (the warm state is a cache, not semantics).
  Response reopened = Open(&server, "t0", texts[0]);
  auto* ok = std::get_if<OpenedResponse>(&reopened);
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->warm);
  Response response = Query(&server, "t0", lines[0]);
  auto* answers = std::get_if<AnswersResponse>(&response);
  ASSERT_NE(answers, nullptr);
  EXPECT_EQ(answers->answers, first_answers[0]);
}

TEST(ServeSessionCache, MemoryBudgetEvictsColdestTenant) {
  SessionCacheOptions options;
  options.max_sessions = 64;
  options.memory_budget_bytes = 1;  // Every second session is over.
  SessionCache cache(options);

  bool warm = false;
  auto first = cache.Open("a", PrintSchema(testing_schemas::Figure1()),
                          &warm);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.resident_sessions(), 1u);

  // The budget never evicts the session being opened, so "a" survives
  // until "b" arrives and "a" becomes the coldest entry.
  auto second = cache.Open(
      "b", PrintSchema(GenerateChainSchema({4, 2})), &warm);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.resident_sessions(), 1u);
  EXPECT_EQ(cache.Find("a"), nullptr);
  EXPECT_NE(cache.Find("b"), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ServeSessionCache, WarmOpenKeepsSessionAndMutateRebuildsCold) {
  ServerOptions options;
  Server server(options);
  const std::string text1 = PrintSchema(testing_schemas::Figure1());
  const std::string text2 = PrintSchema(GenerateChainSchema({4, 2}));

  // Mutating a tenant that is not open is a structured error.
  MutateRequest premature;
  premature.name = "t";
  premature.schema_text = text1;
  Response response = server.Handle(premature);
  auto* error = std::get_if<ErrorResponse>(&response);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kNotFound);

  Response first = Open(&server, "t", text1);
  auto* cold = std::get_if<OpenedResponse>(&first);
  ASSERT_NE(cold, nullptr);
  EXPECT_FALSE(cold->warm);

  // Same canonical text (even with extra comments): warm no-op.
  Response again = Open(&server, "t", "// comment\n" + text1);
  auto* warm = std::get_if<OpenedResponse>(&again);
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->warm);
  EXPECT_EQ(warm->fingerprint, cold->fingerprint);

  // Different text: cold rebuild with a different fingerprint, and
  // queries now answer against the new schema.
  MutateRequest mutate;
  mutate.name = "t";
  mutate.schema_text = text2;
  response = server.Handle(mutate);
  auto* mutated = std::get_if<OpenedResponse>(&response);
  ASSERT_NE(mutated, nullptr);
  EXPECT_FALSE(mutated->warm);
  EXPECT_NE(mutated->fingerprint, cold->fingerprint);

  auto schema2 = ParseSchema(text2);
  ASSERT_TRUE(schema2.ok());
  std::vector<std::string> lines = MakeQueryLines(*schema2, 5, 6);
  Response answers_response = Query(&server, "t", lines);
  auto* answers = std::get_if<AnswersResponse>(&answers_response);
  ASSERT_NE(answers, nullptr);
  EXPECT_EQ(answers->answers, OfflineAnswers(*schema2, lines));
}

TEST(SchemaFingerprintTest, CanonicalAndEqualToTheServedFingerprint) {
  const Schema schema = testing_schemas::Figure1();
  const std::string text = PrintSchema(schema);
  std::string canonical;
  const uint64_t fingerprint = SchemaFingerprint(schema, &canonical);
  EXPECT_EQ(canonical, text);

  // Print∘Parse and comment-only edits keep the key.
  auto reparsed = ParseSchema(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(SchemaFingerprint(*reparsed), fingerprint);
  const std::string commented = "// tenant t\n" + text + "// end\n";
  auto recommented = ParseSchema(commented);
  ASSERT_TRUE(recommented.ok()) << recommented.status();
  EXPECT_EQ(SchemaFingerprint(*recommented), fingerprint);

  // A new class moves it.
  Schema extended = schema;
  extended.InternClass("Added");
  EXPECT_NE(SchemaFingerprint(extended), fingerprint);

  // The server reports the same key for the same text.
  Server server(ServerOptions{});
  Response opened = Open(&server, "t", commented);
  auto* response = std::get_if<OpenedResponse>(&opened);
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->fingerprint, fingerprint);
}

TEST(ServeAdmission, MalformedQueriesAreStructuredErrors) {
  Server server(ServerOptions{});
  Response opened =
      Open(&server, "t", PrintSchema(testing_schemas::Figure1()));
  ASSERT_TRUE(std::holds_alternative<OpenedResponse>(opened));

  for (const char* bad :
       {"isa OnlyOneArg", "frobnicate A B", "isa NoSuchClass Other",
        "min-card Student age notanumber", ""}) {
    Response response = Query(&server, "t", {bad});
    auto* error = std::get_if<ErrorResponse>(&response);
    ASSERT_NE(error, nullptr) << "'" << bad << "' was accepted";
    EXPECT_NE(error->code, StatusCode::kOk);
  }
  // The tenant still serves after any number of malformed batches.
  std::vector<std::string> lines =
      MakeQueryLines(testing_schemas::Figure1(), 3, 4);
  Response response = Query(&server, "t", lines);
  ASSERT_TRUE(std::holds_alternative<AnswersResponse>(response));
}

// Deterministic admission sweep: inject a fault at every work-charge
// threshold k. Each response is either the full correct answer vector or
// a degraded one with the injection's structured LimitReport — never a
// partial or wrong answer — and the outcome at every k is reproducible.
TEST(ServeAdmission, FaultInjectionSweepDegradesDeterministically) {
  const Schema schema = testing_schemas::Figure2();
  const std::string text = PrintSchema(schema);
  const std::vector<std::string> lines = MakeQueryLines(schema, 77, 8);
  const std::vector<uint8_t> expected = OfflineAnswers(schema, lines);

  auto sweep = [&](int threads) {
    std::vector<std::string> outcomes;
    ServerOptions options;
    options.num_threads = threads;
    Server server(options);
    Response opened = Open(&server, "t", text);
    EXPECT_TRUE(std::holds_alternative<OpenedResponse>(opened));
    for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3},
                       uint64_t{5}, uint64_t{8}, uint64_t{13},
                       uint64_t{34}, uint64_t{100}, uint64_t{500},
                       uint64_t{2000}, uint64_t{10000}, uint64_t{100000},
                       uint64_t{1} << 24, uint64_t{1} << 40}) {
      // A fresh tenant per step: the memo of earlier steps must not
      // change what later steps compute, so each threshold is probed
      // against an identical cold session.
      server.Handle(CloseRequest{"t"});
      Response reopened = Open(&server, "t", text);
      EXPECT_TRUE(std::holds_alternative<OpenedResponse>(reopened));

      AdmissionLimits limits;
      limits.inject_after = k;
      Response response = Query(&server, "t", lines, limits);
      auto* answers = std::get_if<AnswersResponse>(&response);
      EXPECT_NE(answers, nullptr);
      if (answers == nullptr) continue;
      if (answers->degraded) {
        EXPECT_TRUE(answers->answers.empty());
        EXPECT_EQ(answers->limit_kind, LimitKind::kFaultInjection);
        EXPECT_EQ(answers->limit_value, k);
        outcomes.push_back(StrCat("degraded@", answers->limit_phase, ":",
                                  answers->limit_count));
      } else {
        EXPECT_EQ(answers->answers, expected) << "k=" << k;
        outcomes.push_back("ok");
      }
    }
    return outcomes;
  };

  std::vector<std::string> serial = sweep(1);
  // Small thresholds must degrade, large ones must answer; both kinds
  // occur in the sweep.
  EXPECT_EQ(serial.front().rfind("degraded", 0), 0u);
  EXPECT_NE(std::count(serial.begin(), serial.end(), "ok"), 0);

  // The whole outcome sequence (including the deterministic LimitReport
  // fields) is identical run to run and across thread counts.
  EXPECT_EQ(sweep(1), serial);
  EXPECT_EQ(sweep(2), serial);

  // An unlimited request after a degraded one still answers correctly:
  // degradation never poisons the warm session.
  ServerOptions options;
  Server server(options);
  Open(&server, "t", text);
  AdmissionLimits limits;
  limits.inject_after = 0;
  Response degraded = Query(&server, "t", lines, limits);
  auto* degraded_answers = std::get_if<AnswersResponse>(&degraded);
  ASSERT_NE(degraded_answers, nullptr);
  EXPECT_TRUE(degraded_answers->degraded);
  Response recovered = Query(&server, "t", lines);
  auto* recovered_answers = std::get_if<AnswersResponse>(&recovered);
  ASSERT_NE(recovered_answers, nullptr);
  EXPECT_FALSE(recovered_answers->degraded);
  EXPECT_EQ(recovered_answers->answers, expected);
}

TEST(ServeAdmission, WorkBudgetCapsAreTightenedServerSide) {
  ServerOptions options;
  options.request_limits.work_budget = 1;  // Server cap: trip instantly.
  Server server(options);
  const Schema schema = testing_schemas::Figure2();
  Response opened = Open(&server, "t", PrintSchema(schema));
  ASSERT_TRUE(std::holds_alternative<OpenedResponse>(opened));

  // The request asks for an unlimited budget; the server-side cap wins.
  Response response =
      Query(&server, "t", MakeQueryLines(schema, 77, 4));
  auto* answers = std::get_if<AnswersResponse>(&response);
  ASSERT_NE(answers, nullptr);
  EXPECT_TRUE(answers->degraded);
  EXPECT_EQ(answers->limit_kind, LimitKind::kWorkBudget);
  EXPECT_TRUE(answers->answers.empty());
}

TEST(ServeQuery, NegativeBoundIsRejected) {
  // stoull would wrap "-1" to 2^64-1; the parser must reject it instead
  // of silently answering for a huge bound.
  const Schema schema = testing_schemas::Figure1();
  ASSERT_GT(schema.num_attributes(), 0u);
  const std::string line =
      StrCat("max-card ", schema.ClassName(static_cast<ClassId>(0)), " ",
             schema.AttributeName(static_cast<AttributeId>(0)), " -1");
  auto parsed = ParseQueryTokens(schema, TokenizeQueryLine(line));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// Regression: an oversized response (here, an error echoing a long query
// line under a tiny frame cap) used to CHECK-crash the daemon inside
// EncodeFrame. It must degrade to a bounded ErrorResponse instead.
TEST(ServeStream, OversizedResponseDegradesToBoundedError) {
  ServerOptions options;
  Server server(options);
  Response opened =
      Open(&server, "t", PrintSchema(testing_schemas::Figure1()));
  ASSERT_TRUE(std::holds_alternative<OpenedResponse>(opened));

  // An unknown-class query whose error echo outgrows the cap while the
  // request itself still fits under it.
  QueryRequest query;
  query.name = "t";
  query.queries = {StrCat("isa ", std::string(100, 'Z'), " B")};
  constexpr uint32_t kCap = 160;
  const std::string request_payload = EncodeRequest(query);
  ASSERT_LE(request_payload.size(), kCap);
  ASSERT_GT(EncodeResponse(server.Handle(Request(query))).size(), kCap);

  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(pipe(in_pipe), 0);
  ASSERT_EQ(pipe(out_pipe), 0);
  const std::string frame = EncodeFrame(request_payload, kCap).value();
  ASSERT_EQ(write(in_pipe[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  close(in_pipe[1]);
  Status status = ServeStream(&server, in_pipe[0], out_pipe[1], kCap);
  close(out_pipe[1]);
  close(in_pipe[0]);
  EXPECT_TRUE(status.ok()) << status;

  std::string output;
  char buffer[4096];
  ssize_t n;
  while ((n = read(out_pipe[0], buffer, sizeof(buffer))) > 0) {
    output.append(buffer, static_cast<size_t>(n));
  }
  close(out_pipe[0]);

  FrameReader reader(kCap);
  reader.Append(output.data(), output.size());
  std::string response_payload;
  auto next = reader.Next(&response_payload);
  ASSERT_TRUE(next.ok()) << next.status();
  ASSERT_TRUE(next.value());
  auto response = DecodeResponse(response_payload);
  ASSERT_TRUE(response.ok()) << response.status();
  auto* error = std::get_if<ErrorResponse>(&response.value());
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, StatusCode::kResourceExhausted);
  EXPECT_NE(error->message.find("frame cap"), std::string::npos);
}

// Regression: a connection idle in a blocking read never observed a
// shutdown requested on another connection, so drain hung until every
// client voluntarily disconnected.
TEST(ServeStream, IdleConnectionObservesShutdown) {
  ServerOptions options;
  Server server(options);
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(pipe(in_pipe), 0);
  ASSERT_EQ(pipe(out_pipe), 0);
  Status status = InvalidArgument("unset");
  std::thread connection([&server, &status, &in_pipe, &out_pipe] {
    status = ServeStream(&server, in_pipe[0], out_pipe[1]);
  });
  // The shutdown arrives on "another connection"; no bytes ever reach
  // the idle stream's pipe, yet it must drain promptly.
  server.Handle(Request(ShutdownRequest{}));
  connection.join();
  EXPECT_TRUE(status.ok()) << status;
  close(in_pipe[0]);
  close(in_pipe[1]);
  close(out_pipe[0]);
  close(out_pipe[1]);
}

#ifdef CAR_SERVE_BIN
// End to end: the real car_serve binary over stdio, full wire framing.
TEST(ServeEndToEnd, StdioRoundTrip) {
  int to_child[2];
  int from_child[2];
  ASSERT_EQ(pipe(to_child), 0);
  ASSERT_EQ(pipe(from_child), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    execl(CAR_SERVE_BIN, "car_serve", "--threads=1",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);

  const Schema schema = testing_schemas::Figure1();
  const std::vector<std::string> lines = MakeQueryLines(schema, 13, 6);
  std::string stream;
  stream += EncodeFrame(EncodeRequest(PingRequest{7})).value();
  stream +=
      EncodeFrame(EncodeRequest(OpenRequest{"t", PrintSchema(schema)})).value();
  QueryRequest query;
  query.name = "t";
  query.queries = lines;
  stream += EncodeFrame(EncodeRequest(query)).value();
  stream += EncodeFrame(EncodeRequest(ShutdownRequest{})).value();
  ASSERT_EQ(write(to_child[1], stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  close(to_child[1]);

  std::string output;
  char buffer[4096];
  ssize_t n;
  while ((n = read(from_child[0], buffer, sizeof(buffer))) > 0) {
    output.append(buffer, static_cast<size_t>(n));
  }
  close(from_child[0]);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);

  FrameReader reader;
  reader.Append(output.data(), output.size());
  std::vector<Response> responses;
  std::string payload;
  while (true) {
    auto next = reader.Next(&payload);
    ASSERT_TRUE(next.ok()) << next.status();
    if (!next.value()) break;
    auto response = DecodeResponse(payload);
    ASSERT_TRUE(response.ok()) << response.status();
    responses.push_back(std::move(response.value()));
  }
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0] == Response(PongResponse{7}));
  EXPECT_TRUE(std::holds_alternative<OpenedResponse>(responses[1]));
  auto* answers = std::get_if<AnswersResponse>(&responses[2]);
  ASSERT_NE(answers, nullptr);
  EXPECT_EQ(answers->answers, OfflineAnswers(schema, lines));
  EXPECT_TRUE(
      std::holds_alternative<ShuttingDownResponse>(responses[3]));
}
/// One generation of the real car_serve binary with a persistent state
/// directory: feeds the request frames, collects the decoded responses
/// and the child's stderr. When `kill_after_responses` > 0 the child is
/// SIGKILLed as soon as that many responses arrived (stdin stays open —
/// a genuine crash, no graceful shutdown); otherwise the stream should
/// end in a ShutdownRequest and the child must exit 0.
struct ServeGeneration {
  std::vector<Response> responses;
  std::string stderr_text;
  bool clean_exit = false;
};

ServeGeneration RunServeGeneration(const std::string& state_dir,
                                   const char* fault_env,
                                   const std::vector<Request>& requests,
                                   size_t kill_after_responses = 0) {
  ServeGeneration result;
  int to_child[2];
  int from_child[2];
  int err_child[2];
  EXPECT_EQ(pipe(to_child), 0);
  EXPECT_EQ(pipe(from_child), 0);
  EXPECT_EQ(pipe(err_child), 0);
  pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    dup2(err_child[1], STDERR_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    close(err_child[0]);
    close(err_child[1]);
    if (fault_env != nullptr) setenv("CAR_IO_FAULT_INJECT", fault_env, 1);
    std::string flag = StrCat("--state-dir=", state_dir);
    // Eager sessions: a deferred lazy base is snapshot-ineligible by
    // design (DESIGN §5i), and these tests exist to exercise the spill /
    // restore / quarantine machinery, which needs a full base to spill.
    execl(CAR_SERVE_BIN, "car_serve", "--threads=1", "--no-lazy-expansion",
          flag.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  close(err_child[1]);

  std::string stream;
  for (const Request& request : requests) {
    stream += EncodeFrame(EncodeRequest(request)).value();
  }
  EXPECT_EQ(write(to_child[1], stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  if (kill_after_responses == 0) close(to_child[1]);

  FrameReader reader;
  std::string payload;
  char buffer[4096];
  ssize_t n;
  bool killed = false;
  while ((n = read(from_child[0], buffer, sizeof(buffer))) > 0) {
    reader.Append(buffer, static_cast<size_t>(n));
    while (true) {
      auto next = reader.Next(&payload);
      EXPECT_TRUE(next.ok()) << next.status();
      if (!next.ok() || !next.value()) break;
      auto response = DecodeResponse(payload);
      EXPECT_TRUE(response.ok()) << response.status();
      if (response.ok()) {
        result.responses.push_back(std::move(response.value()));
      }
    }
    if (kill_after_responses > 0 && !killed &&
        result.responses.size() >= kill_after_responses) {
      kill(pid, SIGKILL);
      killed = true;
      close(to_child[1]);
    }
  }
  close(from_child[0]);
  if (kill_after_responses > 0 && !killed) close(to_child[1]);

  while ((n = read(err_child[0], buffer, sizeof(buffer))) > 0) {
    result.stderr_text.append(buffer, static_cast<size_t>(n));
  }
  close(err_child[0]);

  int wstatus = 0;
  EXPECT_EQ(waitpid(pid, &wstatus, 0), pid);
  result.clean_exit = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  return result;
}

/// Scratch state directory for the restart tests.
std::string MakeStateDir() {
  char tmpl[] = "/tmp/car_serve_state_XXXXXX";
  char* made = mkdtemp(tmpl);
  EXPECT_NE(made, nullptr);
  return made != nullptr ? made : "/tmp/car_serve_state_fallback";
}

// Warm restart across real processes: generation 1 builds and persists
// the warm state through a graceful shutdown; generation 2 must restore
// it (witnessed on stderr), answer bit-identically, and never rebuild.
TEST(ServeWarmRestart, GracefulRestartRestoresWarmState) {
  const std::string state_dir = MakeStateDir();
  const Schema schema = testing_schemas::Figure2();
  const std::vector<std::string> lines = MakeQueryLines(schema, 13, 8);
  const std::vector<uint8_t> offline = OfflineAnswers(schema, lines);

  QueryRequest query;
  query.name = "t";
  query.queries = lines;
  const std::vector<Request> trace = {
      OpenRequest{"t", PrintSchema(schema)}, query, ShutdownRequest{}};

  ServeGeneration first = RunServeGeneration(state_dir, nullptr, trace);
  ASSERT_TRUE(first.clean_exit) << first.stderr_text;
  ASSERT_EQ(first.responses.size(), 3u);
  EXPECT_EQ(first.stderr_text.find("warm-restored"), std::string::npos)
      << "generation 1 had nothing to restore from";
  auto* cold = std::get_if<AnswersResponse>(&first.responses[1]);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->answers, offline);

  ServeGeneration second = RunServeGeneration(state_dir, nullptr, trace);
  ASSERT_TRUE(second.clean_exit) << second.stderr_text;
  ASSERT_EQ(second.responses.size(), 3u);
  EXPECT_NE(second.stderr_text.find("warm-restored from snapshot"),
            std::string::npos)
      << "stderr: " << second.stderr_text;
  auto* warm = std::get_if<AnswersResponse>(&second.responses[1]);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->answers, offline);

  std::string cleanup = StrCat("rm -rf '", state_dir, "'");
  int rc = std::system(cleanup.c_str());
  (void)rc;
}

// Crash safety across real processes: generation 1 runs with a sticky
// I/O fault (every spill tears its tmp file) and is SIGKILLed right
// after answering — the state directory holds only crash debris. The
// restarted generation must quarantine the torn write during its
// recovery scan, open cold, and still answer bit-identically.
TEST(ServeWarmRestart, SigkillMidSaveIsQuarantinedAndServedCold) {
  const std::string state_dir = MakeStateDir();
  const Schema schema = testing_schemas::Figure2();
  const std::vector<std::string> lines = MakeQueryLines(schema, 13, 8);
  const std::vector<uint8_t> offline = OfflineAnswers(schema, lines);

  QueryRequest query;
  query.name = "t";
  query.queries = lines;

  // Fault from the very first I/O op: the post-batch spill writes half
  // a chunk and fails, and the injected cleanup leaves the torn tmp on
  // disk — exactly the debris a power cut mid-save leaves behind.
  ServeGeneration first = RunServeGeneration(
      state_dir, "0", {OpenRequest{"t", PrintSchema(schema)}, query},
      /*kill_after_responses=*/2);
  ASSERT_EQ(first.responses.size(), 2u);
  EXPECT_FALSE(first.clean_exit) << "the SIGKILL did not land";
  auto* crashed = std::get_if<AnswersResponse>(&first.responses[1]);
  ASSERT_NE(crashed, nullptr);
  EXPECT_EQ(crashed->answers, offline)
      << "fault injection must never change answers";

  const std::vector<Request> trace = {
      OpenRequest{"t", PrintSchema(schema)}, query, ShutdownRequest{}};
  ServeGeneration second = RunServeGeneration(state_dir, nullptr, trace);
  ASSERT_TRUE(second.clean_exit) << second.stderr_text;
  ASSERT_EQ(second.responses.size(), 3u);
  EXPECT_NE(second.stderr_text.find("quarantined"), std::string::npos)
      << "stderr: " << second.stderr_text;
  EXPECT_NE(second.stderr_text.find("torn write"), std::string::npos)
      << "stderr: " << second.stderr_text;
  EXPECT_EQ(second.stderr_text.find("warm-restored"), std::string::npos)
      << "a torn snapshot must not restore; stderr: "
      << second.stderr_text;
  auto* recovered = std::get_if<AnswersResponse>(&second.responses[1]);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->answers, offline);

  std::string cleanup = StrCat("rm -rf '", state_dir, "'");
  int rc = std::system(cleanup.c_str());
  (void)rc;
}
#endif  // CAR_SERVE_BIN

}  // namespace
}  // namespace serve
}  // namespace car
