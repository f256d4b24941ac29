// The crash-safety contract of the persistent warm-state layer
// (src/persist): snapshots round-trip byte-exactly and restore sessions
// that answer bit-identically to never-persisted ones for every thread
// count; the decoders are total (truncated, bit-flipped, and
// version-skewed inputs yield errors, never crashes or wrong answers);
// the store's save protocol is atomic under a fault-injection sweep
// over every I/O abort point (the prior snapshot survives or the torn
// write is quarantined — a reader never observes a half state); and the
// recovery scan quarantines garbage while leaving foreign files alone.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "base/exec_context.h"
#include "base/hashing.h"
#include "base/rng.h"
#include "frontend/printer.h"
#include "model/schema.h"
#include "persist/snapshot_format.h"
#include "persist/snapshot_store.h"
#include "reasoner/incremental.h"
#include "reasoner/reasoner.h"
#include "serve/session_cache.h"
#include "test_schemas.h"
#include "workloads/generators.h"
#include "workloads/query_batch.h"

namespace car {
namespace {

using persist::DecodeSnapshot;
using persist::EncodeSnapshot;
using persist::PeekSnapshotHeader;
using persist::SnapshotStore;
using persist::SnapshotStoreOptions;
using persist::WarmSnapshot;

constexpr int kThreadCounts[] = {1, 2, 8};

/// Fresh scratch directory under /tmp, removed on destruction (best
/// effort — a leaked quarantine file only leaks tmp space).
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/car_persist_test_XXXXXX";
    char* made = mkdtemp(tmpl);
    CAR_CHECK(made != nullptr);
    path_ = made;
  }
  ~ScratchDir() {
    std::string command = "rm -rf '" + path_ + "'";
    int rc = std::system(command.c_str());
    (void)rc;
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::pair<std::string, Schema>> TestSchemas() {
  std::vector<std::pair<std::string, Schema>> schemas;
  schemas.emplace_back("figure2", testing_schemas::Figure2());
  schemas.emplace_back("chain-6x2", GenerateChainSchema(ChainParams{6, 2}));
  {
    Rng rng(11);
    schemas.emplace_back(
        "clustered-3x3",
        GenerateClusteredSchema(&rng, ClusteredParams{3, 3, 2, false}));
  }
  return schemas;
}

/// Builds a warm session (base + memo) over the schema and returns its
/// snapshot bytes plus the reference answers.
std::string WarmSnapshotBytes(const Schema& schema, int num_threads,
                              std::vector<bool>* answers = nullptr) {
  ReasonerOptions options;
  options.num_threads = num_threads;
  IncrementalSession session(&schema, options);
  Rng rng(303);
  auto batch = GenerateImplicationBatch(schema, &rng, 16);
  auto got = session.RunImplicationBatch(batch);
  CAR_CHECK(got.ok()) << got.status();
  if (answers != nullptr) *answers = got.value();
  auto bytes = session.Serialize();
  CAR_CHECK(bytes.ok()) << bytes.status();
  return std::move(bytes).value();
}

// --- Codec: round trip, determinism, canonical form ----------------------

TEST(SnapshotFormatTest, RoundTripIsByteExactAndCanonical) {
  for (auto& [name, schema] : TestSchemas()) {
    const std::string bytes = WarmSnapshotBytes(schema, 1);
    Result<WarmSnapshot> decoded = DecodeSnapshot(bytes);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status();
    EXPECT_EQ(EncodeSnapshot(decoded.value()), bytes)
        << name << ": encode(decode(bytes)) not byte-exact";

    Result<persist::SnapshotHeader> header = PeekSnapshotHeader(bytes);
    ASSERT_TRUE(header.ok()) << name << ": " << header.status();
    EXPECT_EQ(header->schema_fingerprint, SchemaFingerprint(schema));
    EXPECT_EQ(header->num_classes,
              static_cast<uint32_t>(schema.num_classes()));
    EXPECT_EQ(header->format_version, persist::kSnapshotFormatVersion);
    EXPECT_EQ(header->abi_fingerprint, persist::SnapshotAbiFingerprint());
  }
}

TEST(SnapshotFormatTest, SerializationIsThreadCountInvariant) {
  for (auto& [name, schema] : TestSchemas()) {
    const std::string reference = WarmSnapshotBytes(schema, 1);
    for (int threads : kThreadCounts) {
      EXPECT_EQ(WarmSnapshotBytes(schema, threads), reference)
          << name << " at " << threads
          << " threads: snapshot bytes not schedule-independent";
    }
  }
}

TEST(SnapshotFormatTest, BytesMatchPinnedDigests) {
  // The round-trip tests show only that encode(decode(bytes)) is stable.
  // These digests pin the bytes themselves: however the tableau stores
  // its cells in memory, the codec must keep writing each one as the
  // same reduced rational.
  const std::map<std::string, uint64_t> pinned = {
      {"figure2", 6370225316639442202ull},
      {"chain-6x2", 16228862781875724060ull},
      {"clustered-3x3", 9602333851803056124ull},
  };
  for (auto& [name, schema] : TestSchemas()) {
    for (int threads : {1, 8}) {
      EXPECT_EQ(Fnv1a64(WarmSnapshotBytes(schema, threads)), pinned.at(name))
          << name << " at " << threads << " threads";
    }
  }
}

TEST(SnapshotFormatTest, RestoredSessionAnswersBitIdentically) {
  for (auto& [name, schema] : TestSchemas()) {
    std::vector<bool> reference;
    const std::string bytes = WarmSnapshotBytes(schema, 1, &reference);
    for (int threads : kThreadCounts) {
      ReasonerOptions options;
      options.num_threads = threads;
      IncrementalSession restored(&schema, options);
      ASSERT_TRUE(restored.Deserialize(bytes).ok()) << name;
      Rng rng(303);
      auto batch = GenerateImplicationBatch(schema, &rng, 16);
      auto got = restored.RunImplicationBatch(batch);
      ASSERT_TRUE(got.ok()) << name << ": " << got.status();
      EXPECT_EQ(got.value(), reference)
          << name << " at " << threads << " threads";
      const IncrementalStats stats = restored.stats();
      EXPECT_EQ(stats.base_builds, 0u)
          << name << ": restored session rebuilt cold";
      EXPECT_EQ(stats.base_restores, 1u) << name;
      // The whole batch was answered while the session was warm, so
      // every canonicalized query must have hit the restored memo.
      EXPECT_EQ(stats.memo_misses, 0u)
          << name << ": restored memo did not carry the answers";
    }
  }
}

// --- Codec: totality under corruption ------------------------------------

TEST(SnapshotFormatTest, EveryTruncationFailsCleanly) {
  Schema schema = testing_schemas::Figure2();
  const std::string bytes = WarmSnapshotBytes(schema, 1);
  for (size_t length = 0; length < bytes.size(); ++length) {
    const std::string_view prefix(bytes.data(), length);
    Result<WarmSnapshot> decoded = DecodeSnapshot(prefix);
    EXPECT_FALSE(decoded.ok()) << "truncation to " << length
                               << " bytes decoded successfully";
    // The header peek must stay total on every prefix too (it is the
    // recovery scan's triage step).
    Result<persist::SnapshotHeader> header = PeekSnapshotHeader(prefix);
    if (length < persist::kSnapshotHeaderBytes) {
      EXPECT_FALSE(header.ok()) << length;
    } else {
      EXPECT_TRUE(header.ok()) << length << ": " << header.status();
    }
  }
}

TEST(SnapshotFormatTest, EveryBitFlipIsRejectedBeforeItCanChangeAnswers) {
  Schema schema = testing_schemas::Figure2();
  const std::string bytes = WarmSnapshotBytes(schema, 1);
  ReasonerOptions options;
  Rng rng(1);
  const ImplicationQuery probe = GenerateImplicationBatch(schema, &rng, 1)[0];
  // A flipped bit must be caught by one of the independent guards —
  // magic/version/ABI checks, the per-section CRC, the framing
  // invariants, or the schema-fingerprint/extent verification at
  // restore time. Whichever trips, Deserialize must fail and leave the
  // session cold; it must never install a silently altered state.
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    const int bit_step = byte < 96 ? 1 : 8;  // all 8 bits near the header
    for (int bit = 0; bit < 8; bit += bit_step) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      IncrementalSession session(&schema, options);
      Status status = session.Deserialize(flipped);
      EXPECT_FALSE(status.ok())
          << "bit " << bit << " of byte " << byte
          << " flipped and the snapshot still restored";
      // The failed restore leaves the session cold but fully usable —
      // sampled, because the probe pays a full cold base build.
      if (byte % 997 == 0) {
        EXPECT_TRUE(session.RunImplicationQuery(probe).ok());
      }
    }
  }
}

TEST(SnapshotFormatTest, VersionAndAbiSkewAreInvalidNotCrashes) {
  Schema schema = testing_schemas::Figure2();
  const std::string bytes = WarmSnapshotBytes(schema, 1);

  std::string future = bytes;
  future[8] = static_cast<char>(future[8] + 1);  // format_version LSB
  Result<WarmSnapshot> decoded = DecodeSnapshot(future);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  std::string skewed = bytes;
  skewed[12] = static_cast<char>(skewed[12] ^ 0x40);  // abi fingerprint
  decoded = DecodeSnapshot(skewed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  std::string garbage(1024, '\x5a');
  EXPECT_FALSE(DecodeSnapshot(garbage).ok());
  EXPECT_FALSE(DecodeSnapshot(std::string_view()).ok());
}

TEST(SnapshotFormatTest, FingerprintMismatchLeavesSessionColdAndCorrect) {
  Schema university = testing_schemas::Figure2();
  Schema other = GenerateChainSchema(ChainParams{6, 2});
  const std::string bytes = WarmSnapshotBytes(university, 1);

  ReasonerOptions options;
  IncrementalSession session(&other, options);
  Status status = session.Deserialize(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);

  // The rejected restore cost nothing: the session rebuilds cold and
  // matches a never-persisted session.
  Rng rng(7);
  auto batch = GenerateImplicationBatch(other, &rng, 8);
  auto got = session.RunImplicationBatch(batch);
  ASSERT_TRUE(got.ok()) << got.status();
  IncrementalSession fresh(&other, options);
  auto expected = fresh.RunImplicationBatch(batch);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(got.value(), expected.value());
  EXPECT_EQ(session.stats().base_restores, 0u);
}

// --- Store: durability protocol and recovery -----------------------------

TEST(SnapshotStoreTest, SaveLoadRoundTripAndStaleFingerprint) {
  ScratchDir dir;
  auto store = SnapshotStore::Open(dir.path());
  ASSERT_TRUE(store.ok()) << store.status();

  Schema schema = testing_schemas::Figure2();
  const std::string bytes = WarmSnapshotBytes(schema, 1);
  const uint64_t fingerprint = SchemaFingerprint(schema);

  ASSERT_TRUE(store.value()->Save("tenant-a", bytes).ok());
  Result<std::string> loaded = store.value()->Load("tenant-a", fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value(), bytes);

  // A snapshot for a different schema is superseded, not corrupt:
  // NotFound, and the file survives for the tenant's real schema.
  Result<std::string> stale =
      store.value()->Load("tenant-a", fingerprint ^ 1);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.value()->Load("tenant-a", fingerprint).ok());

  Result<std::string> missing = store.value()->Load("nobody", fingerprint);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  const persist::SnapshotStoreStats stats = store.value()->stats();
  EXPECT_EQ(stats.saves, 1u);
  EXPECT_EQ(stats.save_failures, 0u);
  EXPECT_EQ(stats.load_misses, 2u);
}

TEST(SnapshotStoreTest, TenantNamesAreSanitizedAndDistinct) {
  const std::string weird = "../../etc/passwd\n";
  const std::string file = SnapshotStore::FileName(weird);
  EXPECT_EQ(file.find('/'), std::string::npos) << file;
  EXPECT_EQ(file.find('\n'), std::string::npos) << file;
  // Sanitization must not collide distinct tenants: the name hash keeps
  // them apart even when the readable prefixes coincide.
  EXPECT_NE(SnapshotStore::FileName("a/b"), SnapshotStore::FileName("a_b"));

  ScratchDir dir;
  auto store = SnapshotStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  Schema schema = testing_schemas::Figure2();
  const std::string bytes = WarmSnapshotBytes(schema, 1);
  ASSERT_TRUE(store.value()->Save(weird, bytes).ok());
  EXPECT_TRUE(store.value()->Load(weird, SchemaFingerprint(schema)).ok());
}

TEST(SnapshotStoreTest, RecoveryScanQuarantinesGarbageAndKeepsForeigners) {
  ScratchDir dir;
  Schema schema = testing_schemas::Figure2();
  const std::string bytes = WarmSnapshotBytes(schema, 1);
  {
    auto store = SnapshotStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Save("good", bytes).ok());
  }
  // Plant the crash debris a recovery scan must triage: a leftover tmp
  // from a torn save, a garbage .snap, and an unrelated foreign file.
  auto plant = [&](const std::string& name, const std::string& content) {
    std::ofstream out(dir.path() + "/" + name, std::ios::binary);
    out << content;
  };
  plant("torn.snap.tmp", bytes.substr(0, bytes.size() / 2));
  plant("garbage.snap", "not a snapshot at all");
  plant("README.txt", "left here by the operator");

  auto reopened = SnapshotStore::Open(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->stats().quarantines, 2u);

  auto exists = [&](const std::string& name) {
    struct stat info;
    return ::stat((dir.path() + "/" + name).c_str(), &info) == 0;
  };
  EXPECT_FALSE(exists("torn.snap.tmp"));
  EXPECT_TRUE(exists("torn.snap.tmp.quarantine"));
  EXPECT_FALSE(exists("garbage.snap"));
  EXPECT_TRUE(exists("garbage.snap.quarantine"));
  EXPECT_TRUE(exists("README.txt")) << "foreign file was touched";

  // The good snapshot still loads after the scan.
  EXPECT_TRUE(
      reopened.value()->Load("good", SchemaFingerprint(schema)).ok());
}

TEST(SnapshotStoreTest, OversizedAndCorruptSnapshotsAreQuarantinedOnLoad) {
  ScratchDir dir;
  Schema schema = testing_schemas::Figure2();
  const std::string bytes = WarmSnapshotBytes(schema, 1);
  {
    auto store = SnapshotStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Save("victim", bytes).ok());
    // Corrupt the payload in place (past the header, so the recovery
    // scan's header triage does not catch it — only the CRC can).
    const std::string path =
        dir.path() + "/" + SnapshotStore::FileName("victim");
    std::string mangled = bytes;
    mangled[mangled.size() - 3] ^= 0x10;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << mangled;
  }
  auto store = SnapshotStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  // The header still parses, so the scan keeps the file...
  EXPECT_EQ(store.value()->stats().quarantines, 0u);
  // ...the full decode happens at restore time, in the store's caller
  // (the session cache), which quarantines by tenant. Here the store's
  // Load returns the raw bytes; the caller's Deserialize must reject
  // them and Quarantine must retire the file.
  auto loaded = store.value()->Load("victim", SchemaFingerprint(schema));
  ASSERT_TRUE(loaded.ok());
  ReasonerOptions options;
  IncrementalSession session(&schema, options);
  EXPECT_FALSE(session.Deserialize(loaded.value()).ok());
  EXPECT_TRUE(store.value()->Quarantine("victim", "crc mismatch").ok());
  auto gone = store.value()->Load("victim", SchemaFingerprint(schema));
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

// --- Store: fault-injection sweep over every I/O abort point -------------

TEST(SnapshotStoreTest, SaveIsAtomicUnderEveryInjectedFault) {
  Schema schema = testing_schemas::Figure2();
  const std::string old_bytes = WarmSnapshotBytes(schema, 1);
  // A second, different snapshot: same schema, larger memo.
  std::string new_bytes;
  {
    ReasonerOptions options;
    IncrementalSession session(&schema, options);
    Rng rng(303);
    auto batch = GenerateImplicationBatch(schema, &rng, 32);
    CAR_CHECK(session.RunImplicationBatch(batch).ok());
    auto serialized = session.Serialize();
    CAR_CHECK(serialized.ok());
    new_bytes = std::move(serialized).value();
  }
  ASSERT_NE(old_bytes, new_bytes);
  const uint64_t fingerprint = SchemaFingerprint(schema);

  // Learn the op count of one clean save, then sweep every abort point.
  uint64_t clean_ops = 0;
  {
    ScratchDir dir;
    ExecContext exec;
    SnapshotStoreOptions options;
    options.exec = &exec;
    auto store = SnapshotStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Save("t", new_bytes).ok());
    clean_ops = exec.io_ops();
    ASSERT_GT(clean_ops, 0u);
  }

  for (uint64_t abort_at = 0; abort_at < clean_ops; ++abort_at) {
    ScratchDir dir;
    // Seed the directory with the old snapshot, uninjected.
    {
      auto store = SnapshotStore::Open(dir.path());
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store.value()->Save("t", old_bytes).ok());
    }
    // Attempt the overwrite with a sticky fault at op `abort_at` (the
    // cleanup unlink is injected too, so torn tmps really survive).
    {
      ExecContext exec;
      exec.InjectIoFaultAfter(abort_at);
      SnapshotStoreOptions options;
      options.exec = &exec;
      auto store = SnapshotStore::Open(dir.path(), options);
      ASSERT_TRUE(store.ok()) << "abort_at=" << abort_at;
      Status saved = store.value()->Save("t", new_bytes);
      EXPECT_FALSE(saved.ok()) << "abort_at=" << abort_at;
    }
    // Crash-recover: a fresh, uninjected store must hand back a fully
    // valid snapshot — the old bytes, or the new ones if the rename
    // landed before the fault — or a clean miss. Never a torn state.
    auto recovered = SnapshotStore::Open(dir.path());
    ASSERT_TRUE(recovered.ok()) << "abort_at=" << abort_at;
    Result<std::string> loaded = recovered.value()->Load("t", fingerprint);
    if (loaded.ok()) {
      EXPECT_TRUE(loaded.value() == old_bytes ||
                  loaded.value() == new_bytes)
          << "abort_at=" << abort_at
          << ": reader observed a half-written snapshot";
      ReasonerOptions options;
      IncrementalSession session(&schema, options);
      EXPECT_TRUE(session.Deserialize(loaded.value()).ok())
          << "abort_at=" << abort_at;
    } else {
      EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
          << "abort_at=" << abort_at << ": " << loaded.status();
    }
  }
}

// --- Session cache: spill on evict, restore on open ----------------------

TEST(SessionCachePersistenceTest, SpillThenRestoreAcrossCacheGenerations) {
  ScratchDir dir;
  auto store = SnapshotStore::Open(dir.path());
  ASSERT_TRUE(store.ok());

  Schema schema = testing_schemas::Figure2();
  const std::string text = PrintSchema(schema);
  Rng rng(5);
  auto batch = GenerateImplicationBatch(schema, &rng, 12);
  std::vector<bool> reference;

  // Generation 1: cold build, answer, spill at shutdown.
  {
    serve::SessionCacheOptions options;
    options.store = store.value().get();
    serve::SessionCache cache(options);
    bool warm = false;
    auto entry = cache.Open("acme", text, &warm);
    ASSERT_TRUE(entry.ok()) << entry.status();
    EXPECT_FALSE(warm);
    EXPECT_FALSE(entry.value()->restored);
    auto got = entry.value()->session->RunImplicationBatch(batch);
    ASSERT_TRUE(got.ok());
    reference = got.value();
    cache.UpdateCost(entry.value());
    cache.SpillAll();
    EXPECT_EQ(cache.stats().spills, 1u);
  }

  // Generation 2 (a process restart): the open restores the snapshot
  // and the batch is answered from the carried-over warm state.
  {
    serve::SessionCacheOptions options;
    options.store = store.value().get();
    serve::SessionCache cache(options);
    bool warm = false;
    auto entry = cache.Open("acme", text, &warm);
    ASSERT_TRUE(entry.ok()) << entry.status();
    EXPECT_FALSE(warm) << "restore is not a warm open (no resident state)";
    EXPECT_TRUE(entry.value()->restored);
    EXPECT_EQ(cache.stats().restores, 1u);
    auto got = entry.value()->session->RunImplicationBatch(batch);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), reference);
    const IncrementalStats stats = entry.value()->session->stats();
    EXPECT_EQ(stats.base_builds, 0u);
    EXPECT_EQ(stats.base_restores, 1u);
  }
}

TEST(SessionCachePersistenceTest, EvictionSpillsAndReopenRestores) {
  ScratchDir dir;
  auto store = SnapshotStore::Open(dir.path());
  ASSERT_TRUE(store.ok());

  Schema first = testing_schemas::Figure2();
  Schema second = GenerateChainSchema(ChainParams{6, 2});

  serve::SessionCacheOptions options;
  options.max_sessions = 1;
  options.store = store.value().get();
  serve::SessionCache cache(options);

  bool warm = false;
  auto a = cache.Open("a", PrintSchema(first), &warm);
  ASSERT_TRUE(a.ok());
  Rng rng(5);
  auto batch = GenerateImplicationBatch(first, &rng, 8);
  auto reference = a.value()->session->RunImplicationBatch(batch);
  ASSERT_TRUE(reference.ok());
  cache.UpdateCost(a.value());

  // Opening the second tenant evicts the first, spilling its state.
  auto b = cache.Open("b", PrintSchema(second), &warm);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().spills, 1u);
  EXPECT_EQ(cache.Find("a"), nullptr);

  // Reopening the first restores the spilled warm state.
  auto again = cache.Open("a", PrintSchema(first), &warm);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value()->restored);
  auto got = again.value()->session->RunImplicationBatch(batch);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), reference.value());
}

TEST(SessionCachePersistenceTest, CorruptSnapshotDegradesToColdBuild) {
  ScratchDir dir;
  Schema schema = testing_schemas::Figure2();
  const std::string text = PrintSchema(schema);
  {
    auto store = SnapshotStore::Open(dir.path());
    ASSERT_TRUE(store.ok());
    // A payload-corrupted snapshot the header triage cannot catch.
    std::string mangled = WarmSnapshotBytes(schema, 1);
    mangled[mangled.size() - 3] ^= 0x10;
    const std::string path =
        dir.path() + "/" + SnapshotStore::FileName("acme");
    std::ofstream out(path, std::ios::binary);
    out << mangled;
  }
  auto store = SnapshotStore::Open(dir.path());
  ASSERT_TRUE(store.ok());
  serve::SessionCacheOptions options;
  options.store = store.value().get();
  serve::SessionCache cache(options);

  bool warm = false;
  auto entry = cache.Open("acme", text, &warm);
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_FALSE(entry.value()->restored);
  EXPECT_EQ(cache.stats().restore_failures, 1u);
  // The bad file was retired so the next generation does not retry it.
  EXPECT_EQ(store.value()->stats().quarantines, 1u);

  // The cold session answers exactly like a never-persisted one.
  Rng rng(5);
  auto batch = GenerateImplicationBatch(schema, &rng, 8);
  auto got = entry.value()->session->RunImplicationBatch(batch);
  ASSERT_TRUE(got.ok());
  ReasonerOptions plain;
  IncrementalSession fresh(&schema, plain);
  auto expected = fresh.RunImplicationBatch(batch);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(got.value(), expected.value());
}

TEST(LazySnapshotEligibilityTest, DeferredLazyBaseIsSnapshotIneligible) {
  // A lazy session whose probes were all answered over the materialized
  // subset never builds the full base expansion. It must refuse to
  // serialize — a snapshot of partial warm state claiming to be the full
  // base would poison every future restore — and become eligible only
  // once the full base actually exists.
  DenseBlowupParams params;
  params.chaff_classes = 6;
  params.core_classes = 3;
  Schema schema = GenerateDenseBlowupSchema(params);

  std::vector<ImplicationQuery> batch;
  for (ClassId c = 0; c + 1 < schema.num_classes(); ++c) {
    ImplicationQuery query;
    query.kind = ImplicationQuery::Kind::kDisjoint;
    query.class_id = c;
    query.other = c + 1;
    batch.push_back(query);
  }

  ReasonerOptions lazy_options;
  lazy_options.lazy_expansion = true;
  IncrementalSession session(&schema, lazy_options);
  EXPECT_FALSE(session.SnapshotEligible()) << "cold lazy session";
  auto answers = session.RunImplicationBatch(batch);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_GT(session.stats().lazy_hits, 0u);
  EXPECT_EQ(session.stats().base_builds, 0u)
      << "conclusive lazy probes must not force the full base build";
  EXPECT_FALSE(session.SnapshotEligible());
  auto bytes = session.Serialize();
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kFailedPrecondition);

  // The answers still match the from-scratch reference, of course.
  IncrementalSession reference(&schema, ReasonerOptions{});
  auto expected = reference.RunImplicationBatch(batch);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(expected.value(), answers.value());

  // A lazy session that DID pay the full base build (here: its probes
  // are inconclusive because the lazy engine only runs on the pruned
  // strategy) serializes fine, and a fresh lazy session restoring the
  // snapshot is immediately eligible again. A small schema keeps the
  // per-probe exhaustive fallbacks cheap.
  DenseBlowupParams small_params;
  small_params.chaff_classes = 3;
  small_params.core_classes = 2;
  Schema small = GenerateDenseBlowupSchema(small_params);
  std::vector<ImplicationQuery> small_batch(batch.begin(),
                                            batch.begin() + 4);
  ReasonerOptions forced = lazy_options;
  forced.expansion.strategy = ExpansionStrategy::kExhaustive;
  IncrementalSession solved(&small, forced);
  auto solved_answers = solved.RunImplicationBatch(small_batch);
  ASSERT_TRUE(solved_answers.ok()) << solved_answers.status();
  EXPECT_TRUE(solved.SnapshotEligible());
  auto snapshot = solved.Serialize();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  IncrementalSession restored(&small, forced);
  ASSERT_TRUE(restored.Deserialize(snapshot.value()).ok());
  EXPECT_TRUE(restored.SnapshotEligible())
      << "a restored snapshot IS the full warm base";
  auto after = restored.RunImplicationBatch(small_batch);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(solved_answers.value(), after.value());
}

TEST(LazySnapshotEligibilityTest, CacheSkipsSpillOfIneligibleSession) {
  ScratchDir dir;
  auto store = SnapshotStore::Open(dir.path());
  ASSERT_TRUE(store.ok());

  DenseBlowupParams params;
  params.chaff_classes = 8;
  params.core_classes = 3;
  Schema schema = GenerateDenseBlowupSchema(params);
  const std::string text = PrintSchema(schema);

  std::vector<ImplicationQuery> batch;
  for (ClassId c = 0; c + 1 < schema.num_classes(); ++c) {
    ImplicationQuery query;
    query.kind = ImplicationQuery::Kind::kDisjoint;
    query.class_id = c;
    query.other = c + 1;
    batch.push_back(query);
  }

  serve::SessionCacheOptions options;
  options.store = store.value().get();
  options.reasoner.lazy_expansion = true;
  serve::SessionCache cache(options);
  bool warm = false;
  auto entry = cache.Open("lazy-tenant", text, &warm);
  ASSERT_TRUE(entry.ok()) << entry.status();
  auto answers = entry.value()->session->RunImplicationBatch(batch);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_GT(entry.value()->session->stats().lazy_hits, 0u);
  ASSERT_FALSE(entry.value()->session->SnapshotEligible());

  cache.UpdateCost(entry.value());
  cache.SpillAll();
  EXPECT_EQ(cache.stats().spills, 0u)
      << "a deferred lazy base must not be spilled as full warm state";
  EXPECT_EQ(cache.stats().spill_failures, 0u)
      << "skipping an ineligible session is not a failure";
  EXPECT_GE(cache.stats().spill_ineligible, 1u);
  EXPECT_EQ(store.value()->stats().saves, 0u);
}

TEST(LazySnapshotEligibilityTest, PartialBaseAloneIsSnapshotIneligible) {
  // Lazy probes resume from the session's partial base, so a lazy session
  // that answered conclusively holds that base and no full one. The
  // partial base is not the warm state a snapshot restores: the session
  // stays ineligible, Serialize refuses, and the cache skips and counts
  // the spill.
  ScratchDir dir;
  auto store = SnapshotStore::Open(dir.path());
  ASSERT_TRUE(store.ok());

  Schema schema = GenerateChainSchema(ChainParams{8, 2});
  const std::string text = PrintSchema(schema);
  Rng rng(31);
  const std::vector<ImplicationQuery> batch =
      GenerateImplicationBatch(schema, &rng, 8);

  serve::SessionCacheOptions options;
  options.store = store.value().get();
  options.reasoner.lazy_expansion = true;
  serve::SessionCache cache(options);
  bool warm = false;
  auto entry = cache.Open("partial-tenant", text, &warm);
  ASSERT_TRUE(entry.ok()) << entry.status();
  IncrementalSession* session = entry.value()->session.get();
  auto answers = session->RunImplicationBatch(batch);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_GT(session->stats().lazy_hits, 0u);
  ASSERT_EQ(session->stats().lazy_base_builds, 1u);
  ASSERT_EQ(session->stats().base_builds, 0u);

  EXPECT_FALSE(session->SnapshotEligible());
  auto bytes = session->Serialize();
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kFailedPrecondition);

  cache.UpdateCost(entry.value());
  cache.SpillAll();
  EXPECT_EQ(cache.stats().spills, 0u);
  EXPECT_EQ(cache.stats().spill_failures, 0u);
  EXPECT_GE(cache.stats().spill_ineligible, 1u);
  EXPECT_EQ(store.value()->stats().saves, 0u);
}

}  // namespace
}  // namespace car
