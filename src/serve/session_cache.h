#ifndef CAR_SERVE_SESSION_CACHE_H_
#define CAR_SERVE_SESSION_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "base/result.h"
#include "model/schema.h"
#include "persist/snapshot_store.h"
#include "reasoner/incremental.h"
#include "reasoner/reasoner.h"

namespace car {
namespace serve {

struct SessionCacheOptions {
  /// Upper bound on resident sessions; least-recently-used tenants are
  /// evicted past it. At least 1 — the session being served is never
  /// evicted under itself.
  uint64_t max_sessions = 64;
  /// Soft ceiling on the summed EstimatedMemoryBytes of all resident
  /// sessions. 0 = unlimited.
  uint64_t memory_budget_bytes = 512ull << 20;
  /// Options every session is built with (threads, prefilter, solver
  /// knobs). The per-request ExecContext is swapped in separately via
  /// IncrementalSession::set_exec.
  ReasonerOptions reasoner;
  /// Durable warm-state store (borrowed, may be null = no persistence).
  /// With a store, Open tries to restore a snapshot into a cold session,
  /// Evict spills victims before dropping them, and the server calls
  /// Spill after each batch. Persistence never changes answers: every
  /// restore is fingerprint-verified and any failure degrades to the
  /// cold build.
  persist::SnapshotStore* store = nullptr;
};

struct SessionCacheStats {
  uint64_t opens = 0;
  /// Opens/mutates whose canonical fingerprint matched the resident
  /// session — the warm state (base solve + memo) survived.
  uint64_t warm_opens = 0;
  /// Opens/mutates that replaced a resident session with different text.
  uint64_t replacements = 0;
  uint64_t evictions = 0;
  uint64_t lookup_hits = 0;
  uint64_t lookup_misses = 0;
  /// Cold opens that restored warm state from a persisted snapshot.
  uint64_t restores = 0;
  /// Restore attempts that failed (corrupt/stale payload, I/O error);
  /// each degrades to the cold build it would have been anyway.
  uint64_t restore_failures = 0;
  /// Successful snapshot saves (after batches, on eviction, at
  /// shutdown). Clean sessions are not re-spilled.
  uint64_t spills = 0;
  uint64_t spill_failures = 0;
  /// Spill points skipped because the session was snapshot-ineligible
  /// (lazy session with the full base build still deferred). Not a
  /// failure: the entry stays dirty and is re-considered later.
  uint64_t spill_ineligible = 0;
};

/// One resident tenant: the parsed schema (owned, pointer-stable — the
/// session borrows it) and the warm IncrementalSession answering for it.
struct SessionEntry {
  std::string name;
  uint64_t fingerprint = 0;
  std::unique_ptr<Schema> schema;
  std::unique_ptr<IncrementalSession> session;
  /// Size of the canonical schema text the fingerprint was computed from;
  /// a fixed part of cost_bytes so cost never shrinks across refreshes.
  uint64_t canonical_bytes = 0;
  /// EstimatedMemoryBytes + canonical_bytes, refreshed after every batch
  /// (the memo and tableau grow with use).
  uint64_t cost_bytes = 0;
  /// LRU tick of the last touch.
  uint64_t last_used = 0;
  /// Whether this entry's warm state came from a persisted snapshot.
  bool restored = false;
  /// cost_bytes at the last successful spill/restore; the entry is dirty
  /// (worth spilling) iff cost_bytes differs. Sound as a cleanliness
  /// proxy because every persisted-state change (new memo entry, new
  /// base) moves the deterministic cost estimate.
  uint64_t persisted_cost = 0;
};

/// Fingerprint-keyed cache of warm IncrementalSessions, one per tenant
/// name, with LRU + memory-budget eviction. Not thread-safe; the server
/// serializes access (see serve/server.h).
///
/// Warm/cold semantics: Open parses the text, takes its SchemaFingerprint
/// (the key snapshot headers carry too), and keeps the resident session
/// when the fingerprint is unchanged. Anything else builds a cold session
/// over a new schema: a session's borrowed schema never changes under it.
/// An evicted tenant is simply gone: the next Open rebuilds it cold and
/// answers identically (the warm state is a pure cache, never semantics).
class SessionCache {
 public:
  explicit SessionCache(SessionCacheOptions options);

  /// Creates or refreshes the tenant. `*warm` reports whether the
  /// resident warm session survived. Parse errors leave the cache
  /// untouched (a resident older schema keeps serving).
  Result<SessionEntry*> Open(const std::string& name,
                             std::string_view schema_text, bool* warm);

  /// Looks up a resident tenant and bumps its LRU slot; null on miss.
  SessionEntry* Find(const std::string& name);

  /// Re-estimates the entry's cost after a batch mutated its warm state,
  /// then enforces the memory budget against the other tenants.
  void UpdateCost(SessionEntry* entry);

  /// Persists the entry's warm state to the configured store if it is
  /// dirty. No-op without a store, for a clean entry, or for a session
  /// that never built its base (there is no warm state worth a solve at
  /// spill time). Failures are counted, never propagated: a failed
  /// spill only costs the next open its warm start.
  void Spill(SessionEntry* entry);

  /// Spills every dirty resident entry (shutdown path).
  void SpillAll();

  /// Drops the tenant; false if it was not resident. The persisted
  /// snapshot (if any) is left on disk: it is a pure cache, and a
  /// re-open restoring the pre-close state answers identically.
  bool Close(const std::string& name);

  uint64_t resident_sessions() const { return entries_.size(); }
  /// Summed cost of all resident sessions.
  uint64_t resident_bytes() const;
  const SessionCacheStats& stats() const { return stats_; }

 private:
  /// Evicts LRU entries while over max_sessions or the memory budget,
  /// never evicting `keep`.
  void Evict(const SessionEntry* keep);

  SessionCacheOptions options_;
  std::unordered_map<std::string, std::unique_ptr<SessionEntry>> entries_;
  SessionCacheStats stats_;
  uint64_t tick_ = 0;
};

}  // namespace serve
}  // namespace car

#endif  // CAR_SERVE_SESSION_CACHE_H_
