#include "serve/session_cache.h"

#include <utility>

#include "frontend/parser.h"
#include "frontend/printer.h"

namespace car {
namespace serve {

SessionCache::SessionCache(SessionCacheOptions options)
    : options_(std::move(options)) {
  if (options_.max_sessions == 0) options_.max_sessions = 1;
}

Result<SessionEntry*> SessionCache::Open(const std::string& name,
                                         std::string_view schema_text,
                                         bool* warm) {
  CAR_ASSIGN_OR_RETURN(Schema parsed, ParseSchema(schema_text));
  std::string canonical;
  const uint64_t fingerprint = SchemaFingerprint(parsed, &canonical);
  ++stats_.opens;

  auto it = entries_.find(name);
  if (it != entries_.end() && it->second->fingerprint == fingerprint) {
    // Same canonical form: the warm session keeps serving. The parsed
    // copy is discarded — the resident schema is semantically identical.
    SessionEntry* entry = it->second.get();
    entry->last_used = ++tick_;
    ++stats_.warm_opens;
    *warm = true;
    return entry;
  }

  if (it != entries_.end()) ++stats_.replacements;

  auto entry = std::make_unique<SessionEntry>();
  entry->name = name;
  entry->fingerprint = fingerprint;
  entry->schema = std::make_unique<Schema>(std::move(parsed));
  entry->session = std::make_unique<IncrementalSession>(entry->schema.get(),
                                                        options_.reasoner);
  entry->canonical_bytes = canonical.size();
  if (options_.store != nullptr) {
    // Try to restore persisted warm state into the cold session. Every
    // failure mode degrades to the cold build: kNotFound is the normal
    // miss, other load errors are counted, and a payload that decodes
    // but fails to restore is quarantined for inspection.
    auto bytes = options_.store->Load(name, fingerprint);
    if (bytes.ok()) {
      Status restored = entry->session->Deserialize(bytes.value());
      if (restored.ok()) {
        entry->restored = true;
        ++stats_.restores;
      } else {
        ++stats_.restore_failures;
        (void)options_.store->Quarantine(name, restored.message());
      }
    } else if (bytes.status().code() != StatusCode::kNotFound) {
      ++stats_.restore_failures;
    }
  }
  entry->cost_bytes =
      entry->session->EstimatedMemoryBytes() + entry->canonical_bytes;
  if (entry->restored) entry->persisted_cost = entry->cost_bytes;
  entry->last_used = ++tick_;

  SessionEntry* result = entry.get();
  entries_[name] = std::move(entry);
  Evict(result);
  *warm = false;
  return result;
}

SessionEntry* SessionCache::Find(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    ++stats_.lookup_misses;
    return nullptr;
  }
  ++stats_.lookup_hits;
  it->second->last_used = ++tick_;
  return it->second.get();
}

void SessionCache::UpdateCost(SessionEntry* entry) {
  entry->cost_bytes =
      entry->session->EstimatedMemoryBytes() + entry->canonical_bytes;
  Evict(entry);
}

void SessionCache::Spill(SessionEntry* entry) {
  if (options_.store == nullptr || entry == nullptr) return;
  if (entry->cost_bytes == entry->persisted_cost) return;  // Clean.
  const IncrementalStats session = entry->session->stats();
  if (!entry->session->SnapshotEligible()) {
    // Lazy session whose full base build is still deferred (its queries
    // were answered over a partial materialization, or none ran yet):
    // Serialize would refuse, and forcing the eager build just to spill
    // defeats the point of the lazy session. Skip without counting a
    // failure — the entry stays dirty and is re-considered at the next
    // spill point. Checked before the never-queried guard because a
    // deferred lazy session also has base_builds == 0.
    ++stats_.spill_ineligible;
    return;
  }
  if (session.base_builds + session.base_restores == 0) {
    // Opened but never queried: Serialize would have to pay the base
    // solve just to persist it. Leave it cold.
    return;
  }
  auto bytes = entry->session->Serialize();
  if (bytes.ok()) {
    Status saved = options_.store->Save(entry->name, bytes.value());
    if (saved.ok()) {
      entry->persisted_cost = entry->cost_bytes;
      ++stats_.spills;
      return;
    }
  }
  ++stats_.spill_failures;
}

void SessionCache::SpillAll() {
  for (auto& [name, entry] : entries_) Spill(entry.get());
}

bool SessionCache::Close(const std::string& name) {
  return entries_.erase(name) > 0;
}

uint64_t SessionCache::resident_bytes() const {
  uint64_t total = 0;
  for (const auto& [name, entry] : entries_) total += entry->cost_bytes;
  return total;
}

void SessionCache::Evict(const SessionEntry* keep) {
  auto over_budget = [this] {
    if (entries_.size() > options_.max_sessions) return true;
    return options_.memory_budget_bytes != 0 &&
           resident_bytes() > options_.memory_budget_bytes;
  };
  while (entries_.size() > 1 && over_budget()) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.get() == keep) continue;
      if (victim == entries_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;  // Only `keep` is resident.
    // An evicted tenant's warm state is only "gone" in memory: spilling
    // it first turns the next Open into a restore instead of a rebuild.
    Spill(victim->second.get());
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

}  // namespace serve
}  // namespace car
