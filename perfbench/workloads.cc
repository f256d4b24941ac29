#include "workloads.h"

#include <algorithm>
#include <set>
#include <utility>

#include "base/check.h"
#include "base/hashing.h"
#include "base/rng.h"
#include "base/strings.h"
#include "frontend/printer.h"
#include "reasoner/incremental.h"
#include "reasoner/query_text.h"
#include "workloads/generators.h"

namespace perfbench {

using car::Rng;
using car::Schema;
using car::StrCat;

namespace {

// Seed streams: each consumer of randomness gets its own generator, so
// changing how one part of a workload draws cannot shift another part.
constexpr uint64_t kQueryStream = 0x51;
constexpr uint64_t kShapeStream = 0x52;
constexpr uint64_t kTraceStream = 0x53;

Rng StreamRng(uint64_t seed, uint64_t stream) {
  return Rng(car::Fnv1a64(StrCat(seed, "/", stream)));
}

const std::string& RandomClass(const Schema& schema, Rng* rng) {
  return schema.ClassName(
      static_cast<car::ClassId>(rng->NextBelow(schema.num_classes())));
}

/// A random query over the schema's own classes and attributes (the
/// generated tenants have no relations). Never one of the trivial shapes
/// (min-card 0, max-card inf) the session answers without reasoning.
/// Arguments are drawn in statement order, so the line does not depend on
/// the compiler's argument evaluation order.
std::string RandomQueryLine(const Schema& schema, Rng* rng) {
  while (true) {
    const uint64_t kind = rng->NextBelow(20);
    const std::string& first = RandomClass(schema, rng);
    if (kind < 3) {
      const std::string& second = RandomClass(schema, rng);
      return StrCat("isa ", first, " ", second);
    }
    if (kind < 6) {
      const std::string& second = RandomClass(schema, rng);
      return StrCat("disjoint ", first, " ", second);
    }
    if (schema.num_attributes() == 0) continue;
    const std::string& attribute = schema.AttributeName(
        static_cast<car::AttributeId>(rng->NextBelow(schema.num_attributes())));
    const std::string term =
        rng->NextBelow(3) == 0 ? StrCat("inv:", attribute) : attribute;
    if (kind < 13) {
      const uint64_t bound = 1 + rng->NextBelow(5);
      return StrCat("min-card ", first, " ", term, " ", bound);
    }
    const uint64_t bound = rng->NextBelow(6);
    return StrCat("max-card ", first, " ", term, " ", bound);
  }
}

/// The canonical memo key of a query line (IncrementalSession's).
std::string QueryKey(const Schema& schema, const std::string& line) {
  auto query = car::ParseQueryTokens(schema, car::TokenizeQueryLine(line));
  CAR_CHECK(query.ok()) << line;
  return car::IncrementalSession::CanonicalQueryKey(query.value());
}

/// A query canonically distinct from every key in `seen`, which it joins.
std::string FreshQuery(const Schema& schema, Rng* rng,
                       std::set<std::string>* seen) {
  while (true) {
    std::string line = RandomQueryLine(schema, rng);
    if (seen->insert(QueryKey(schema, line)).second) return line;
  }
}

Variant MakeVariant(Schema schema) {
  Variant variant;
  variant.schema = std::make_unique<Schema>(std::move(schema));
  variant.text = car::PrintSchema(*variant.schema);
  return variant;
}

ServeOp QueryOp(int tenant, int variant, std::vector<std::string> queries) {
  ServeOp op;
  op.kind = ServeOp::Kind::kQuery;
  op.tenant = tenant;
  op.variant = variant;
  op.queries = std::move(queries);
  return op;
}

ServeOp OpenOp(ServeOp::Kind kind, int tenant, int variant) {
  ServeOp op;
  op.kind = kind;
  op.tenant = tenant;
  op.variant = variant;
  return op;
}

constexpr size_t kBatchSize = 8;

}  // namespace

ServeInputs MakeServeFresh(uint64_t seed, size_t timed_ops) {
  // Graded chain sizes around the EXP-R regression cells chain-12x2 and
  // chain-10x4; their lazy batch costs overlap, so the latency sample has
  // no seam between tenants.
  static constexpr struct {
    int length;
    uint64_t fanout;
  } kChains[] = {{8, 3},  {9, 3},  {10, 2}, {10, 4},
                 {11, 3}, {12, 2}, {12, 3}, {13, 2}};
  ServeInputs inputs;
  for (const auto& chain : kChains) {
    Tenant tenant;
    tenant.name = StrCat("fresh-chain-", chain.length, "x", chain.fanout);
    tenant.variants.push_back(
        MakeVariant(car::GenerateChainSchema({chain.length, chain.fanout})));
    inputs.tenants.push_back(std::move(tenant));
  }
  const int num_tenants = static_cast<int>(inputs.tenants.size());

  Rng rng = StreamRng(seed, kQueryStream);
  std::vector<std::set<std::string>> seen(num_tenants);
  auto fresh_batch = [&](int tenant) {
    const Schema& schema = *inputs.tenants[tenant].variants[0].schema;
    std::vector<std::string> batch;
    for (size_t i = 0; i < kBatchSize; ++i) {
      batch.push_back(FreshQuery(schema, &rng, &seen[tenant]));
    }
    return QueryOp(tenant, 0, std::move(batch));
  };
  for (int tenant = 0; tenant < num_tenants; ++tenant) {
    inputs.setup.push_back(OpenOp(ServeOp::Kind::kOpen, tenant, 0));
    inputs.setup.push_back(fresh_batch(tenant));
  }
  // Round robin: every tenant gets the same share of the timed batches
  // whatever the seed.
  for (size_t i = 0; i < timed_ops; ++i) {
    inputs.timed.push_back(fresh_batch(static_cast<int>(i) % num_tenants));
  }
  return inputs;
}

ServeInputs MakeServeChurn(uint64_t seed, size_t timed_ops) {
  constexpr int kTenants = 24;
  constexpr uint64_t kSlots = 8;

  ServeInputs inputs;
  inputs.max_sessions = kSlots;
  inputs.persistent = true;

  // Tenant t has popularity rank t. Families rotate hierarchy / clustered /
  // small chain with sizes graded along the rank and drawn from a fixed
  // stream, so every seed serves the same schemas and the seed moves only
  // the queries. The B variant of each tenant is a structurally different
  // schema, so a mutation really rebuilds.
  Rng shapes(kShapeStream);
  for (int t = 0; t < kTenants; ++t) {
    const int grade = t / 3;  // 0..7 within each family.
    static constexpr const char* kFamilies[] = {"hierarchy", "clustered",
                                                "chain"};
    Tenant tenant;
    tenant.name = StrCat("churn-", kFamilies[t % 3], "-", t);
    for (int v = 0; v < 2; ++v) {
      Schema schema;
      switch (t % 3) {
        case 0:
          schema = car::GenerateHierarchy(
              &shapes, {8 + grade + 2 * v, 1 + grade % 2, 3});
          break;
        case 1:
          schema = car::GenerateClusteredSchema(
              &shapes, {2 + grade % 2 + v, 2 + grade / 4, 2, false});
          break;
        default:
          schema = car::GenerateChainSchema(
              {4 + grade / 2 + v, 2 + static_cast<uint64_t>(grade % 2)});
          break;
      }
      tenant.variants.push_back(MakeVariant(std::move(schema)));
    }
    inputs.tenants.push_back(std::move(tenant));
  }

  // The visit schedule (tenants, open or mutate, burst lengths) comes from
  // a fixed stream, so every seed has the same mix of cold and warm visits
  // and the request-class shares do not move with the seed.
  Rng schedule(kTraceStream);
  Rng queries = StreamRng(seed, kQueryStream);
  Rng order = StreamRng(seed, kTraceStream);

  // Skewed popularity: rank r is visited with weight 1 / (r + 1), so a hot
  // set stays resident and the tail keeps getting evicted and rebuilt.
  std::vector<uint64_t> cumulative;
  uint64_t total_weight = 0;
  for (int r = 0; r < kTenants; ++r) {
    total_weight += 5354228880 / (r + 1);  // lcm(1..24): exact weights.
    cumulative.push_back(total_weight);
  }
  auto pick_tenant = [&] {
    const uint64_t x = schedule.NextBelow(total_weight);
    return static_cast<int>(
        std::upper_bound(cumulative.begin(), cumulative.end(), x) -
        cumulative.begin());
  };

  // The client mirrors the cache's LRU order. It only mutates a tenant it
  // knows to be resident (a mutation of an evicted tenant is an error by
  // protocol), and it knows which opens rebuild cold.
  std::vector<int> lru;  // Most recent last.
  auto touch = [&](int tenant) {
    auto it = std::find(lru.begin(), lru.end(), tenant);
    if (it != lru.end()) lru.erase(it);
    lru.push_back(tenant);
    if (lru.size() > kSlots) lru.erase(lru.begin());
  };
  auto resident = [&](int tenant) {
    return std::find(lru.begin(), lru.end(), tenant) != lru.end();
  };

  // Each session gets a small pool of seeded queries when it is built
  // cold; every batch of the session asks the whole pool in a seeded
  // order. So the first batch after a cold open or a mutation probes, the
  // rest are answered from the memo, and the probing batches draw fresh
  // queries, so their cost does not hinge on a few pools.
  std::vector<int> current(kTenants, 0);
  std::vector<std::vector<std::string>> pool(kTenants);
  auto rebuild_pool = [&](int tenant) {
    const Schema& schema =
        *inputs.tenants[tenant].variants[current[tenant]].schema;
    std::set<std::string> seen;
    pool[tenant].clear();
    for (size_t i = 0; i < kBatchSize; ++i) {
      pool[tenant].push_back(FreshQuery(schema, &queries, &seen));
    }
  };
  auto pool_batch = [&](int tenant) {
    std::vector<std::string> batch = pool[tenant];
    for (size_t i = batch.size() - 1; i > 0; --i) {
      std::swap(batch[i], batch[order.NextBelow(i + 1)]);
    }
    return QueryOp(tenant, current[tenant], std::move(batch));
  };

  for (int tenant = 0; tenant < static_cast<int>(kSlots); ++tenant) {
    inputs.setup.push_back(OpenOp(ServeOp::Kind::kOpen, tenant, 0));
    rebuild_pool(tenant);
    inputs.setup.push_back(pool_batch(tenant));
    touch(tenant);
  }
  while (inputs.timed.size() < timed_ops) {
    const int tenant = pick_tenant();
    if (resident(tenant) && schedule.NextBelow(4) == 0) {
      current[tenant] = 1 - current[tenant];
      inputs.timed.push_back(
          OpenOp(ServeOp::Kind::kMutate, tenant, current[tenant]));
      rebuild_pool(tenant);
    } else {
      inputs.timed.push_back(
          OpenOp(ServeOp::Kind::kOpen, tenant, current[tenant]));
      if (!resident(tenant)) rebuild_pool(tenant);
    }
    touch(tenant);
    const int burst = schedule.NextInt(3, 5);
    for (int b = 0; b < burst && inputs.timed.size() < timed_ops; ++b) {
      inputs.timed.push_back(pool_batch(tenant));
    }
  }
  return inputs;
}

CorpusInputs MakeCorpus(uint64_t seed, size_t timed_ops) {
  // Sizes are graded along the family index and the same for every seed;
  // the seed draws the generators' internal choices (hierarchy shapes,
  // cluster cardinalities, the random schemas) and the check order. The
  // deterministic chain family is graded in small steps up to the largest
  // checks, so p95 lands inside one family's smooth spread; the other
  // families stay below it. Dense cells stay far inside eager's compound
  // cap, and random schemas keep to five classes, where the expansion and
  // so the check stay small: no schema dominates a pass.
  constexpr int kPerFamily = 16;
  CorpusInputs inputs;
  Rng shapes = StreamRng(seed, kShapeStream);
  auto add = [&](std::string family, std::string label, const Schema& schema,
                 DocumentedAnswer documented) {
    CorpusEntry entry;
    entry.family = std::move(family);
    entry.label = std::move(label);
    entry.text = car::PrintSchema(schema);
    entry.documented = documented;
    inputs.entries.push_back(std::move(entry));
  };
  for (int i = 0; i < kPerFamily; ++i) {
    {
      const int clusters = 2 + i % 2;
      const int size = i < kPerFamily / 2 ? 4 : 5;
      add("clustered_dense", StrCat("clustered_dense-", clusters, "x", size),
          car::GenerateClusteredSchema(&shapes, {clusters, size, 2, true}),
          DocumentedAnswer::kNone);
    }
    {
      const int chaff = 9 + i * 3 / kPerFamily;
      const int core = 3 + i % 2;
      add("dense_blowup", StrCat("dense_blowup-", chaff, "+", core),
          car::GenerateDenseBlowupSchema({chaff, core, 2}),
          DocumentedAnswer::kAllSatisfiable);
    }
    {
      const int chaff = 8 + i * 3 / kPerFamily;
      const int core = 2 + i % 3;
      add("dense_unsat", StrCat("dense_unsat-", chaff, "+", core),
          car::GenerateDenseUnsatSchema({chaff, core, 2}),
          DocumentedAnswer::kCoreUnsatisfiable);
    }
    {
      const int length = 18 + i;
      const uint64_t fanout = 2 + static_cast<uint64_t>(i % 2);
      add("chain", StrCat("chain-", length, "x", fanout),
          car::GenerateChainSchema({length, fanout}),
          DocumentedAnswer::kAllSatisfiable);
    }
    {
      const int classes = 16 + 2 * i;
      const int trees = 1 + i % 3;
      add("hierarchy", StrCat("hierarchy-", classes),
          car::GenerateHierarchy(&shapes, {classes, trees, 3}),
          DocumentedAnswer::kNone);
    }
    {
      car::GeneralSchemaParams params;
      params.num_classes = 5;
      params.num_attributes = 2;
      params.max_cardinality = 2;
      add("random", "random-5", car::RandomGeneralSchema(&shapes, params),
          DocumentedAnswer::kNone);
    }
  }

  // Whole passes only, so every schema is checked equally often.
  Rng order = StreamRng(seed, kTraceStream);
  const int size = static_cast<int>(inputs.entries.size());
  std::vector<int> pass(size);
  while (inputs.order.size() < timed_ops) {
    for (int i = 0; i < size; ++i) pass[i] = i;
    for (int i = size - 1; i > 0; --i) {
      std::swap(pass[i], pass[order.NextBelow(i + 1)]);
    }
    inputs.order.insert(inputs.order.end(), pass.begin(), pass.end());
  }
  return inputs;
}

namespace {

/// Folds length-prefixed fields, so "ab","c" and "a","bc" differ.
class InputHasher {
 public:
  void Add(std::string_view field) {
    hash_ = car::Fnv1a64(StrCat(field.size(), ":"), hash_);
    hash_ = car::Fnv1a64(field, hash_);
  }
  void Add(int64_t value) { Add(StrCat(value)); }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = car::Fnv1a64("");
};

void HashOp(const ServeOp& op, InputHasher* hasher) {
  hasher->Add(static_cast<int64_t>(op.kind));
  hasher->Add(op.tenant);
  hasher->Add(op.variant);
  for (const std::string& line : op.queries) hasher->Add(line);
}

}  // namespace

uint64_t HashInputs(const ServeInputs& inputs) {
  InputHasher hasher;
  hasher.Add(static_cast<int64_t>(inputs.max_sessions));
  hasher.Add(inputs.persistent ? 1 : 0);
  for (const Tenant& tenant : inputs.tenants) {
    hasher.Add(tenant.name);
    for (const Variant& variant : tenant.variants) hasher.Add(variant.text);
  }
  for (const ServeOp& op : inputs.setup) HashOp(op, &hasher);
  for (const ServeOp& op : inputs.timed) HashOp(op, &hasher);
  return hasher.hash();
}

uint64_t HashInputs(const CorpusInputs& inputs) {
  InputHasher hasher;
  for (const CorpusEntry& entry : inputs.entries) {
    hasher.Add(entry.label);
    hasher.Add(entry.text);
    hasher.Add(static_cast<int64_t>(entry.documented));
  }
  for (int index : inputs.order) hasher.Add(index);
  return hasher.hash();
}

}  // namespace perfbench
