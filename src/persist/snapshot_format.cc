#include "persist/snapshot_format.h"

#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "base/byte_codec.h"
#include "base/hashing.h"
#include "base/strings.h"
#include "math/rational.h"

namespace car {
namespace persist {

namespace {

// Section tags. Append-only: never renumber, never reuse.
enum class SectionTag : uint8_t {
  kExpansion = 1,
  kPsi = 2,
  kMemo = 3,
};

/// Ids, counts and column indexes are stored as u32 but live as int in
/// memory; this cap keeps every accepted value safely castable.
constexpr uint32_t kMaxIndex = 1u << 30;
/// Compound-relation arity cap (a format constraint, far above any real
/// relation's role count).
constexpr uint32_t kMaxArity = 1u << 16;

/// The snapshot's composite fields over the shared byte primitives.
class Writer : public ByteWriter {
 public:
  void PutBigInt(const BigInt& value) {
    // Sign byte: 0 = zero, 1 = positive, 2 = negative.
    PutU8(value.sign() == 0 ? 0 : (value.sign() > 0 ? 1 : 2));
    const LimbVector& limbs = value.limbs();
    PutU32(static_cast<uint32_t>(limbs.size()));
    for (size_t i = 0; i < limbs.size(); ++i) PutU32(limbs[i]);
  }
  void PutMagnitude(const BigInt& value) {
    // Sign-free form for denominators (always positive).
    const LimbVector& limbs = value.limbs();
    PutU32(static_cast<uint32_t>(limbs.size()));
    for (size_t i = 0; i < limbs.size(); ++i) PutU32(limbs[i]);
  }
  void PutRational(const Rational& value) {
    // Tableau cells are written one by one as reduced rationals, whatever
    // row denominator they share in memory, so the bytes depend only on
    // the values; the decoder rebuilds each row over the least common
    // denominator of its cells.
    PutBigInt(value.numerator());
    PutMagnitude(value.denominator());
  }
  void PutCardinality(const Cardinality& value) {
    PutU64(value.min());
    PutU64(value.max());
  }
};

/// Total reader of the snapshot's composite fields: every count is
/// bounded by the remaining bytes before any allocation, and every index
/// by the index cap.
class Reader : public ByteReader {
 public:
  using ByteReader::ByteReader;

  /// A u32 whose value must fit the int-typed indexes of the in-memory
  /// structures.
  Status ReadIndex(uint32_t* value, const char* what) {
    CAR_RETURN_IF_ERROR(ReadU32(value));
    if (*value > kMaxIndex) {
      return ParseError(StrCat(what, " ", *value, " exceeds index cap"));
    }
    return Status::Ok();
  }
  /// A u32 element count whose elements occupy at least
  /// `min_element_bytes` each; bounded by the remaining payload before
  /// the caller allocates.
  Status ReadCount(uint32_t* count, size_t min_element_bytes,
                   const char* what) {
    CAR_RETURN_IF_ERROR(ReadU32(count));
    if (static_cast<uint64_t>(*count) * min_element_bytes > remaining()) {
      return ParseError(StrCat(what, " count ", *count, " exceeds ",
                               remaining(), " remaining bytes"));
    }
    return Status::Ok();
  }
  Status ReadBigInt(BigInt* value) {
    uint8_t sign_byte = 0;
    CAR_RETURN_IF_ERROR(ReadU8(&sign_byte));
    if (sign_byte > 2) {
      return ParseError(
          StrCat("bad bigint sign byte ", static_cast<int>(sign_byte)));
    }
    const int sign = sign_byte == 0 ? 0 : (sign_byte == 1 ? 1 : -1);
    uint32_t count = 0;
    CAR_RETURN_IF_ERROR(ReadCount(&count, 4, "bigint limb"));
    std::vector<uint32_t> limbs(count);
    for (uint32_t i = 0; i < count; ++i) {
      CAR_RETURN_IF_ERROR(ReadU32(&limbs[i]));
    }
    CAR_ASSIGN_OR_RETURN(*value,
                         BigInt::FromParts(sign, limbs.data(), limbs.size()));
    return Status::Ok();
  }
  Status ReadMagnitude(BigInt* value) {
    uint32_t count = 0;
    CAR_RETURN_IF_ERROR(ReadCount(&count, 4, "bigint limb"));
    std::vector<uint32_t> limbs(count);
    for (uint32_t i = 0; i < count; ++i) {
      CAR_RETURN_IF_ERROR(ReadU32(&limbs[i]));
    }
    CAR_ASSIGN_OR_RETURN(
        *value,
        BigInt::FromParts(count == 0 ? 0 : 1, limbs.data(), limbs.size()));
    return Status::Ok();
  }
  Status ReadRational(Rational* value) {
    BigInt numerator;
    BigInt denominator;
    CAR_RETURN_IF_ERROR(ReadBigInt(&numerator));
    CAR_RETURN_IF_ERROR(ReadMagnitude(&denominator));
    if (!denominator.is_positive()) {
      return ParseError("cell denominator not positive");
    }
    // Canonical-form requirement: the stored fraction must already be in
    // lowest terms, else re-encoding would differ from the input.
    if (BigInt::Gcd(numerator, denominator) != BigInt(1)) {
      return ParseError("cell fraction not in lowest terms");
    }
    *value = Rational(std::move(numerator), std::move(denominator));
    return Status::Ok();
  }
  Status ReadCardinality(Cardinality* value) {
    uint64_t min = 0;
    uint64_t max = 0;
    CAR_RETURN_IF_ERROR(ReadU64(&min));
    CAR_RETURN_IF_ERROR(ReadU64(&max));
    // Natt/Nrel intervals may be empty (min > max); IntersectUnchecked is
    // the only constructor that admits them.
    *value = Cardinality::IntersectUnchecked(Cardinality::AtLeast(min),
                                             Cardinality::AtMost(max));
    return Status::Ok();
  }
};

// --- Section payload codecs -------------------------------------------------

void EncodeExpansionPayload(const Expansion& expansion, Writer* writer) {
  writer->PutU32(static_cast<uint32_t>(expansion.compound_classes.size()));
  for (const CompoundClass& compound : expansion.compound_classes) {
    writer->PutU32(static_cast<uint32_t>(compound.members().size()));
    for (ClassId member : compound.members()) {
      writer->PutU32(static_cast<uint32_t>(member));
    }
  }
  writer->PutU32(static_cast<uint32_t>(expansion.compound_attributes.size()));
  for (const CompoundAttribute& ca : expansion.compound_attributes) {
    writer->PutU32(static_cast<uint32_t>(ca.attribute));
    writer->PutU32(static_cast<uint32_t>(ca.from));
    writer->PutU32(static_cast<uint32_t>(ca.to));
  }
  writer->PutU32(static_cast<uint32_t>(expansion.compound_relations.size()));
  for (const CompoundRelation& cr : expansion.compound_relations) {
    writer->PutU32(static_cast<uint32_t>(cr.relation));
    writer->PutU32(static_cast<uint32_t>(cr.components.size()));
    for (int component : cr.components) {
      writer->PutU32(static_cast<uint32_t>(component));
    }
  }
  writer->PutU32(static_cast<uint32_t>(expansion.natt.size()));
  for (const auto& [key, cardinality] : expansion.natt) {
    writer->PutU32(static_cast<uint32_t>(key.first.attribute));
    writer->PutBool(key.first.inverse);
    writer->PutU32(static_cast<uint32_t>(key.second));
    writer->PutCardinality(cardinality);
  }
  writer->PutU32(static_cast<uint32_t>(expansion.nrel.size()));
  for (const auto& [key, cardinality] : expansion.nrel) {
    writer->PutU32(static_cast<uint32_t>(std::get<0>(key)));
    writer->PutU32(static_cast<uint32_t>(std::get<1>(key)));
    writer->PutU32(static_cast<uint32_t>(std::get<2>(key)));
    writer->PutCardinality(cardinality);
  }
  writer->PutU64(expansion.subsets_visited);
}

Status DecodeExpansionPayload(std::string_view payload,
                              const SnapshotHeader& header,
                              Expansion* expansion) {
  Reader reader(payload);
  uint32_t cc_count = 0;
  CAR_RETURN_IF_ERROR(reader.ReadCount(&cc_count, 4, "compound class"));
  if (cc_count == 0) {
    return ParseError("expansion has no compound classes");
  }
  expansion->compound_classes.reserve(cc_count);
  for (uint32_t i = 0; i < cc_count; ++i) {
    uint32_t member_count = 0;
    CAR_RETURN_IF_ERROR(
        reader.ReadCount(&member_count, 4, "compound member"));
    std::vector<ClassId> members;
    members.reserve(member_count);
    for (uint32_t k = 0; k < member_count; ++k) {
      uint32_t member = 0;
      CAR_RETURN_IF_ERROR(reader.ReadIndex(&member, "class id"));
      if (member >= header.num_classes) {
        return ParseError(StrCat("class id ", member, " out of range"));
      }
      if (!members.empty() &&
          members.back() >= static_cast<ClassId>(member)) {
        return ParseError("compound members not strictly ascending");
      }
      members.push_back(static_cast<ClassId>(member));
    }
    CompoundClass compound(std::move(members));
    if (i == 0 && !compound.empty()) {
      return ParseError("compound class 0 is not the empty compound");
    }
    if (!expansion->compound_classes.empty() &&
        !(expansion->compound_classes.back() < compound)) {
      return ParseError("compound classes not strictly ascending");
    }
    expansion->compound_classes.push_back(std::move(compound));
  }
  uint32_t ca_count = 0;
  CAR_RETURN_IF_ERROR(reader.ReadCount(&ca_count, 12, "compound attribute"));
  expansion->compound_attributes.reserve(ca_count);
  for (uint32_t i = 0; i < ca_count; ++i) {
    uint32_t attribute = 0;
    uint32_t from = 0;
    uint32_t to = 0;
    CAR_RETURN_IF_ERROR(reader.ReadIndex(&attribute, "attribute id"));
    CAR_RETURN_IF_ERROR(reader.ReadIndex(&from, "compound index"));
    CAR_RETURN_IF_ERROR(reader.ReadIndex(&to, "compound index"));
    if (attribute >= header.num_attributes) {
      return ParseError(StrCat("attribute id ", attribute, " out of range"));
    }
    if (from >= cc_count || to >= cc_count) {
      return ParseError("compound-attribute endpoint out of range");
    }
    expansion->compound_attributes.push_back(
        {static_cast<AttributeId>(attribute), static_cast<int>(from),
         static_cast<int>(to)});
  }
  uint32_t cr_count = 0;
  CAR_RETURN_IF_ERROR(reader.ReadCount(&cr_count, 8, "compound relation"));
  expansion->compound_relations.reserve(cr_count);
  for (uint32_t i = 0; i < cr_count; ++i) {
    uint32_t relation = 0;
    uint32_t arity = 0;
    CAR_RETURN_IF_ERROR(reader.ReadIndex(&relation, "relation id"));
    if (relation >= header.num_relations) {
      return ParseError(StrCat("relation id ", relation, " out of range"));
    }
    CAR_RETURN_IF_ERROR(reader.ReadCount(&arity, 4, "relation component"));
    if (arity == 0 || arity > kMaxArity) {
      return ParseError(StrCat("bad compound-relation arity ", arity));
    }
    CompoundRelation cr;
    cr.relation = static_cast<RelationId>(relation);
    cr.components.reserve(arity);
    for (uint32_t k = 0; k < arity; ++k) {
      uint32_t component = 0;
      CAR_RETURN_IF_ERROR(reader.ReadIndex(&component, "compound index"));
      if (component >= cc_count) {
        return ParseError("compound-relation component out of range");
      }
      cr.components.push_back(static_cast<int>(component));
    }
    expansion->compound_relations.push_back(std::move(cr));
  }
  uint32_t natt_count = 0;
  CAR_RETURN_IF_ERROR(reader.ReadCount(&natt_count, 25, "natt entry"));
  for (uint32_t i = 0; i < natt_count; ++i) {
    uint32_t attribute = 0;
    bool inverse = false;
    uint32_t compound = 0;
    Cardinality cardinality;
    CAR_RETURN_IF_ERROR(reader.ReadIndex(&attribute, "attribute id"));
    CAR_RETURN_IF_ERROR(reader.ReadBool(&inverse));
    CAR_RETURN_IF_ERROR(reader.ReadIndex(&compound, "compound index"));
    CAR_RETURN_IF_ERROR(reader.ReadCardinality(&cardinality));
    if (attribute >= header.num_attributes) {
      return ParseError(StrCat("attribute id ", attribute, " out of range"));
    }
    if (compound >= cc_count) {
      return ParseError("natt compound index out of range");
    }
    std::pair<AttributeTerm, int> key(
        AttributeTerm{static_cast<AttributeId>(attribute), inverse},
        static_cast<int>(compound));
    if (!expansion->natt.empty() && !(expansion->natt.rbegin()->first < key)) {
      return ParseError("natt keys not strictly ascending");
    }
    expansion->natt.emplace_hint(expansion->natt.end(), key, cardinality);
  }
  uint32_t nrel_count = 0;
  CAR_RETURN_IF_ERROR(reader.ReadCount(&nrel_count, 28, "nrel entry"));
  for (uint32_t i = 0; i < nrel_count; ++i) {
    uint32_t relation = 0;
    uint32_t role = 0;
    uint32_t compound = 0;
    Cardinality cardinality;
    CAR_RETURN_IF_ERROR(reader.ReadIndex(&relation, "relation id"));
    CAR_RETURN_IF_ERROR(reader.ReadIndex(&role, "role index"));
    CAR_RETURN_IF_ERROR(reader.ReadIndex(&compound, "compound index"));
    CAR_RETURN_IF_ERROR(reader.ReadCardinality(&cardinality));
    if (relation >= header.num_relations) {
      return ParseError(StrCat("relation id ", relation, " out of range"));
    }
    if (role >= kMaxArity) {
      return ParseError(StrCat("role index ", role, " out of range"));
    }
    if (compound >= cc_count) {
      return ParseError("nrel compound index out of range");
    }
    std::tuple<RelationId, int, int> key(static_cast<RelationId>(relation),
                                         static_cast<int>(role),
                                         static_cast<int>(compound));
    if (!expansion->nrel.empty() && !(expansion->nrel.rbegin()->first < key)) {
      return ParseError("nrel keys not strictly ascending");
    }
    expansion->nrel.emplace_hint(expansion->nrel.end(), key, cardinality);
  }
  CAR_RETURN_IF_ERROR(reader.ReadU64(&expansion->subsets_visited));
  return reader.ExpectConsumed();
}

void EncodePsiPayload(const WarmSnapshot& snapshot, Writer* writer) {
  writer->PutU64(snapshot.base_pivots);
  writer->PutU64(snapshot.base_scalar_promotions);
  writer->PutU64(snapshot.base_tableau_nonzeros);
  writer->PutU64(snapshot.base_tableau_cells);
  const SimplexSnapshot& psi = snapshot.psi_snapshot;
  writer->PutU32(static_cast<uint32_t>(psi.rows.size()));
  writer->PutU32(static_cast<uint32_t>(psi.num_cols));
  writer->PutU64(psi.num_constraints);
  writer->PutU32(static_cast<uint32_t>(psi.col_of_var.size()));
  for (const SparseRow& row : psi.rows) {
    writer->PutU32(static_cast<uint32_t>(row.nnz()));
    for (size_t k = 0; k < row.nnz(); ++k) {
      writer->PutU32(static_cast<uint32_t>(row.ColAt(k)));
      writer->PutRational(row.ValueAt(k));
    }
  }
  for (const SparseRow& row : psi.rows) writer->PutRational(row.RhsValue());
  for (int column : psi.basis) {
    writer->PutU32(static_cast<uint32_t>(column));
  }
  for (size_t c = 0; c < psi.is_artificial.size(); ++c) {
    writer->PutBool(psi.is_artificial[c]);
  }
  for (int column : psi.init_basic) {
    writer->PutU32(static_cast<uint32_t>(column));
  }
  for (size_t r = 0; r < psi.row_flipped.size(); ++r) {
    writer->PutBool(psi.row_flipped[r]);
  }
  for (int column : psi.col_of_var) {
    writer->PutU32(column < 0 ? ~uint32_t{0} : static_cast<uint32_t>(column));
  }
  for (int variable : psi.var_of_col) {
    writer->PutU32(variable < 0 ? ~uint32_t{0}
                                : static_cast<uint32_t>(variable));
  }
  for (int width : psi.zero_checked) {
    writer->PutU32(static_cast<uint32_t>(width));
  }
}

Status DecodePsiPayload(std::string_view payload, WarmSnapshot* snapshot) {
  Reader reader(payload);
  CAR_RETURN_IF_ERROR(reader.ReadU64(&snapshot->base_pivots));
  CAR_RETURN_IF_ERROR(reader.ReadU64(&snapshot->base_scalar_promotions));
  CAR_RETURN_IF_ERROR(reader.ReadU64(&snapshot->base_tableau_nonzeros));
  CAR_RETURN_IF_ERROR(reader.ReadU64(&snapshot->base_tableau_cells));
  SimplexSnapshot& psi = snapshot->psi_snapshot;
  uint32_t num_rows = 0;
  uint32_t num_cols = 0;
  uint64_t num_constraints = 0;
  uint32_t num_vars = 0;
  CAR_RETURN_IF_ERROR(reader.ReadCount(&num_rows, 4, "tableau row"));
  CAR_RETURN_IF_ERROR(reader.ReadIndex(&num_cols, "tableau column count"));
  CAR_RETURN_IF_ERROR(reader.ReadU64(&num_constraints));
  if (num_constraints > kMaxIndex) {
    return ParseError("constraint count exceeds index cap");
  }
  CAR_RETURN_IF_ERROR(reader.ReadCount(&num_vars, 4, "structural variable"));
  if (num_vars > kMaxIndex) {
    return ParseError("variable count exceeds index cap");
  }
  psi.num_cols = static_cast<int>(num_cols);
  psi.num_constraints = static_cast<size_t>(num_constraints);
  psi.rows.resize(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    uint32_t nnz = 0;
    CAR_RETURN_IF_ERROR(reader.ReadCount(&nnz, 17, "row entry"));
    SparseRow& row = psi.rows[r];
    row.reserve(nnz);
    int last_col = -1;
    for (uint32_t k = 0; k < nnz; ++k) {
      uint32_t col = 0;
      Rational value;
      CAR_RETURN_IF_ERROR(reader.ReadIndex(&col, "entry column"));
      CAR_RETURN_IF_ERROR(reader.ReadRational(&value));
      if (col >= num_cols || static_cast<int>(col) <= last_col) {
        return ParseError("row entries unsorted or out of range");
      }
      if (value.is_zero()) {
        return ParseError("explicit zero tableau entry");
      }
      last_col = static_cast<int>(col);
      row.Append(last_col, value);
    }
  }
  for (uint32_t r = 0; r < num_rows; ++r) {
    Rational rhs;
    CAR_RETURN_IF_ERROR(reader.ReadRational(&rhs));
    psi.rows[r].SetRhs(rhs);
  }
  psi.basis.resize(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    uint32_t column = 0;
    CAR_RETURN_IF_ERROR(reader.ReadU32(&column));
    if (column >= num_cols) {
      return ParseError("basis column out of range");
    }
    psi.basis[r] = static_cast<int>(column);
  }
  psi.is_artificial.resize(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    bool artificial = false;
    CAR_RETURN_IF_ERROR(reader.ReadBool(&artificial));
    psi.is_artificial[c] = artificial;
  }
  psi.init_basic.resize(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    uint32_t column = 0;
    CAR_RETURN_IF_ERROR(reader.ReadU32(&column));
    if (column >= num_cols) {
      return ParseError("init_basic column out of range");
    }
    psi.init_basic[r] = static_cast<int>(column);
  }
  psi.row_flipped.resize(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    bool flipped = false;
    CAR_RETURN_IF_ERROR(reader.ReadBool(&flipped));
    psi.row_flipped[r] = flipped;
  }
  psi.col_of_var.resize(num_vars);
  for (uint32_t v = 0; v < num_vars; ++v) {
    uint32_t column = 0;
    CAR_RETURN_IF_ERROR(reader.ReadU32(&column));
    if (column == ~uint32_t{0}) {
      psi.col_of_var[v] = -1;
    } else if (column >= num_cols) {
      return ParseError("variable column out of range");
    } else {
      psi.col_of_var[v] = static_cast<int>(column);
    }
  }
  psi.var_of_col.resize(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    uint32_t variable = 0;
    CAR_RETURN_IF_ERROR(reader.ReadU32(&variable));
    if (variable == ~uint32_t{0}) {
      psi.var_of_col[c] = -1;
    } else if (variable >= num_vars) {
      return ParseError("column variable out of range");
    } else {
      psi.var_of_col[c] = static_cast<int>(variable);
    }
  }
  psi.zero_checked.resize(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    uint32_t width = 0;
    CAR_RETURN_IF_ERROR(reader.ReadU32(&width));
    if (width > num_cols) {
      return ParseError("zero_checked width out of range");
    }
    psi.zero_checked[r] = static_cast<int>(width);
  }
  return reader.ExpectConsumed();
}

void EncodeMemoPayload(const std::map<std::string, bool>& memo,
                       Writer* writer) {
  writer->PutU32(static_cast<uint32_t>(memo.size()));
  for (const auto& [key, answer] : memo) {
    writer->PutString(key);
    writer->PutBool(answer);
  }
}

Status DecodeMemoPayload(std::string_view payload,
                         std::map<std::string, bool>* memo) {
  Reader reader(payload);
  uint32_t count = 0;
  CAR_RETURN_IF_ERROR(reader.ReadCount(&count, 5, "memo entry"));
  for (uint32_t i = 0; i < count; ++i) {
    std::string key;
    bool answer = false;
    CAR_RETURN_IF_ERROR(reader.ReadString(&key));
    CAR_RETURN_IF_ERROR(reader.ReadBool(&answer));
    if (!memo->empty() && !(memo->rbegin()->first < key)) {
      return ParseError("memo keys not strictly ascending");
    }
    memo->emplace_hint(memo->end(), std::move(key), answer);
  }
  return reader.ExpectConsumed();
}

// --- Header + framing -------------------------------------------------------

void EncodeHeader(const SnapshotHeader& header, Writer* writer) {
  for (char byte : kSnapshotMagic) writer->PutU8(static_cast<uint8_t>(byte));
  writer->PutU32(header.format_version);
  writer->PutU64(header.abi_fingerprint);
  writer->PutU64(header.schema_fingerprint);
  writer->PutU32(header.num_classes);
  writer->PutU32(header.num_attributes);
  writer->PutU32(header.num_relations);
}

Status DecodeHeader(Reader* reader, SnapshotHeader* header) {
  char magic[sizeof(kSnapshotMagic)] = {};
  for (char& byte : magic) {
    uint8_t value = 0;
    CAR_RETURN_IF_ERROR(reader->ReadU8(&value));
    byte = static_cast<char>(value);
  }
  if (std::memcmp(magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return ParseError("bad snapshot magic");
  }
  CAR_RETURN_IF_ERROR(reader->ReadU32(&header->format_version));
  CAR_RETURN_IF_ERROR(reader->ReadU64(&header->abi_fingerprint));
  CAR_RETURN_IF_ERROR(reader->ReadU64(&header->schema_fingerprint));
  CAR_RETURN_IF_ERROR(reader->ReadIndex(&header->num_classes, "class count"));
  CAR_RETURN_IF_ERROR(
      reader->ReadIndex(&header->num_attributes, "attribute count"));
  CAR_RETURN_IF_ERROR(
      reader->ReadIndex(&header->num_relations, "relation count"));
  if (header->format_version != kSnapshotFormatVersion) {
    return InvalidArgument(StrCat("snapshot format version ",
                                  header->format_version, ", expected ",
                                  kSnapshotFormatVersion));
  }
  if (header->abi_fingerprint != SnapshotAbiFingerprint()) {
    return InvalidArgument(
        StrCat("snapshot ABI fingerprint ", header->abi_fingerprint,
               ", expected ", SnapshotAbiFingerprint()));
  }
  return Status::Ok();
}

void AppendSection(SectionTag tag, std::string payload, Writer* writer) {
  writer->PutU8(static_cast<uint8_t>(tag));
  writer->PutU64(payload.size());
  writer->PutU32(Crc32c(payload));
  for (char byte : payload) writer->PutU8(static_cast<uint8_t>(byte));
}

}  // namespace

uint64_t SnapshotAbiFingerprint() {
  // A layout-describing string, not compiler internals: the fingerprint
  // moves exactly when the persisted semantics move. The trailing
  // recipe token must be bumped whenever the deterministic rebuild the
  // loader replays (Ψ structure build, derived-index rebuild) changes
  // meaning, even if the byte layout itself is unchanged.
  static const uint64_t fingerprint = Fnv1a64(StrCat(
      "car-warm-snapshot v", kSnapshotFormatVersion,
      " expansion{cc,ca,cr,natt,nrel,subsets}",
      " psi{stats,rows,rhs,basis,is_artificial,init_basic,row_flipped,"
      "col_of_var,var_of_col,zero_checked}",
      " memo{key,bool} scalar=bigint-rational limb=u32",
      " rebuild=psi-structure-replay-v1"));
  return fingerprint;
}

uint32_t Crc32c(std::string_view data) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0x82f63b78u : 0u);
      }
      table[i] = crc;
    }
    return table;
  }();
  uint32_t crc = ~uint32_t{0};
  for (char byte : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ static_cast<uint8_t>(byte)) & 0xff];
  }
  return ~crc;
}

std::string EncodeSnapshot(const WarmSnapshot& snapshot) {
  Writer writer;
  EncodeHeader(snapshot.header, &writer);
  writer.PutU32(snapshot.has_psi ? 3 : 2);
  {
    Writer payload;
    EncodeExpansionPayload(snapshot.expansion, &payload);
    AppendSection(SectionTag::kExpansion, payload.Take(), &writer);
  }
  if (snapshot.has_psi) {
    Writer payload;
    EncodePsiPayload(snapshot, &payload);
    AppendSection(SectionTag::kPsi, payload.Take(), &writer);
  }
  {
    Writer payload;
    EncodeMemoPayload(snapshot.memo, &payload);
    AppendSection(SectionTag::kMemo, payload.Take(), &writer);
  }
  return writer.Take();
}

Result<WarmSnapshot> DecodeSnapshot(std::string_view bytes) {
  Reader reader(bytes);
  WarmSnapshot snapshot;
  CAR_RETURN_IF_ERROR(DecodeHeader(&reader, &snapshot.header));
  uint32_t section_count = 0;
  CAR_RETURN_IF_ERROR(reader.ReadU32(&section_count));
  if (section_count != 2 && section_count != 3) {
    return ParseError(StrCat("bad section count ", section_count));
  }
  bool expansion_seen = false;
  bool memo_seen = false;
  int last_tag = 0;
  for (uint32_t s = 0; s < section_count; ++s) {
    uint8_t tag = 0;
    uint64_t length = 0;
    uint32_t crc = 0;
    CAR_RETURN_IF_ERROR(reader.ReadU8(&tag));
    CAR_RETURN_IF_ERROR(reader.ReadU64(&length));
    CAR_RETURN_IF_ERROR(reader.ReadU32(&crc));
    if (tag <= last_tag ||
        tag > static_cast<uint8_t>(SectionTag::kMemo)) {
      return ParseError(StrCat("bad section tag ", static_cast<int>(tag)));
    }
    last_tag = tag;
    if (length > reader.remaining()) {
      return ParseError(StrCat("section length ", length, " exceeds ",
                               reader.remaining(), " remaining bytes"));
    }
    std::string_view payload;
    CAR_RETURN_IF_ERROR(
        reader.ReadBytes(static_cast<size_t>(length), &payload));
    // Checksum first: a corrupt payload is reported as corruption, not
    // as whatever parse error the flipped bytes happen to produce.
    if (Crc32c(payload) != crc) {
      return ParseError(
          StrCat("section ", static_cast<int>(tag), " checksum mismatch"));
    }
    switch (static_cast<SectionTag>(tag)) {
      case SectionTag::kExpansion:
        CAR_RETURN_IF_ERROR(DecodeExpansionPayload(payload, snapshot.header,
                                                   &snapshot.expansion));
        expansion_seen = true;
        break;
      case SectionTag::kPsi:
        CAR_RETURN_IF_ERROR(DecodePsiPayload(payload, &snapshot));
        snapshot.has_psi = true;
        break;
      case SectionTag::kMemo:
        CAR_RETURN_IF_ERROR(DecodeMemoPayload(payload, &snapshot.memo));
        memo_seen = true;
        break;
    }
  }
  CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
  if (!expansion_seen || !memo_seen) {
    return ParseError("mandatory section missing");
  }
  if (snapshot.has_psi != (section_count == 3)) {
    return ParseError("section count disagrees with section set");
  }
  return snapshot;
}

Result<SnapshotHeader> PeekSnapshotHeader(std::string_view bytes) {
  Reader reader(bytes);
  SnapshotHeader header;
  CAR_RETURN_IF_ERROR(DecodeHeader(&reader, &header));
  return header;
}

}  // namespace persist
}  // namespace car
