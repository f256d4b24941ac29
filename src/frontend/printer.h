#ifndef CAR_FRONTEND_PRINTER_H_
#define CAR_FRONTEND_PRINTER_H_

#include <cstdint>
#include <string>

#include "model/schema.h"

namespace car {

/// Renders a schema in the concrete syntax accepted by ParseSchema().
/// Every class is emitted (classes with empty definitions appear as bare
/// `class X endclass` blocks so the symbol set round-trips), classes in
/// id order followed by relations in id order. PrintSchema followed by
/// ParseSchema is the identity on schemas up to this canonical ordering;
/// PrintSchema(ParseSchema(PrintSchema(s))) == PrintSchema(s).
std::string PrintSchema(const Schema& schema);

/// The schema's warm-state key: FNV-1a of PrintSchema(schema), so texts
/// that differ only in comments and layout share it. The serving cache
/// compares tenants by it and the snapshot header records it. Stores the
/// canonical text in `*canonical` when non-null, for callers that need
/// it too without a second print.
uint64_t SchemaFingerprint(const Schema& schema,
                           std::string* canonical = nullptr);

/// Renders a single class-formula ("A | !B & C").
std::string PrintFormula(const Schema& schema, const ClassFormula& formula);

}  // namespace car

#endif  // CAR_FRONTEND_PRINTER_H_
