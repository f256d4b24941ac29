#include "analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "base/strings.h"
#include "model/cardinality.h"

namespace car {

namespace {

/// Anchor for findings about a class's isa part: the isa declaration
/// when the parser recorded one, else the class-name token.
SourceSpan IsaAnchor(const ClassDefinition& definition) {
  return definition.isa_span.known() ? definition.isa_span
                                     : definition.span;
}

std::string TermName(const Schema& schema, const AttributeTerm& term) {
  return term.inverse
             ? StrCat("(inv ", schema.AttributeName(term.attribute), ")")
             : schema.AttributeName(term.attribute);
}

std::string BoundText(const Cardinality& bound) {
  // Renders possibly-empty intervals, which Cardinality::ToString (built
  // for validated intervals) also handles.
  return bound.ToString();
}

/// True when `formula` is provably unsatisfiable for every object: some
/// clause consists solely of positive literals naming statically-empty
/// classes. Negative literals block the certificate — an object outside
/// D satisfies ¬D unless D covers the whole domain, which no sound
/// static rule can establish.
bool FormulaEmptyForAll(const ClassFormula& formula,
                        const std::vector<char>& class_unsat) {
  for (const ClassClause& clause : formula.clauses()) {
    if (clause.literals().empty()) continue;  // Rejected by Validate.
    bool all_dead = true;
    for (const ClassLiteral& literal : clause.literals()) {
      if (literal.negated || !class_unsat[literal.class_id]) {
        all_dead = false;
        break;
      }
    }
    if (all_dead) return true;
  }
  return false;
}

/// The classes whose specs constrain every instance of `class_id`: the
/// class itself plus its propagated superclasses, in deterministic
/// (self-first, then ascending) order.
std::vector<ClassId> SelfAndSupers(const PairTables& tables,
                                   ClassId class_id) {
  std::vector<ClassId> result;
  result.push_back(class_id);
  for (ClassId super : tables.SuperclassesOf(class_id)) {
    if (super != class_id) result.push_back(super);
  }
  return result;
}

Diagnostic MakeDiagnostic(DiagnosticSeverity severity, std::string rule,
                          std::string symbol, SourceSpan span,
                          std::string message) {
  Diagnostic diagnostic;
  diagnostic.severity = severity;
  diagnostic.rule = std::move(rule);
  diagnostic.symbol = std::move(symbol);
  diagnostic.span = span;
  diagnostic.message = std::move(message);
  return diagnostic;
}

/// One round of the emptiness rules for class `c`; returns the first
/// cause (in fixed rule order) that certifies the class empty, or
/// nullopt. The rules are sound for finite and unrestricted models
/// alike; see the contract in analyzer.h.
std::optional<Diagnostic> FindEmptinessCause(const Schema& schema,
                                             const SchemaAnalysis& analysis,
                                             ClassId c) {
  const ClassDefinition& definition = schema.class_definition(c);
  const std::string& name = schema.ClassName(c);
  const PairTables& tables = analysis.tables;

  // Rule 1: self-disjointness. The propagated tables reduce both the
  // direct `C isa !C` form and every inherited-disjointness
  // contradiction (C ⊆ A, C ⊆ B, disjoint(A, B)) to disjoint(C, C).
  if (tables.AreDisjoint(c, c)) {
    return MakeDiagnostic(
        DiagnosticSeverity::kError, "disjoint-contradiction", name,
        IsaAnchor(definition),
        StrCat("class '", name,
               "' is disjoint from itself (isa/disjointness propagation); "
               "it can have no instances"));
  }

  // Rule 2: inclusion in a statically-empty class.
  for (ClassId super : tables.SuperclassesOf(c)) {
    if (analysis.class_unsat[super]) {
      return MakeDiagnostic(
          DiagnosticSeverity::kError, "inherited-unsatisfiable", name,
          IsaAnchor(definition),
          StrCat("every instance of '", name,
                 "' would be an instance of the unsatisfiable class '",
                 schema.ClassName(super), "'"));
    }
  }

  // Rule 3: an isa clause no instance of C can satisfy. A positive
  // literal D is falsified when C and D are provably disjoint or D is
  // empty; a negative literal !D when every C-instance is provably in D.
  for (const ClassClause& clause : definition.isa.clauses()) {
    if (clause.literals().empty()) continue;
    bool all_falsified = true;
    for (const ClassLiteral& literal : clause.literals()) {
      bool falsified;
      if (literal.negated) {
        falsified = literal.class_id == c ||
                    tables.IsIncluded(c, literal.class_id);
      } else {
        falsified = analysis.class_unsat[literal.class_id] ||
                    (literal.class_id != c &&
                     tables.AreDisjoint(c, literal.class_id));
      }
      if (!falsified) {
        all_falsified = false;
        break;
      }
    }
    if (all_falsified) {
      return MakeDiagnostic(
          DiagnosticSeverity::kError, "falsified-isa", name,
          IsaAnchor(definition),
          StrCat("an isa clause of class '", name,
                 "' is falsified for every possible instance"));
    }
  }

  // Rules 4-7 combine the specs every C-instance inherits (its own and
  // its propagated superclasses').
  std::map<AttributeTerm, Cardinality> attribute_bounds;
  std::map<std::pair<RelationId, RoleId>, Cardinality> participation_bounds;
  std::map<AttributeTerm, SourceSpan> local_attribute_spans;
  std::map<std::pair<RelationId, RoleId>, SourceSpan>
      local_participation_spans;
  for (ClassId owner : SelfAndSupers(tables, c)) {
    const ClassDefinition& owner_definition = schema.class_definition(owner);
    for (const AttributeSpec& spec : owner_definition.attributes) {
      auto [it, inserted] =
          attribute_bounds.emplace(spec.term, spec.cardinality);
      if (!inserted) {
        it->second =
            Cardinality::IntersectUnchecked(it->second, spec.cardinality);
      }
      if (owner == c) local_attribute_spans.emplace(spec.term, spec.span);

      // Rule 6: a required link into a provably empty range.
      if (spec.cardinality.min() >= 1 &&
          FormulaEmptyForAll(spec.range, analysis.class_unsat)) {
        return MakeDiagnostic(
            DiagnosticSeverity::kError, "dead-range", name,
            owner == c ? spec.span : definition.span,
            StrCat("every instance of class '", name, "' needs at least ",
                   spec.cardinality.min(), " ",
                   TermName(schema, spec.term),
                   "-successor(s), but the declared range is provably "
                   "empty"));
      }
    }
    for (const ParticipationSpec& spec : owner_definition.participations) {
      std::pair<RelationId, RoleId> key(spec.relation, spec.role);
      auto [it, inserted] =
          participation_bounds.emplace(key, spec.cardinality);
      if (!inserted) {
        it->second =
            Cardinality::IntersectUnchecked(it->second, spec.cardinality);
      }
      if (owner == c) local_participation_spans.emplace(key, spec.span);

      // Rule 7: a required participation in a provably empty relation.
      if (spec.cardinality.min() >= 1 &&
          analysis.relation_dead[spec.relation]) {
        return MakeDiagnostic(
            DiagnosticSeverity::kError, "dead-participation", name,
            owner == c ? spec.span : definition.span,
            StrCat("every instance of class '", name,
                   "' must participate in relation '",
                   schema.RelationName(spec.relation), "' as ",
                   schema.RoleName(spec.role), " (min ",
                   spec.cardinality.min(),
                   "), but that relation can contain no tuples"));
      }
    }
  }

  // Rule 4: empty inherited attribute-cardinality interval (the classic
  // min > max through ISA, including inverse attribute terms).
  for (const auto& [term, bound] : attribute_bounds) {
    if (!bound.IsEmpty()) continue;
    auto local = local_attribute_spans.find(term);
    return MakeDiagnostic(
        DiagnosticSeverity::kError, "cardinality-contradiction", name,
        local != local_attribute_spans.end() ? local->second
                                             : definition.span,
        StrCat("class '", name, "' inherits contradictory cardinalities "
               "for attribute ", TermName(schema, term),
               ": the combined interval ", BoundText(bound),
               " has min above max"));
  }

  // Rule 5: empty inherited participation interval.
  for (const auto& [key, bound] : participation_bounds) {
    if (!bound.IsEmpty()) continue;
    auto local = local_participation_spans.find(key);
    return MakeDiagnostic(
        DiagnosticSeverity::kError, "cardinality-contradiction", name,
        local != local_participation_spans.end() ? local->second
                                                 : definition.span,
        StrCat("class '", name, "' inherits contradictory participation "
               "cardinalities for ", schema.RelationName(key.first), "[",
               schema.RoleName(key.second), "]: the combined interval ",
               BoundText(bound), " has min above max"));
  }

  return std::nullopt;
}

/// Monotone fixpoint of the emptiness rules over classes and relations.
/// The flag sets are confluent (each rule is monotone in the flags), and
/// the fixed iteration order makes the recorded causes deterministic.
void ComputeEmptiness(const Schema& schema, bool lint,
                      SchemaAnalysis* analysis) {
  analysis->class_unsat.assign(schema.num_classes(), 0);
  analysis->relation_dead.assign(schema.num_relations(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (RelationId r = 0; r < schema.num_relations(); ++r) {
      if (analysis->relation_dead[r]) continue;
      const RelationDefinition* definition = schema.relation_definition(r);
      if (definition == nullptr) continue;
      for (const RoleClause& clause : definition->constraints) {
        if (clause.literals.empty()) continue;
        bool dead = true;
        for (const RoleLiteral& literal : clause.literals) {
          if (!FormulaEmptyForAll(literal.formula, analysis->class_unsat)) {
            dead = false;
            break;
          }
        }
        if (dead) {
          analysis->relation_dead[r] = 1;
          changed = true;
          if (lint) {
            analysis->diagnostics.push_back(MakeDiagnostic(
                DiagnosticSeverity::kWarning, "dead-relation",
                schema.RelationName(r), definition->span,
                StrCat("relation '", schema.RelationName(r),
                       "' can contain no tuples: a role clause admits no "
                       "tuple (every formula in it is provably empty)")));
          }
          break;
        }
      }
    }
    for (ClassId c = 0; c < schema.num_classes(); ++c) {
      if (analysis->class_unsat[c]) continue;
      std::optional<Diagnostic> cause =
          FindEmptinessCause(schema, *analysis, c);
      if (cause.has_value()) {
        analysis->class_unsat[c] = 1;
        changed = true;
        if (lint) analysis->diagnostics.push_back(std::move(*cause));
      }
    }
  }
}

std::vector<std::vector<ClassId>> BuildDependsOn(const Schema& schema) {
  std::vector<std::vector<ClassId>> result(schema.num_classes());
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    const ClassDefinition& definition = schema.class_definition(c);
    std::set<ClassId> deps;
    auto add_formula = [&deps](const ClassFormula& formula) {
      for (ClassId mentioned : formula.MentionedClasses()) {
        deps.insert(mentioned);
      }
    };
    add_formula(definition.isa);
    for (const AttributeSpec& spec : definition.attributes) {
      add_formula(spec.range);
    }
    for (const ParticipationSpec& spec : definition.participations) {
      const RelationDefinition* relation =
          schema.relation_definition(spec.relation);
      if (relation == nullptr) continue;
      for (const RoleClause& clause : relation->constraints) {
        for (const RoleLiteral& literal : clause.literals) {
          add_formula(literal.formula);
        }
      }
    }
    deps.erase(c);
    result[c].assign(deps.begin(), deps.end());
  }
  return result;
}

/// isa-cycle: groups of mutually-included classes. Mutual inclusion in
/// the propagated tables arises exactly from cycles of single-literal
/// positive isa clauses, so this is the SCC check on the inclusion edges
/// without a second graph traversal.
void LintIsaCycles(const Schema& schema, SchemaAnalysis* analysis) {
  std::vector<char> grouped(schema.num_classes(), 0);
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    if (grouped[c]) continue;
    std::vector<ClassId> group(1, c);
    for (ClassId super : analysis->tables.SuperclassesOf(c)) {
      if (super != c && analysis->tables.IsIncluded(super, c)) {
        group.push_back(super);
      }
    }
    if (group.size() < 2) continue;
    std::sort(group.begin(), group.end());
    std::string members;
    for (ClassId member : group) {
      grouped[member] = 1;
      if (!members.empty()) members += ", ";
      members += StrCat("'", schema.ClassName(member), "'");
    }
    analysis->diagnostics.push_back(MakeDiagnostic(
        DiagnosticSeverity::kWarning, "isa-cycle", schema.ClassName(c),
        IsaAnchor(schema.class_definition(c)),
        StrCat("classes ", members,
               " form an isa cycle: mutual inclusion forces identical "
               "extensions in every model")));
  }
}

/// redundant-isa: a direct isa edge C ⊆ D already implied by the other
/// direct edges (including the trivial self-edge).
void LintRedundantIsa(const Schema& schema, SchemaAnalysis* analysis) {
  struct Edge {
    int clause_index;
    ClassId target;
  };
  std::vector<std::vector<Edge>> edges(schema.num_classes());
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    const ClassFormula& isa = schema.class_definition(c).isa;
    for (size_t k = 0; k < isa.clauses().size(); ++k) {
      const ClassClause& clause = isa.clauses()[k];
      if (clause.literals().size() != 1 || clause.literals()[0].negated) {
        continue;
      }
      edges[c].push_back(
          {static_cast<int>(k), clause.literals()[0].class_id});
    }
  }
  std::vector<char> visited(schema.num_classes(), 0);
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    const ClassDefinition& definition = schema.class_definition(c);
    for (const Edge& edge : edges[c]) {
      if (edge.target == c) {
        analysis->diagnostics.push_back(MakeDiagnostic(
            DiagnosticSeverity::kNote, "redundant-isa", schema.ClassName(c),
            IsaAnchor(definition),
            StrCat("class '", schema.ClassName(c),
                   "' declares isa itself (trivially redundant)")));
        continue;
      }
      // Reachability of the edge's target without using this edge.
      std::fill(visited.begin(), visited.end(), 0);
      std::vector<ClassId> stack(1, c);
      visited[c] = 1;
      while (!stack.empty()) {
        ClassId u = stack.back();
        stack.pop_back();
        for (const Edge& next : edges[u]) {
          if (u == c && next.clause_index == edge.clause_index) continue;
          if (next.target == u) continue;
          if (!visited[next.target]) {
            visited[next.target] = 1;
            stack.push_back(next.target);
          }
        }
      }
      if (visited[edge.target]) {
        analysis->diagnostics.push_back(MakeDiagnostic(
            DiagnosticSeverity::kNote, "redundant-isa", schema.ClassName(c),
            IsaAnchor(definition),
            StrCat("isa '", schema.ClassName(edge.target), "' of class '",
                   schema.ClassName(c),
                   "' is already implied by the remaining isa "
                   "declarations")));
      }
    }
  }
}

/// duplicate-literal / tautological-clause over every formula position.
void LintClauseHygiene(const Schema& schema, SchemaAnalysis* analysis) {
  auto scan = [analysis](const ClassFormula& formula, const SourceSpan& span,
                         const std::string& symbol,
                         const std::string& where) {
    for (const ClassClause& clause : formula.clauses()) {
      std::set<std::pair<ClassId, bool>> seen;
      bool duplicated = false;
      bool tautological = false;
      for (const ClassLiteral& literal : clause.literals()) {
        if (!seen.emplace(literal.class_id, literal.negated).second) {
          duplicated = true;
        }
        if (seen.count({literal.class_id, !literal.negated}) != 0) {
          tautological = true;
        }
      }
      if (tautological) {
        analysis->diagnostics.push_back(MakeDiagnostic(
            DiagnosticSeverity::kNote, "tautological-clause", symbol, span,
            StrCat("a clause in ", where,
                   " contains a literal and its negation and is always "
                   "true")));
      } else if (duplicated) {
        analysis->diagnostics.push_back(MakeDiagnostic(
            DiagnosticSeverity::kNote, "duplicate-literal", symbol, span,
            StrCat("a clause in ", where, " repeats a literal")));
      }
    }
  };
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    const ClassDefinition& definition = schema.class_definition(c);
    const std::string& name = schema.ClassName(c);
    scan(definition.isa, IsaAnchor(definition), name,
         StrCat("the isa of class '", name, "'"));
    for (const AttributeSpec& spec : definition.attributes) {
      scan(spec.range,
           spec.span.known() ? spec.span : definition.span, name,
           StrCat("the range of attribute ", TermName(schema, spec.term),
                  " in class '", name, "'"));
    }
  }
  for (RelationId r = 0; r < schema.num_relations(); ++r) {
    const RelationDefinition* definition = schema.relation_definition(r);
    if (definition == nullptr) continue;
    const std::string& name = schema.RelationName(r);
    for (const RoleClause& clause : definition->constraints) {
      for (const RoleLiteral& literal : clause.literals) {
        scan(literal.formula, definition->span, name,
             StrCat("a role clause of relation '", name, "'"));
      }
    }
  }
}

}  // namespace

size_t SchemaAnalysis::num_unsat_classes() const {
  size_t count = 0;
  for (char flag : class_unsat) {
    if (flag != 0) ++count;
  }
  return count;
}

SchemaAnalysis AnalyzeSchema(const Schema& schema,
                             const AnalyzerOptions& options) {
  SchemaAnalysis analysis(BuildPairTables(schema, options.tables));
  analysis.clusters = ComputeClusters(schema, analysis.tables);
  analysis.depends_on = BuildDependsOn(schema);
  ComputeEmptiness(schema, options.lint, &analysis);
  if (options.lint) {
    LintIsaCycles(schema, &analysis);
    LintRedundantIsa(schema, &analysis);
    LintClauseHygiene(schema, &analysis);
    SortDiagnostics(&analysis.diagnostics);
  }
  return analysis;
}

}  // namespace car
