// Planner: lowers a parsed statement to an adaptive plan description
// (paper §4.2.1: "the server parses, analyzes, and optimizes it into an
// adaptive plan, that is, a plan that includes the adaptive operators of
// Section 2"). The lowering performs the CACQ decomposition: single-variable
// factors, equality join edges, and residual multi-variable factors; plus a
// projection and an optional lowered window loop.

#pragma once

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "cacq/query_registry.h"
#include "operators/projection.h"
#include "query/ast.h"
#include "query/catalog.h"
#include "window/window_spec.h"

namespace tcq {

struct PlannedQuery {
  /// FROM bindings in statement order: (alias, catalog entry). Self-joins
  /// bind the same physical stream under distinct logical source ids.
  std::vector<std::pair<std::string, Catalog::StreamEntry>> bindings;

  /// The CACQ decomposition, for shared continuous execution.
  CQSpec spec;

  /// Output projection (nullopt = SELECT *).
  std::optional<Projection> projection;

  /// Lowered window loop (nullopt = pure continuous query).
  std::optional<ForLoopSpec> window_loop;

  /// Every WHERE conjunct as a predicate, for the windowed execution path.
  std::vector<PredicateRef> all_predicates;

  /// The logical source the binding of `alias` maps to.
  Result<SourceId> SourceOf(const std::string& alias) const;
};

/// Plans a statement against the catalog. Self-join aliases allocate fresh
/// logical source ids via Catalog::InstantiateAlias (a failed plan releases
/// them again; a planned query's owner releases them with Catalog::
/// ReleaseAlias when the query ends) — unless `pinned_aliases`
/// maps the binding's effective alias to a source id, in which case that
/// existing catalog entry is reused instead of allocating. Checkpoint restore
/// re-plans recorded statements with their recorded binding ids pinned, so a
/// restored query references exactly the sources its snapshot state names.
Result<PlannedQuery> PlanQuery(
    const ast::SelectStatement& stmt, Catalog* catalog,
    const std::map<std::string, SourceId>* pinned_aliases = nullptr);

}  // namespace tcq
