#include "query/planner.h"

#include <set>

namespace tcq {

Result<SourceId> PlannedQuery::SourceOf(const std::string& alias) const {
  for (const auto& [a, entry] : bindings) {
    if (a == alias) return entry.source;
  }
  return Status::NotFound("no FROM binding named '" + alias + "'");
}

namespace {

/// Resolves a column reference to (source, field name).
Result<AttrRef> ResolveColumn(const PlannedQuery& pq,
                              const ast::ColumnRef& ref) {
  if (!ref.table.empty()) {
    for (const auto& [alias, entry] : pq.bindings) {
      if (alias == ref.table) {
        if (!entry.schema->IndexOf(ref.column, entry.source)) {
          return Status::NotFound("stream '" + alias + "' has no column '" +
                                  ref.column + "'");
        }
        return AttrRef{entry.source, ref.column};
      }
    }
    return Status::NotFound("no FROM binding named '" + ref.table + "'");
  }
  // Unqualified: must be unambiguous across bindings.
  std::optional<AttrRef> found;
  for (const auto& [alias, entry] : pq.bindings) {
    if (entry.schema->IndexOf(ref.column, entry.source)) {
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column '" + ref.column +
                                       "'; qualify it with an alias");
      }
      found = AttrRef{entry.source, ref.column};
    }
  }
  if (!found.has_value()) {
    return Status::NotFound("no column '" + ref.column + "' in any stream");
  }
  return *found;
}

CmpOp Flip(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;  // = and != are symmetric
  }
}

/// PlanQuery's body; records the alias ids it allocates in `allocated`.
Result<PlannedQuery> Plan(const ast::SelectStatement& stmt, Catalog* catalog,
                          const std::map<std::string, SourceId>* pinned_aliases,
                          std::vector<SourceId>* allocated) {
  PlannedQuery pq;
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM clause is empty");
  }

  // Bind FROM entries. The first use of a physical stream binds its
  // canonical source id; repeated uses (self-joins) bind fresh alias ids.
  std::set<std::string> physical_seen;
  std::set<std::string> aliases_seen;
  for (const ast::StreamRef& ref : stmt.from) {
    const std::string& alias = ref.EffectiveAlias();
    if (!aliases_seen.insert(alias).second) {
      return Status::InvalidArgument("duplicate FROM alias '" + alias + "'");
    }
    Catalog::StreamEntry entry;
    if (physical_seen.insert(ref.stream).second) {
      TCQ_ASSIGN_OR_RETURN(entry, catalog->Lookup(ref.stream));
    } else if (pinned_aliases != nullptr) {
      auto pin = pinned_aliases->find(alias);
      if (pin == pinned_aliases->end()) {
        return Status::InvalidArgument("no pinned source id for self-join alias '" +
                                       alias + "'");
      }
      const Catalog::StreamEntry* pinned = catalog->LookupBySource(pin->second);
      if (pinned == nullptr || pinned->name != ref.stream) {
        return Status::InvalidArgument(
            "pinned source id " + std::to_string(pin->second) +
            " for alias '" + alias + "' does not back stream '" + ref.stream +
            "'");
      }
      entry = *pinned;
    } else {
      TCQ_ASSIGN_OR_RETURN(entry, catalog->InstantiateAlias(ref.stream));
      allocated->push_back(entry.source);
    }
    pq.bindings.emplace_back(alias, std::move(entry));
  }
  for (const auto& [alias, entry] : pq.bindings) {
    pq.spec.extra_sources |= SourceBit(entry.source);
  }

  // Lower WHERE conjuncts: the CACQ decomposition.
  for (const ast::Comparison& cmp : stmt.where) {
    const auto* lcol = std::get_if<ast::ColumnRef>(&cmp.lhs);
    const auto* rcol = std::get_if<ast::ColumnRef>(&cmp.rhs);
    if (lcol != nullptr && rcol != nullptr) {
      TCQ_ASSIGN_OR_RETURN(AttrRef left, ResolveColumn(pq, *lcol));
      TCQ_ASSIGN_OR_RETURN(AttrRef right, ResolveColumn(pq, *rcol));
      PredicateRef pred = MakeCompareAttrs(left, cmp.op, right);
      pq.all_predicates.push_back(pred);
      if (left.source != right.source && cmp.op == CmpOp::kEq) {
        pq.spec.joins.push_back(JoinEdge{left, right});
      } else {
        pq.spec.residuals.push_back(pred);
      }
      continue;
    }
    if (lcol == nullptr && rcol == nullptr) {
      return Status::InvalidArgument(
          "constant comparison in WHERE is not supported");
    }
    // Normalize to column OP literal.
    AttrRef attr;
    Value literal;
    CmpOp op = cmp.op;
    if (lcol != nullptr) {
      TCQ_ASSIGN_OR_RETURN(attr, ResolveColumn(pq, *lcol));
      literal = std::get<Value>(cmp.rhs);
    } else {
      TCQ_ASSIGN_OR_RETURN(attr, ResolveColumn(pq, *rcol));
      literal = std::get<Value>(cmp.lhs);
      op = Flip(op);
    }
    pq.all_predicates.push_back(MakeCompareConst(attr, op, literal));
    pq.spec.filters.push_back(FilterFactor{attr, op, literal});
  }

  // Projection.
  if (!stmt.select_all) {
    std::vector<AttrRef> attrs;
    for (const ast::ColumnRef& col : stmt.select_list) {
      TCQ_ASSIGN_OR_RETURN(AttrRef a, ResolveColumn(pq, col));
      attrs.push_back(std::move(a));
    }
    pq.projection.emplace(std::move(attrs));
  }

  // Window loop.
  if (stmt.for_loop.has_value()) {
    const ast::ForLoop& loop = *stmt.for_loop;
    ForLoopSpec spec;
    spec.t_init = loop.t_init;
    spec.condition = loop.condition;
    spec.t_step = loop.t_step;
    if (spec.t_step == 0) {
      return Status::InvalidArgument("for-loop step must be nonzero");
    }
    for (const ast::WindowIsStmt& w : loop.windows) {
      TCQ_ASSIGN_OR_RETURN(SourceId source, pq.SourceOf(w.target));
      WindowBound left{w.left.uses_t ? 1 : 0, w.left.offset};
      WindowBound right{w.right.uses_t ? 1 : 0, w.right.offset};
      spec.windows.push_back(WindowIs{source, left, right});
    }
    pq.window_loop = std::move(spec);
  }

  return pq;
}

}  // namespace

Result<PlannedQuery> PlanQuery(
    const ast::SelectStatement& stmt, Catalog* catalog,
    const std::map<std::string, SourceId>* pinned_aliases) {
  std::vector<SourceId> allocated;
  Result<PlannedQuery> pq = Plan(stmt, catalog, pinned_aliases, &allocated);
  // A failed plan hands back the alias ids it allocated.
  if (!pq.ok()) {
    for (SourceId s : allocated) (void)catalog->ReleaseAlias(s);
  }
  return pq;
}

}  // namespace tcq
