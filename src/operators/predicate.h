// Predicates: boolean factors over tuple attributes. Queries decompose into
// single-variable factors (routed to grouped filters) and multi-variable
// factors (equijoins executed by SteM probes, residuals checked once their
// sources are spanned) — exactly the decomposition CACQ performs (paper
// §3.1).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "tuple/tuple.h"

namespace tcq {

/// Comparison operators for boolean factors.
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

/// Evaluates `left op right` on already-extracted values.
bool EvalCmp(const Value& left, CmpOp op, const Value& right);

/// Reference to an attribute of a base stream by (source, name). Resolution
/// against a concrete tuple schema happens at eval time because eddy
/// intermediates appear in "a multitude of formats" (paper §4.2.2).
struct AttrRef {
  SourceId source = 0;
  std::string name;

  std::string ToString() const {
    return "s" + std::to_string(source) + "." + name;
  }
  bool operator==(const AttrRef&) const = default;
};

/// Abstract boolean factor.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Evaluates on a tuple; requires CanEval(tuple).
  virtual bool Eval(const Tuple& tuple) const = 0;

  /// All base sources whose attributes the predicate references.
  virtual SourceSet sources() const = 0;

  /// True when every referenced source is present in the tuple's span.
  bool CanEval(const Tuple& tuple) const {
    return (sources() & ~tuple.sources()) == 0;
  }

  virtual std::string ToString() const = 0;
};

using PredicateRef = std::shared_ptr<const Predicate>;

/// attr CMP literal — a single-variable boolean factor.
class CompareConst : public Predicate {
 public:
  CompareConst(AttrRef attr, CmpOp op, Value literal)
      : attr_(std::move(attr)), op_(op), literal_(std::move(literal)) {}

  bool Eval(const Tuple& tuple) const override;
  SourceSet sources() const override { return SourceBit(attr_.source); }
  std::string ToString() const override;

  const AttrRef& attr() const { return attr_; }
  CmpOp op() const { return op_; }
  const Value& literal() const { return literal_; }

 private:
  AttrRef attr_;
  CmpOp op_;
  Value literal_;
};

/// lo <= attr <= hi (inclusive ends toggleable) — the factor class grouped
/// filters index.
class RangePredicate : public Predicate {
 public:
  RangePredicate(AttrRef attr, Value lo, bool lo_inclusive, Value hi,
                 bool hi_inclusive)
      : attr_(std::move(attr)),
        lo_(std::move(lo)),
        hi_(std::move(hi)),
        lo_inclusive_(lo_inclusive),
        hi_inclusive_(hi_inclusive) {}

  bool Eval(const Tuple& tuple) const override;
  SourceSet sources() const override { return SourceBit(attr_.source); }
  std::string ToString() const override;

  const AttrRef& attr() const { return attr_; }
  const Value& lo() const { return lo_; }
  const Value& hi() const { return hi_; }
  bool lo_inclusive() const { return lo_inclusive_; }
  bool hi_inclusive() const { return hi_inclusive_; }

 private:
  AttrRef attr_;
  Value lo_, hi_;
  bool lo_inclusive_, hi_inclusive_;
};

/// left_attr CMP right_attr — a multi-variable factor (join or intra-tuple).
class CompareAttrs : public Predicate {
 public:
  CompareAttrs(AttrRef left, CmpOp op, AttrRef right)
      : left_(std::move(left)), op_(op), right_(std::move(right)) {}

  bool Eval(const Tuple& tuple) const override;
  SourceSet sources() const override {
    return SourceBit(left_.source) | SourceBit(right_.source);
  }
  std::string ToString() const override;

  const AttrRef& left() const { return left_; }
  CmpOp op() const { return op_; }
  const AttrRef& right() const { return right_; }

 private:
  AttrRef left_;
  CmpOp op_;
  AttrRef right_;
};

/// Conjunction of factors.
class AndPredicate : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicateRef> children);

  bool Eval(const Tuple& tuple) const override;
  SourceSet sources() const override { return sources_; }
  std::string ToString() const override;

  const std::vector<PredicateRef>& children() const { return children_; }

 private:
  std::vector<PredicateRef> children_;
  SourceSet sources_ = 0;
};

/// Disjunction of factors.
class OrPredicate : public Predicate {
 public:
  explicit OrPredicate(std::vector<PredicateRef> children);

  bool Eval(const Tuple& tuple) const override;
  SourceSet sources() const override { return sources_; }
  std::string ToString() const override;

  const std::vector<PredicateRef>& children() const { return children_; }

 private:
  std::vector<PredicateRef> children_;
  SourceSet sources_ = 0;
};

/// Negation.
class NotPredicate : public Predicate {
 public:
  explicit NotPredicate(PredicateRef child) : child_(std::move(child)) {}

  bool Eval(const Tuple& tuple) const override { return !child_->Eval(tuple); }
  SourceSet sources() const override { return child_->sources(); }
  std::string ToString() const override {
    return "NOT (" + child_->ToString() + ")";
  }

  const PredicateRef& child() const { return child_; }

 private:
  PredicateRef child_;
};

/// Always-true predicate (useful as a neutral element).
class TruePredicate : public Predicate {
 public:
  bool Eval(const Tuple&) const override { return true; }
  SourceSet sources() const override { return 0; }
  std::string ToString() const override { return "TRUE"; }
};

// Convenience factories.
PredicateRef MakeCompareConst(AttrRef attr, CmpOp op, Value literal);
PredicateRef MakeRange(AttrRef attr, Value lo, Value hi,
                       bool lo_inclusive = true, bool hi_inclusive = true);
PredicateRef MakeCompareAttrs(AttrRef left, CmpOp op, AttrRef right);
PredicateRef MakeAnd(std::vector<PredicateRef> children);
PredicateRef MakeOr(std::vector<PredicateRef> children);
PredicateRef MakeNot(PredicateRef child);
PredicateRef MakeTrue();

/// Looks up attr in the tuple's schema and returns its value, or null Value
/// if absent. Resolution is by (source, name) so intermediates qualify.
const Value* ResolveAttr(const Tuple& tuple, const AttrRef& attr);

}  // namespace tcq
