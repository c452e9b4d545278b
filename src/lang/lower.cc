#include "lang/lower.h"

#include <algorithm>

#include "common/strings.h"
#include "lang/parser.h"
#include "query/optimizer.h"

namespace xfrag::lang {

namespace {

using ast::Expr;
using query::PlanNode;

Status Fail(Diagnostic* diag, size_t offset, std::string message) {
  if (diag != nullptr) {
    diag->message = message;
    diag->offset = offset;
  }
  return Status::InvalidArgument(
      StrFormat("%s at byte %zu", message.c_str(), offset));
}

void CollectTerms(const Expr& expr, std::vector<std::string>* out) {
  for (const std::string& term : expr.terms) {
    if (std::find(out->begin(), out->end(), term) == out->end()) {
      out->push_back(term);
    }
  }
  for (const auto& child : expr.children) CollectTerms(*child, out);
}

// An embedded term set is the powerset-join chain of its keyword scans
// (matching BuildInitialPlan's m >= 2 shape); a single term is a bare scan.
std::unique_ptr<PlanNode> LowerExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kTerms: {
      std::unique_ptr<PlanNode> plan = query::MakeScan(expr.terms[0]);
      for (size_t i = 1; i < expr.terms.size(); ++i) {
        plan = query::MakePowersetJoin(std::move(plan),
                                       query::MakeScan(expr.terms[i]));
      }
      return plan;
    }
    case Expr::Kind::kJoin:
      return query::MakePairwiseJoin(LowerExpr(*expr.children[0]),
                                     LowerExpr(*expr.children[1]));
    case Expr::Kind::kPowerset:
      return query::MakePowersetJoin(LowerExpr(*expr.children[0]),
                                     LowerExpr(*expr.children[1]));
    case Expr::Kind::kFixPoint:
      return query::MakeFixedPoint(LowerExpr(*expr.children[0]),
                                   expr.reduced);
    case Expr::Kind::kReduce:
      return query::MakeReduce(LowerExpr(*expr.children[0]));
  }
  return nullptr;
}

}  // namespace

StatusOr<LoweredQuery> Lower(const ast::Query& query, Diagnostic* diag) {
  LoweredQuery out;
  out.explain = query.explain;
  out.analyze = query.analyze;
  out.rank = query.rank;
  out.xml = query.xml;
  out.top_k = query.top_k;
  out.limit = query.limit;
  out.deadline_ms = query.deadline_ms;

  if (!query.mode.empty()) {
    if (query.mode == "leaf_strict") {
      out.leaf_strict = true;
    } else if (query.mode != "algebraic") {
      return Fail(diag, query.mode_offset,
                  StrFormat("unknown answer mode '%s' (expected algebraic|"
                            "leaf_strict)",
                            query.mode.c_str()));
    }
  }

  CollectTerms(*query.expr, &out.scan_terms);

  if (query.expr->kind == Expr::Kind::kTerms) {
    // Canonical: the same query::Query a JSON {"terms", "filter"} request
    // builds, so downstream behavior (strategies, caches, responses) is
    // byte-identical.
    out.canonical = true;
    out.canonical_query.terms = query.expr->terms;
    if (query.filter != nullptr) out.canonical_query.filter = query.filter;
    if (!query.strategy.empty()) {
      auto strategy = query::ParseStrategyName(query.strategy);
      if (!strategy.ok()) {
        return Fail(diag, query.strategy_offset, strategy.status().message());
      }
      out.strategy = strategy.value();
    }
    return out;
  }

  if (!query.strategy.empty()) {
    return Fail(diag, query.strategy_offset,
                "USING applies only to plain term-set queries; composed "
                "queries run exactly the plan as written");
  }
  std::unique_ptr<PlanNode> plan = LowerExpr(*query.expr);
  if (query.filter != nullptr) {
    plan = query::MakeSelect(query.filter, std::move(plan));
  }
  out.plan = std::move(plan);
  out.display = query.DisplayString();
  return out;
}

StatusOr<LoweredQuery> ParseAndLower(std::string_view text, Diagnostic* diag) {
  auto parsed = ParseQuery(text, diag);
  if (!parsed.ok()) return parsed.status();
  return Lower(parsed.value(), diag);
}

}  // namespace xfrag::lang
