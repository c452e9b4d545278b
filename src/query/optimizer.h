// The paper's §5 sketch, made concrete: the optimizer decides (1) whether to
// push anti-monotonic selections down (Theorem 3 — always beneficial when an
// anti-monotonic conjunct exists), and (2) whether the Theorem-1 reduced
// fixed point is worth its ⊖ overhead, by estimating the reduction factor
// RF = (|F| − |⊖(F)|) / |F| on a sample and comparing it with a threshold.

#ifndef XFRAG_QUERY_OPTIMIZER_H_
#define XFRAG_QUERY_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/filter.h"
#include "algebra/fragment_set.h"
#include "common/status.h"
#include "query/query.h"
#include "text/inverted_index.h"

namespace xfrag::query {

/// Evaluation strategy for a query (paper §4's three strategies plus Auto).
enum class Strategy {
  /// §4.1: literal powerset join, filter at the end. Exponential.
  kBruteForce,
  /// §3.1.1: fixed points with convergence checking, filter at the end.
  kFixedPointNaive,
  /// §4.2: Theorem-1 reduced fixed points, filter at the end.
  kFixedPointReduced,
  /// §4.3: anti-monotonic selection pushed below all joins (Theorem 3).
  kPushDown,
  /// Let the optimizer choose among the above.
  kAuto,
  /// An explicit plan supplied by the caller (the XQL front-end's composed
  /// queries). Never chosen by the optimizer and rejected by BuildPlan;
  /// only QueryEngine::EvaluatePlan reports it as the strategy used.
  kExplicit,
};

/// Stable display name of a strategy.
std::string_view StrategyName(Strategy strategy);

/// \brief Parses a strategy's request name (auto|brute|naive|reduced|
/// pushdown), as the JSON "strategy" field, XQL's STRATEGY clause and the
/// CLI spell it; anything else is InvalidArgument naming the choices.
StatusOr<Strategy> ParseStrategyName(std::string_view name);

/// Optimizer tuning knobs.
struct OptimizerOptions {
  /// Sample size (per base set) for reduction-factor estimation.
  size_t rf_sample_size = 12;
  /// Minimum estimated RF at which the reduced fixed point is chosen over
  /// the naive one (the paper's threshold "v", §5).
  double rf_threshold = 0.25;
  /// Base-set size above which brute force is never considered.
  size_t brute_force_limit = 8;
  /// Seed for the sampling RNG (deterministic planning).
  uint64_t seed = 42;
  /// Use the §5 cost model (query/cost_model.h) instead of the rule-based
  /// decision procedure when resolving Strategy::kAuto.
  bool use_cost_model = false;
};

/// The optimizer's decision and its reasoning, for EXPLAIN output.
struct PlanDecision {
  Strategy strategy = Strategy::kFixedPointNaive;
  /// Anti-monotonic part of the query filter (True when none).
  algebra::FilterPtr anti_monotonic;
  /// Remaining conjuncts evaluated at the top (True when none).
  algebra::FilterPtr residue;
  /// Estimated reduction factor per base set (empty when not estimated).
  std::vector<double> estimated_rf;
  /// Human-readable rationale.
  std::string rationale;
};

/// \brief Chooses an evaluation strategy for `query` against `index`.
///
/// Decision procedure: an anti-monotonic conjunct ⇒ kPushDown (Theorem 3 can
/// only remove work); otherwise estimate RF on samples of the base sets and
/// pick kFixedPointReduced above the threshold, kFixedPointNaive below.
/// Brute force is only ever chosen when base sets are tiny (≤ limit), where
/// its lack of ⊖/fixed-point overhead can win.
PlanDecision ChooseStrategy(const Query& query, const doc::Document& document,
                            const text::InvertedIndex& index,
                            const OptimizerOptions& options = {});

/// \brief Exact reduction factor RF = (|F| − |⊖(F)|) / |F| of a fragment set
/// (0 for sets with fewer than 2 fragments).
double ReductionFactor(const doc::Document& document,
                       const algebra::FragmentSet& set);

/// \brief Estimates RF from a uniform sample of `set` of size at most
/// `sample_size` (deterministic given `seed`).
double EstimateReductionFactor(const doc::Document& document,
                               const algebra::FragmentSet& set,
                               size_t sample_size, uint64_t seed);

}  // namespace xfrag::query

#endif  // XFRAG_QUERY_OPTIMIZER_H_
