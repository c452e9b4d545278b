#include "query/optimizer.h"

#include <algorithm>

#include "algebra/ops.h"
#include "common/rng.h"
#include "common/strings.h"

namespace xfrag::query {

using algebra::Fragment;
using algebra::FragmentSet;

std::string_view StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kBruteForce:
      return "brute-force";
    case Strategy::kFixedPointNaive:
      return "fixed-point-naive";
    case Strategy::kFixedPointReduced:
      return "fixed-point-reduced";
    case Strategy::kPushDown:
      return "push-down";
    case Strategy::kAuto:
      return "auto";
    case Strategy::kExplicit:
      return "explicit";
  }
  return "unknown";
}

StatusOr<Strategy> ParseStrategyName(std::string_view name) {
  if (name == "auto") return Strategy::kAuto;
  if (name == "brute") return Strategy::kBruteForce;
  if (name == "naive") return Strategy::kFixedPointNaive;
  if (name == "reduced") return Strategy::kFixedPointReduced;
  if (name == "pushdown") return Strategy::kPushDown;
  return Status::InvalidArgument(
      StrFormat("unknown strategy '%.*s' (expected auto|brute|naive|reduced|"
                "pushdown)",
                static_cast<int>(name.size()), name.data()));
}

double ReductionFactor(const doc::Document& document, const FragmentSet& set) {
  if (set.size() < 2) return 0.0;
  FragmentSet reduced = algebra::Reduce(document, set);
  return static_cast<double>(set.size() - reduced.size()) /
         static_cast<double>(set.size());
}

double EstimateReductionFactor(const doc::Document& document,
                               const FragmentSet& set, size_t sample_size,
                               uint64_t seed) {
  if (set.size() <= sample_size) return ReductionFactor(document, set);
  Rng rng(seed);
  std::vector<size_t> indexes(set.size());
  for (size_t i = 0; i < indexes.size(); ++i) indexes[i] = i;
  rng.Shuffle(&indexes);
  FragmentSet sample;
  for (size_t i = 0; i < sample_size; ++i) sample.Insert(set[indexes[i]]);
  return ReductionFactor(document, sample);
}

PlanDecision ChooseStrategy(const Query& query, const doc::Document& document,
                            const text::InvertedIndex& index,
                            const OptimizerOptions& options) {
  PlanDecision decision;
  algebra::SplitAntiMonotonic(query.filter, &decision.anti_monotonic,
                              &decision.residue);

  const bool has_anti =
      decision.anti_monotonic.get() != algebra::filters::True().get();
  if (has_anti) {
    // Theorem 3: pushing σ_Pa below the joins never adds fragments and
    // strictly prunes the join inputs; always preferable.
    decision.strategy = Strategy::kPushDown;
    decision.rationale =
        "anti-monotonic conjunct '" + decision.anti_monotonic->ToString() +
        "' found; Theorem 3 push-down applies";
    return decision;
  }

  // No pushable filter: choose among the unfiltered closure strategies.
  size_t max_base = 0;
  double min_rf = 1.0;
  for (const auto& term : query.terms) {
    const auto& postings = index.Lookup(term);
    max_base = std::max(max_base, postings.size());
    FragmentSet base;
    for (doc::NodeId n : postings) base.Insert(Fragment::Single(n));
    double rf = EstimateReductionFactor(document, base,
                                        options.rf_sample_size, options.seed);
    decision.estimated_rf.push_back(rf);
    min_rf = std::min(min_rf, rf);
  }

  if (max_base <= options.brute_force_limit && max_base <= 4) {
    decision.strategy = Strategy::kBruteForce;
    decision.rationale = StrFormat(
        "base sets tiny (max %zu); subset enumeration is cheapest", max_base);
    return decision;
  }
  if (!decision.estimated_rf.empty() && min_rf >= options.rf_threshold) {
    decision.strategy = Strategy::kFixedPointReduced;
    decision.rationale = StrFormat(
        "estimated RF %.2f >= threshold %.2f; Theorem-1 reduced fixed point",
        min_rf, options.rf_threshold);
    return decision;
  }
  decision.strategy = Strategy::kFixedPointNaive;
  decision.rationale = StrFormat(
      "estimated RF %.2f below threshold %.2f; ⊖ overhead not justified",
      decision.estimated_rf.empty() ? 0.0 : min_rf, options.rf_threshold);
  return decision;
}

}  // namespace xfrag::query
