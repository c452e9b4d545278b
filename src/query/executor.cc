#include "query/executor.h"

#include <memory>

#include "common/logging.h"
#include "query/batch.h"

namespace xfrag::query {

using algebra::FilterContext;
using algebra::Fragment;
using algebra::FragmentSet;
using algebra::OpMetrics;

namespace {

// A plan node's output on its way to its parent: owned by this evaluation,
// or borrowed from the FixedPointCache, where the shared_ptr pins the cached
// closure for as long as the operand lives. Operators that only read their
// operands (joins, reduce, the top-k kernel) read set() either way, so a
// cache hit copies nothing. Take() hands the set to a consumer that filters
// in place (σ) or returns it: an owned set moves, and a borrowed one is
// copied, because a cached closure is shared and must never be mutated.
class Operand {
 public:
  explicit Operand(FragmentSet owned) : owned_(std::move(owned)) {}
  explicit Operand(std::shared_ptr<const FragmentSet> borrowed)
      : borrowed_(std::move(borrowed)) {}

  const FragmentSet& set() const {
    return borrowed_ != nullptr ? *borrowed_ : owned_;
  }
  FragmentSet Take() && {
    if (borrowed_ != nullptr) return *borrowed_;
    return std::move(owned_);
  }

 private:
  FragmentSet owned_;
  std::shared_ptr<const FragmentSet> borrowed_;
};

StatusOr<Operand> Execute(const PlanNode& node, const doc::Document& document,
                          const text::InvertedIndex& index,
                          const ExecutorOptions& options,
                          const FilterContext& context, OpMetrics* metrics,
                          std::vector<NodeCardinality>* cardinalities);

// Runs one node and records its output cardinality.
StatusOr<Operand> ExecuteRecorded(
    const PlanNode& node, const doc::Document& document,
    const text::InvertedIndex& index, const ExecutorOptions& options,
    const FilterContext& context, OpMetrics* metrics,
    std::vector<NodeCardinality>* cardinalities) {
  auto result = Execute(node, document, index, options, context, metrics,
                        cardinalities);
  if (result.ok() && cardinalities != nullptr) {
    cardinalities->push_back({&node, result->set().size()});
  }
  return result;
}

Status DeadlineError() {
  return Status::DeadlineExceeded("query deadline exceeded during execution");
}

StatusOr<Operand> Execute(const PlanNode& node, const doc::Document& document,
                          const text::InvertedIndex& index,
                          const ExecutorOptions& options,
                          const FilterContext& context, OpMetrics* metrics,
                          std::vector<NodeCardinality>* cardinalities) {
  // Cooperative deadline: one check per plan node, plus the finer-grained
  // checks inside the unbounded kernels below.
  if (ShouldStop(options.cancel)) return DeadlineError();
  switch (node.kind) {
    case PlanNodeKind::kScanKeyword: {
      std::string memo_key;
      if (options.scan_memo != nullptr) {
        memo_key = ScanMemo::Key(
            options.scan_memo_document, node.term,
            node.filter != nullptr ? node.filter->ToString() : std::string());
        if (const ScanMemo::Entry* hit = options.scan_memo->Find(memo_key)) {
          // Replaying the stored deltas keeps the memoized path
          // byte-identical to re-decoding: scan metrics depend only on the
          // postings and the filter, never on execution order.
          if (metrics != nullptr) {
            metrics->filter_evals += hit->filter_evals;
            metrics->filter_rejections += hit->filter_rejections;
          }
          return Operand(hit->result);
        }
      }
      FragmentSet out;
      uint64_t evals = 0;
      uint64_t rejections = 0;
      for (doc::NodeId n : index.Lookup(node.term)) {
        Fragment f = Fragment::Single(n);
        if (node.filter != nullptr) {
          ++evals;
          if (!node.filter->Matches(f, context)) {
            ++rejections;
            continue;
          }
        }
        out.Insert(std::move(f));
      }
      if (metrics != nullptr) {
        metrics->filter_evals += evals;
        metrics->filter_rejections += rejections;
      }
      if (!memo_key.empty()) {
        options.scan_memo->Insert(std::move(memo_key),
                                  ScanMemo::Entry{out, evals, rejections});
      }
      return Operand(std::move(out));
    }
    case PlanNodeKind::kSelect: {
      XFRAG_CHECK(node.children.size() == 1);
      auto child = ExecuteRecorded(*node.children[0], document, index,
                                   options, context, metrics, cardinalities);
      if (!child.ok()) return child;
      return Operand(algebra::Select(std::move(*child).Take(), node.filter,
                                     context, metrics,
                                     options.subtree_classes));
    }
    case PlanNodeKind::kPairwiseJoin: {
      XFRAG_CHECK(node.children.size() == 2);
      auto left = ExecuteRecorded(*node.children[0], document, index,
                                  options, context, metrics, cardinalities);
      if (!left.ok()) return left;
      auto right = ExecuteRecorded(*node.children[1], document, index,
                                   options, context, metrics, cardinalities);
      if (!right.ok()) return right;
      FragmentSet joined =
          node.filter != nullptr
              ? algebra::PairwiseJoinFiltered(
                    document, left->set(), right->set(), node.filter, context,
                    metrics, options.subtree_classes, options.cancel)
              : algebra::PairwiseJoin(document, left->set(), right->set(),
                                      metrics, options.cancel);
      // A join cut short by the token is partial: never an answer.
      if (ShouldStop(options.cancel)) return DeadlineError();
      return Operand(std::move(joined));
    }
    case PlanNodeKind::kPowersetJoin: {
      XFRAG_CHECK(node.children.size() == 2);
      auto left = ExecuteRecorded(*node.children[0], document, index,
                                  options, context, metrics, cardinalities);
      if (!left.ok()) return left;
      auto right = ExecuteRecorded(*node.children[1], document, index,
                                   options, context, metrics, cardinalities);
      if (!right.ok()) return right;
      algebra::PowersetJoinOptions powerset = options.powerset;
      if (powerset.cancel == nullptr) powerset.cancel = options.cancel;
      auto joined = algebra::PowersetJoinBruteForce(
          document, left->set(), right->set(), powerset, metrics);
      if (!joined.ok()) return joined.status();
      return Operand(std::move(joined).value());
    }
    case PlanNodeKind::kFixedPoint: {
      XFRAG_CHECK(node.children.size() == 1);
      // Cross-query memoization: a FixedPoint directly over a Scan depends
      // only on the term and the attached filters, so its closure can be
      // reused between queries against the same document.
      std::string cache_key;
      if (options.fixed_point_cache != nullptr &&
          node.children[0]->kind == PlanNodeKind::kScanKeyword) {
        const PlanNode& scan = *node.children[0];
        cache_key = scan.term;
        cache_key += '\x1f';
        cache_key += scan.filter ? scan.filter->ToString() : "";
        cache_key += '\x1f';
        cache_key += node.filter ? node.filter->ToString() : "";
        cache_key += node.fixed_point_reduced ? "\x1fR" : "\x1fN";
        if (auto cached = options.fixed_point_cache->Find(cache_key)) {
          return Operand(std::move(cached));
        }
      }
      auto child = ExecuteRecorded(*node.children[0], document, index,
                                   options, context, metrics, cardinalities);
      if (!child.ok()) return child;
      const FragmentSet& base = child->set();
      FragmentSet closure = [&] {
        if (node.filter != nullptr) {
          return algebra::FixedPointFiltered(document, base, node.filter,
                                             context, metrics, options.cancel,
                                             options.subtree_classes);
        }
        if (node.fixed_point_reduced) {
          return algebra::FixedPointReduced(document, base, metrics,
                                            options.cancel);
        }
        return algebra::FixedPointNaive(document, base, metrics,
                                        options.cancel);
      }();
      // A cancelled kernel returns the partial working set it had; it must
      // surface as an error, and above all must never be cached as if it
      // were the true closure.
      if (ShouldStop(options.cancel)) return DeadlineError();
      if (cache_key.empty()) return Operand(std::move(closure));
      // Publish the closure and borrow it back: the cache and this
      // evaluation share one copy.
      auto shared = std::make_shared<const FragmentSet>(std::move(closure));
      options.fixed_point_cache->Insert(cache_key, shared);
      return Operand(std::move(shared));
    }
    case PlanNodeKind::kReduce: {
      XFRAG_CHECK(node.children.size() == 1);
      auto child = ExecuteRecorded(*node.children[0], document, index,
                                   options, context, metrics, cardinalities);
      if (!child.ok()) return child;
      FragmentSet reduced =
          algebra::Reduce(document, child->set(), metrics, options.cancel);
      if (ShouldStop(options.cancel)) return DeadlineError();
      return Operand(std::move(reduced));
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

StatusOr<FragmentSet> ExecutePlan(const PlanNode& plan,
                                  const doc::Document& document,
                                  const text::InvertedIndex& index,
                                  const ExecutorOptions& options,
                                  OpMetrics* metrics,
                                  std::vector<NodeCardinality>* cardinalities) {
  FilterContext context{&document, &index};
  auto result = ExecuteRecorded(plan, document, index, options, context,
                                metrics, cardinalities);
  if (!result.ok()) return result.status();
  return std::move(*result).Take();
}

StatusOr<std::vector<algebra::ScoredFragment>> ExecutePlanTopK(
    const PlanNode& plan, const doc::Document& document,
    const text::InvertedIndex& index, const ExecutorOptions& options,
    const algebra::JoinScorer& scorer, size_t k,
    const algebra::FragmentPredicate& accept, OpMetrics* metrics,
    std::vector<NodeCardinality>* cardinalities) {
  FilterContext context{&document, &index};

  // Peel σ_residue off the root; the shape σ(A ⋈ B) gets the bounded kernel.
  const PlanNode* root = &plan;
  algebra::FilterPtr residue;
  if (root->kind == PlanNodeKind::kSelect) {
    residue = root->filter;
    root = root->children[0].get();
  }
  if (root->kind == PlanNodeKind::kPairwiseJoin) {
    auto left = ExecuteRecorded(*root->children[0], document, index, options,
                                context, metrics, cardinalities);
    if (!left.ok()) return left.status();
    auto right = ExecuteRecorded(*root->children[1], document, index, options,
                                 context, metrics, cardinalities);
    if (!right.ok()) return right.status();
    // The collector must only ever hold true final answers (score pruning
    // compares candidates against heap members), so the residual selection
    // and the answer-mode condition gate admission. Not metered (see
    // header).
    algebra::FragmentPredicate admit;
    if (residue != nullptr || accept) {
      admit = [&residue, &accept, context](const Fragment& f) {
        if (residue != nullptr && !residue->Matches(f, context)) return false;
        if (accept && !accept(f)) return false;
        return true;
      };
    }
    algebra::FilterPtr join_filter =
        root->filter != nullptr ? root->filter : algebra::filters::True();
    algebra::TopKCollector collector(k);
    collector.SeedFloor(options.score_floor);
    // The bounded kernel caches accept-verdicts too, so DAG compression is
    // only licensed when the residual selection is translation-invariant
    // (the `accept` callback is the caller's promise; see ExecutorOptions).
    const doc::SubtreeClassIndex* dag =
        (residue == nullptr || residue->TranslationInvariant())
            ? options.subtree_classes
            : nullptr;
    algebra::PairwiseJoinTopK(document, left->set(), right->set(),
                              join_filter, context, scorer, admit, &collector,
                              metrics, options.cancel, dag);
    if (ShouldStop(options.cancel)) return DeadlineError();
    if (options.audit_score_floor && !collector.FloorAuditClean()) {
      return Status::Internal(
          "seeded score floor pruned a top-k answer (unsound floor)");
    }
    if (cardinalities != nullptr) {
      cardinalities->push_back({root, collector.size()});
      if (root != &plan) cardinalities->push_back({&plan, collector.size()});
    }
    return collector.TakeSorted();
  }

  // Fallback shapes (single-term fixed point, brute-force powerset join):
  // evaluate the whole plan — residual selection included — then heap-select.
  auto full = ExecuteRecorded(plan, document, index, options, context,
                              metrics, cardinalities);
  if (!full.ok()) return full.status();
  algebra::TopKCollector collector(k);
  collector.SeedFloor(options.score_floor);
  for (const Fragment& f : full->set()) {
    if (accept && !accept(f)) continue;
    collector.Offer(f, scorer.Score(f));
  }
  if (options.audit_score_floor && !collector.FloorAuditClean()) {
    return Status::Internal(
        "seeded score floor pruned a top-k answer (unsound floor)");
  }
  return collector.TakeSorted();
}

}  // namespace xfrag::query
