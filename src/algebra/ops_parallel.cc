#include "algebra/ops_parallel.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "algebra/dag_cache.h"
#include "algebra/fragment_pool.h"

namespace xfrag::algebra {

namespace {

// One chunk's private output: fragments in pair order, local counters, and
// the worker's reusable join scratch.
struct ChunkOut {
  std::vector<Fragment> produced;
  OpMetrics metrics;
  JoinArena arena;
};

// One chunk's private class-aware state (see algebra/dag_cache.h). Each
// worker interns forms and caches outcomes independently — lock-free, and
// sound because a cached outcome replays the evaluation exactly, so only
// the schedule-dependent dag counters differ between thread counts, never
// results or logical counters.
struct ChunkDag {
  ChunkDag(const Document& document, const doc::SubtreeClassIndex& dag)
      : forms(document, dag) {}
  DagFormTable forms;
  DagOutcomeMap outcomes;
  std::vector<uint32_t> forms_left, forms_right;
  std::vector<NodeId> anchors_left, anchors_right;

  bool PairCacheable(size_t li, size_t ri, uint64_t* key) const {
    if (forms_left[li] == kNoLocalForm || forms_right[ri] == kNoLocalForm ||
        anchors_left[li] != anchors_right[ri]) {
      return false;
    }
    *key = DagPairKey(forms_left[li], forms_right[ri]);
    return true;
  }
};

std::vector<FragmentSummary> SummarizeRefs(const FragmentPool& frags,
                                           const std::vector<FragmentRef>& refs,
                                           const Document& document) {
  std::vector<FragmentSummary> out;
  out.reserve(refs.size());
  for (FragmentRef ref : refs) out.push_back(frags.Get(ref).Summary(document));
  return out;
}

// The flattened serial pair loop restricted to [begin, end): pair p joins
// left[p / |right|] with right[p % |right|], exactly the order the serial
// double loop visits. `filter`, when non-null, drops non-matching results —
// with `prefilter` set, pairs whose summary bounds already violate the filter
// are rejected in O(1), counted exactly like the serial kernel counts them
// (so chunk-merged totals stay identical at every thread count).
void JoinPairRange(const Document& document, const FragmentPool& frags,
                   const std::vector<FragmentRef>& left,
                   const std::vector<FragmentRef>& right,
                   const std::vector<FragmentSummary>& left_sums,
                   const std::vector<FragmentSummary>& right_sums,
                   bool prefilter, const Filter* filter,
                   const FilterContext* context,
                   const doc::SubtreeClassIndex* dag, size_t begin, size_t end,
                   ChunkOut* out) {
  const size_t nr = right.size();
  out->produced.reserve(end - begin);
  std::optional<ChunkDag> cd;
  if (dag != nullptr && filter != nullptr && begin < end) {
    cd.emplace(document, *dag);
    cd->forms_left.assign(left.size(), kNoLocalForm);
    cd->anchors_left.assign(left.size(), doc::kNoNode);
    cd->forms_right.assign(nr, kNoLocalForm);
    cd->anchors_right.assign(nr, doc::kNoNode);
    // Only the rows this chunk's pair range touches need left forms.
    for (size_t li = begin / nr; li <= (end - 1) / nr; ++li) {
      cd->forms_left[li] =
          cd->forms.Intern(frags.Get(left[li]), &cd->anchors_left[li]);
    }
    for (size_t ri = 0; ri < nr; ++ri) {
      cd->forms_right[ri] =
          cd->forms.Intern(frags.Get(right[ri]), &cd->anchors_right[ri]);
    }
    out->metrics.classes_total += cd->forms.size();
  }
  for (size_t p = begin; p < end; ++p) {
    const size_t li = p / nr;
    const size_t ri = p % nr;
    uint64_t key = 0;
    bool cacheable = false;
    if (filter != nullptr) {
      ++out->metrics.pairs_considered;
      cacheable = cd.has_value() && cd->PairCacheable(li, ri, &key);
      if (cacheable) {
        auto it = cd->outcomes.find(key);
        if (it != cd->outcomes.end()) {
          // Replay: exactly the counter deltas of the serial path below.
          const DagPairOutcome& o = it->second;
          ++out->metrics.class_pairs_considered;
          ++out->metrics.fragment_joins;
          ++out->metrics.fragments_produced;
          ++out->metrics.filter_evals;
          if (o.kind == DagPairOutcome::kPrefilterRejected) {
            ++out->metrics.filter_rejections;
            ++out->metrics.pairs_rejected_summary;
          } else if (o.kind == DagPairOutcome::kFilterRejected) {
            ++out->metrics.filter_rejections;
          } else {
            ++out->metrics.answers_multiplied_out;
            const NodeId anchor = cd->anchors_left[li];
            out->produced.push_back(
                TranslateOutcome(o, anchor, document.depth(anchor)));
          }
          continue;
        }
      }
      if (prefilter &&
          filter->RejectsJoinBounds(
              ComputeJoinBounds(document, left_sums[li], right_sums[ri]),
              *context)) {
        ++out->metrics.fragment_joins;
        ++out->metrics.fragments_produced;
        ++out->metrics.filter_evals;
        ++out->metrics.filter_rejections;
        ++out->metrics.pairs_rejected_summary;
        if (cacheable) {
          cd->outcomes[key].kind = DagPairOutcome::kPrefilterRejected;
        }
        continue;
      }
    }
    const Fragment& f1 = frags.Get(left[li]);
    const Fragment& f2 = frags.Get(right[ri]);
    Fragment joined =
        JoinWithArena(document, f1, f2, &out->arena, &out->metrics);
    if (filter != nullptr) {
      ++out->metrics.filter_evals;
      if (!filter->Matches(joined, *context)) {
        ++out->metrics.filter_rejections;
        if (cacheable) {
          cd->outcomes[key].kind = DagPairOutcome::kFilterRejected;
        }
        continue;
      }
      if (cacheable) {
        DagPairOutcome& rec = cd->outcomes[key];
        rec.kind = DagPairOutcome::kSurvived;
        const NodeId anchor = cd->anchors_left[li];
        rec.rel_nodes.reserve(joined.size());
        for (NodeId n : joined.nodes()) rec.rel_nodes.push_back(n - anchor);
        rec.rel_max_depth = joined.MaxDepth(document) - document.depth(anchor);
      }
    }
    out->produced.push_back(std::move(joined));
  }
}

// Fans |left|·|right| joins out over the pool; at the barrier, interns the
// surviving fragments chunk by chunk (= serial pair order) and merges each
// chunk's counters into `metrics` explicitly. Returns refs pre-dedup, in
// serial production order. Operand summaries are computed once up front so
// every worker prefilters from the same read-only vectors.
std::vector<FragmentRef> ParallelPairJoins(
    const Document& document, FragmentPool* frags,
    const std::vector<FragmentRef>& left,
    const std::vector<FragmentRef>& right, const Filter* filter,
    const FilterContext* context, const doc::SubtreeClassIndex* dag,
    ThreadPool* pool, OpMetrics* metrics) {
  const size_t pairs = left.size() * right.size();
  const bool prefilter = filter != nullptr && SummaryPrefilterEnabled();
  std::vector<FragmentSummary> left_sums;
  std::vector<FragmentSummary> right_sums;
  if (prefilter) {
    left_sums = SummarizeRefs(*frags, left, document);
    right_sums = SummarizeRefs(*frags, right, document);
  }
  std::vector<ChunkOut> chunks(pool->parallelism());
  pool->ParallelFor(pairs, [&](unsigned chunk, size_t begin, size_t end) {
    JoinPairRange(document, *frags, left, right, left_sums, right_sums,
                  prefilter, filter, context, dag, begin, end, &chunks[chunk]);
  });
  std::vector<FragmentRef> produced;
  produced.reserve(pairs);
  for (ChunkOut& chunk : chunks) {
    if (metrics != nullptr) metrics->Merge(chunk.metrics);
    for (Fragment& f : chunk.produced) {
      produced.push_back(frags->Intern(std::move(f)));
    }
  }
  return produced;
}

FragmentRefSet Deduped(const std::vector<FragmentRef>& produced) {
  FragmentRefSet out;
  for (FragmentRef ref : produced) out.Insert(ref);
  return out;
}

}  // namespace

FragmentSet PairwiseJoinParallel(const Document& document,
                                 const FragmentSet& set1,
                                 const FragmentSet& set2, ThreadPool* pool,
                                 OpMetrics* metrics) {
  if (pool == nullptr) return PairwiseJoin(document, set1, set2, metrics);
  FragmentPool frags;
  FragmentRefSet s1 = InternSet(&frags, set1);
  FragmentRefSet s2 = InternSet(&frags, set2);
  std::vector<FragmentRef> produced =
      ParallelPairJoins(document, &frags, s1.refs(), s2.refs(),
                        /*filter=*/nullptr, /*context=*/nullptr,
                        /*dag=*/nullptr, pool, metrics);
  return Deduped(produced).Materialize(frags);
}

FragmentSet PairwiseJoinFilteredParallel(const Document& document,
                                         const FragmentSet& set1,
                                         const FragmentSet& set2,
                                         const FilterPtr& filter,
                                         const FilterContext& context,
                                         ThreadPool* pool,
                                         OpMetrics* metrics,
                                         const doc::SubtreeClassIndex* dag) {
  if (pool == nullptr) {
    return PairwiseJoinFiltered(document, set1, set2, filter, context,
                                metrics, dag);
  }
  FragmentPool frags;
  FragmentRefSet s1 = InternSet(&frags, set1);
  FragmentRefSet s2 = InternSet(&frags, set2);
  std::vector<FragmentRef> produced = ParallelPairJoins(
      document, &frags, s1.refs(), s2.refs(), filter.get(), &context,
      DagUsable(dag, filter) ? dag : nullptr, pool, metrics);
  return Deduped(produced).Materialize(frags);
}

void PairwiseJoinTopKParallel(const Document& document, const FragmentSet& set1,
                              const FragmentSet& set2, const FilterPtr& filter,
                              const FilterContext& context,
                              const JoinScorer& scorer,
                              const FragmentPredicate& accept,
                              TopKCollector* collector, ThreadPool* pool,
                              OpMetrics* metrics, const CancelToken* cancel,
                              const doc::SubtreeClassIndex* dag) {
  if (pool == nullptr) {
    PairwiseJoinTopK(document, set1, set2, filter, context, scorer, accept,
                     collector, metrics, cancel, dag);
    return;
  }
  const size_t nr = set2.size();
  const size_t pairs = set1.size() * nr;
  const bool prefilter = SummaryPrefilterEnabled();
  const doc::SubtreeClassIndex* chunk_dag = DagUsable(dag, filter) ? dag : nullptr;
  std::vector<FragmentSummary> sums1;
  std::vector<FragmentSummary> sums2;
  sums1.reserve(set1.size());
  sums2.reserve(nr);
  for (const Fragment& f : set1) sums1.push_back(f.Summary(document));
  for (const Fragment& f : set2) sums2.push_back(f.Summary(document));
  // Evidence summaries, precomputed once and shared read-only by every
  // chunk (as in the serial kernel, including the row-skip inputs).
  const bool evidence = scorer.HasEvidenceBound() && nr > 0;
  std::vector<std::vector<double>> ev1;
  std::vector<std::vector<double>> ev2;
  std::vector<double> ev2_max;
  uint32_t min_size2 = 0;
  if (evidence) {
    ev1.reserve(set1.size());
    for (const Fragment& f : set1) ev1.push_back(scorer.FragmentEvidence(f));
    ev2.reserve(nr);
    for (const Fragment& f : set2) ev2.push_back(scorer.FragmentEvidence(f));
    ev2_max = ev2[0];
    for (const std::vector<double>& e : ev2) {
      for (size_t t = 0; t < e.size(); ++t) {
        ev2_max[t] = std::max(ev2_max[t], e[t]);
      }
    }
    min_size2 = sums2[0].size;
    for (const FragmentSummary& s : sums2) {
      min_size2 = std::min(min_size2, s.size);
    }
    // Floor bootstrap before the chunks copy the output collector's floor,
    // so every worker prunes against it from its first pair (see ops.h).
    WarmupTopKFloor(document, set1, set2, sums1, sums2, ev1, ev2, filter,
                    context, scorer, accept, collector);
  }
  struct TopKChunk {
    explicit TopKChunk(size_t k) : collector(k) {}
    TopKCollector collector;
    OpMetrics metrics;
    JoinArena arena;
  };
  std::vector<TopKChunk> chunks;
  chunks.reserve(pool->parallelism());
  for (unsigned c = 0; c < pool->parallelism(); ++c) {
    chunks.emplace_back(collector->k());
    // Private collectors inherit the output collector's external floor so
    // every worker prunes against it; sound because the floor's witnesses
    // need not be offered to any particular chunk.
    chunks.back().collector.SeedFloor(collector->seeded_floor());
  }
  pool->ParallelFor(pairs, [&](unsigned chunk, size_t begin, size_t end) {
    TopKChunk& out = chunks[chunk];
    // Per-chunk class-aware cache (see JoinPairRange): consulted only after
    // the collector-dependent score bounds, exactly like the serial kernel.
    std::optional<ChunkDag> cd;
    if (chunk_dag != nullptr && begin < end) {
      cd.emplace(document, *chunk_dag);
      cd->forms_left.assign(set1.size(), kNoLocalForm);
      cd->anchors_left.assign(set1.size(), doc::kNoNode);
      cd->forms_right.assign(nr, kNoLocalForm);
      cd->anchors_right.assign(nr, doc::kNoNode);
      for (size_t li = begin / nr; li <= (end - 1) / nr; ++li) {
        cd->forms_left[li] = cd->forms.Intern(set1[li], &cd->anchors_left[li]);
      }
      for (size_t ri = 0; ri < nr; ++ri) {
        cd->forms_right[ri] =
            cd->forms.Intern(set2[ri], &cd->anchors_right[ri]);
      }
      out.metrics.classes_total += cd->forms.size();
    }
    size_t since_poll = 0;
    size_t row_checked = std::numeric_limits<size_t>::max();
    for (size_t p = begin; p < end; ++p) {
      if (++since_poll >= 1024) {
        since_poll = 0;
        if (ShouldStop(cancel)) return;
      }
      const size_t li = p / nr;
      const size_t ri = p % nr;
      // Row-level bound, tested once per row entered (as in the serial
      // kernel): when it fails against this chunk's floor, bulk-account the
      // chunk's remaining slice of the row and jump past it.
      if (evidence && li != row_checked) {
        row_checked = li;
        if (!out.collector.CouldAccept(scorer.EvidenceUpperBoundFromSize(
                ev1[li], ev2_max, std::max(sums1[li].size, min_size2)))) {
          const size_t row_end = std::min(end, (li + 1) * nr);
          const size_t skipped = row_end - p;
          out.metrics.pairs_considered += skipped;
          out.metrics.pairs_rejected_score += skipped;
          since_poll += skipped - 1;
          if (since_poll >= 1024) {
            since_poll = 0;
            if (ShouldStop(cancel)) return;
          }
          p = row_end - 1;  // the loop increment lands on the next row
          continue;
        }
      }
      ++out.metrics.pairs_considered;
      // Pair-level evidence pre-check from sizes alone, before the LCA (as
      // in the serial kernel).
      if (evidence &&
          !out.collector.CouldAccept(scorer.EvidenceUpperBoundFromSize(
              ev1[li], ev2[ri], std::max(sums1[li].size, sums2[ri].size)))) {
        ++out.metrics.pairs_rejected_score;
        continue;
      }
      JoinBounds bounds = ComputeJoinBounds(document, sums1[li], sums2[ri]);
      uint64_t key = 0;
      const bool cacheable =
          cd.has_value() && cd->PairCacheable(li, ri, &key);
      const DagPairOutcome* hit = nullptr;
      if (cacheable) {
        auto it = cd->outcomes.find(key);
        if (it != cd->outcomes.end()) hit = &it->second;
      }
      if (hit != nullptr && hit->kind == DagPairOutcome::kPrefilterRejected) {
        ++out.metrics.class_pairs_considered;
        ++out.metrics.fragment_joins;
        ++out.metrics.fragments_produced;
        ++out.metrics.filter_evals;
        ++out.metrics.filter_rejections;
        ++out.metrics.pairs_rejected_summary;
        continue;
      }
      if (hit == nullptr && prefilter &&
          filter->RejectsJoinBounds(bounds, context)) {
        ++out.metrics.fragment_joins;
        ++out.metrics.fragments_produced;
        ++out.metrics.filter_evals;
        ++out.metrics.filter_rejections;
        ++out.metrics.pairs_rejected_summary;
        if (cacheable) {
          cd->outcomes[key].kind = DagPairOutcome::kPrefilterRejected;
        }
        continue;
      }
      // Coarsest bound first, as in the serial kernel (evidence between the
      // two interval bounds).
      if (!out.collector.CouldAccept(scorer.QuickUpperBound(bounds)) ||
          (evidence && !out.collector.CouldAccept(scorer.EvidenceUpperBound(
                           ev1[li], ev2[ri], bounds))) ||
          !out.collector.CouldAccept(scorer.UpperBound(bounds))) {
        ++out.metrics.pairs_rejected_score;
        continue;
      }
      if (hit != nullptr) {
        ++out.metrics.class_pairs_considered;
        ++out.metrics.fragment_joins;
        ++out.metrics.fragments_produced;
        ++out.metrics.filter_evals;
        if (hit->kind == DagPairOutcome::kFilterRejected) {
          ++out.metrics.filter_rejections;
          continue;
        }
        if (hit->kind == DagPairOutcome::kAcceptRejected) continue;
        ++out.metrics.answers_multiplied_out;
        const NodeId anchor = cd->anchors_left[li];
        Fragment translated =
            TranslateOutcome(*hit, anchor, document.depth(anchor));
        if (out.collector.Contains(translated)) continue;
        out.collector.Offer(std::move(translated), hit->score);
        continue;
      }
      Fragment joined = JoinWithArena(document, set1[li], set2[ri], &out.arena,
                                      &out.metrics);
      ++out.metrics.filter_evals;
      if (!filter->Matches(joined, context)) {
        ++out.metrics.filter_rejections;
        if (cacheable) {
          cd->outcomes[key].kind = DagPairOutcome::kFilterRejected;
        }
        continue;
      }
      if (accept && !accept(joined)) {
        if (cacheable) {
          cd->outcomes[key].kind = DagPairOutcome::kAcceptRejected;
        }
        continue;
      }
      if (cacheable) {
        double score = scorer.Score(joined);
        DagPairOutcome& rec = cd->outcomes[key];
        rec.kind = DagPairOutcome::kSurvived;
        const NodeId anchor = cd->anchors_left[li];
        rec.rel_nodes.reserve(joined.size());
        for (NodeId n : joined.nodes()) rec.rel_nodes.push_back(n - anchor);
        rec.rel_max_depth = joined.MaxDepth(document) - document.depth(anchor);
        rec.score = score;
        if (out.collector.Contains(joined)) continue;
        out.collector.Offer(std::move(joined), score);
        continue;
      }
      // As in the serial kernel: a retained duplicate is already scored.
      if (out.collector.Contains(joined)) continue;
      double score = scorer.Score(joined);
      out.collector.Offer(std::move(joined), score);
    }
  });
  // Barrier: re-offer each chunk's survivors. The collector's content is
  // order-independent (see topk.h), so chunk order only matters for
  // determinism of the metrics merge.
  for (TopKChunk& chunk : chunks) {
    if (metrics != nullptr) metrics->Merge(chunk.metrics);
    collector->MergeFloorAudit(chunk.collector);
    for (ScoredFragment& sf : chunk.collector.TakeSorted()) {
      collector->Offer(std::move(sf.fragment), sf.score);
    }
  }
}

FragmentSet ReduceParallel(const Document& document, const FragmentSet& set,
                           ThreadPool* pool, OpMetrics* metrics) {
  if (pool == nullptr) return Reduce(document, set, metrics);
  const size_t n = set.size();
  // Each chunk owns a slice of the outer i-loop and a private elimination
  // bitmap; bitmaps are OR-merged at the barrier. A worker may re-derive an
  // elimination another worker already found — the final bitmap (and the
  // join count, which covers all n(n−1)/2 pairs either way) is identical to
  // the serial pass. All workers share the read-only candidate index; each
  // skips subsumption tests its own interval/size window rules out (so
  // subsume_checks_skipped is per-worker-schedule dependent — see OpMetrics).
  const bool prefilter = SummaryPrefilterEnabled();
  const std::vector<ReduceEntry> by_min = BuildReduceIndex(set);
  struct ReduceChunk {
    std::vector<uint8_t> eliminated;
    size_t eliminated_count = 0;
    OpMetrics metrics;
    JoinArena arena;
  };
  std::vector<ReduceChunk> chunks(pool->parallelism());
  pool->ParallelFor(n, [&](unsigned chunk, size_t begin, size_t end) {
    ReduceChunk& out = chunks[chunk];
    out.eliminated.assign(n, 0);
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        Fragment joined =
            JoinWithArena(document, set[i], set[j], &out.arena, &out.metrics);
        if (!prefilter) {
          for (size_t t = 0; t < n; ++t) {
            if (t == i || t == j || out.eliminated[t]) continue;
            if (joined.ContainsFragment(set[t])) out.eliminated[t] = 1;
          }
          continue;
        }
        size_t live_targets = (n - out.eliminated_count) -
                              (out.eliminated[i] ? 0 : 1) -
                              (out.eliminated[j] ? 0 : 1);
        size_t checks = 0;
        auto [lo, hi] =
            ReduceWindow(by_min, joined.min_pre(), joined.max_pre());
        for (size_t k = lo; k < hi; ++k) {
          const ReduceEntry& e = by_min[k];
          size_t t = e.index;
          if (t == i || t == j || out.eliminated[t]) continue;
          if (e.max > joined.max_pre() ||
              e.size > static_cast<uint32_t>(joined.size())) {
            continue;
          }
          ++checks;
          if (joined.ContainsFragment(set[t])) {
            out.eliminated[t] = 1;
            ++out.eliminated_count;
          }
        }
        out.metrics.subsume_checks_skipped += live_targets - checks;
      }
    }
  });
  std::vector<uint8_t> eliminated(n, 0);
  for (const ReduceChunk& chunk : chunks) {
    if (metrics != nullptr) metrics->Merge(chunk.metrics);
    for (size_t t = 0; t < chunk.eliminated.size(); ++t) {
      eliminated[t] |= chunk.eliminated[t];
    }
  }
  FragmentSet out;
  for (size_t t = 0; t < n; ++t) {
    if (!eliminated[t]) out.Insert(set[t]);
  }
  return out;
}

FragmentSet FixedPointNaiveParallel(const Document& document,
                                    const FragmentSet& set, ThreadPool* pool,
                                    OpMetrics* metrics,
                                    const CancelToken* cancel) {
  if (pool == nullptr) return FixedPointNaive(document, set, metrics, cancel);
  FragmentPool frags;
  FragmentRefSet base = InternSet(&frags, set);
  FragmentRefSet current = base;
  while (!ShouldStop(cancel)) {
    if (metrics != nullptr) ++metrics->fixed_point_iterations;
    std::vector<FragmentRef> produced = ParallelPairJoins(
        document, &frags, current.refs(), base.refs(), /*filter=*/nullptr,
        /*context=*/nullptr, /*dag=*/nullptr, pool, metrics);
    // The union step: O(new refs), no vector copies (the serial kernel
    // re-copies the whole working set here).
    size_t before = current.size();
    for (FragmentRef ref : produced) current.Insert(ref);
    if (current.size() == before) break;
  }
  return current.Materialize(frags);
}

FragmentSet FixedPointReducedParallel(const Document& document,
                                      const FragmentSet& set, ThreadPool* pool,
                                      OpMetrics* metrics,
                                      const CancelToken* cancel) {
  if (pool == nullptr) {
    return FixedPointReduced(document, set, metrics, cancel);
  }
  if (set.size() <= 1) return set;
  FragmentSet reduced = ReduceParallel(document, set, pool, metrics);
  size_t k = std::max<size_t>(reduced.size(), 1);
  FragmentPool frags;
  FragmentRefSet base = InternSet(&frags, set);
  FragmentRefSet current = base;
  // ⋈_k(F): k−1 unchecked pairwise self-joins (Theorem 1), each fanned out.
  for (size_t i = 1; i < k && !ShouldStop(cancel); ++i) {
    if (metrics != nullptr) ++metrics->fixed_point_iterations;
    std::vector<FragmentRef> produced = ParallelPairJoins(
        document, &frags, current.refs(), base.refs(), /*filter=*/nullptr,
        /*context=*/nullptr, /*dag=*/nullptr, pool, metrics);
    current = Deduped(produced);
  }
  return current.Materialize(frags);
}

FragmentSet FixedPointFilteredParallel(const Document& document,
                                       const FragmentSet& set,
                                       const FilterPtr& filter,
                                       const FilterContext& context,
                                       ThreadPool* pool, OpMetrics* metrics,
                                       const CancelToken* cancel,
                                       const doc::SubtreeClassIndex* dag) {
  if (pool == nullptr) {
    return FixedPointFiltered(document, set, filter, context, metrics, cancel,
                              dag);
  }
  const doc::SubtreeClassIndex* usable_dag =
      DagUsable(dag, filter) ? dag : nullptr;
  // Base selection first (cheap, |F| filter evals) stays serial so the eval
  // counters accumulate in the serial order.
  FragmentSet selected = Select(set, filter, context, metrics, usable_dag);
  FragmentPool frags;
  FragmentRefSet base = InternSet(&frags, selected);
  FragmentRefSet current = base;
  while (!ShouldStop(cancel)) {
    if (metrics != nullptr) ++metrics->fixed_point_iterations;
    std::vector<FragmentRef> produced =
        ParallelPairJoins(document, &frags, current.refs(), base.refs(),
                          filter.get(), &context, usable_dag, pool, metrics);
    size_t before = current.size();
    for (FragmentRef ref : produced) current.Insert(ref);
    if (current.size() == before) break;
  }
  return current.Materialize(frags);
}

}  // namespace xfrag::algebra
