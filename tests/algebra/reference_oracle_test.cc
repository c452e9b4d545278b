// Reference oracle for the algebra kernels, written straight from the
// paper's definitions. A fragment (Def. 2) is a connected node set; the join
// of node sets (Def. 4) is their minimal connecting fragment, found here by
// walking parent pointers up to the set's lowest common ancestor; F⁺ (Def. 9)
// and F1 ⋈* F2 (Def. 6) enumerate subsets. The reference uses no
// algebra::Join, fragment summaries, subtree classes or index. Every kernel
// must return the reference result as a set, over seeded documents of at
// most 12 nodes with random operand sets and random anti-monotonic filters.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "algebra/ops.h"
#include "common/rng.h"
#include "doc/subtree_classes.h"

namespace xfrag::algebra {
namespace {

using doc::NodeId;
using NodeSet = std::vector<NodeId>;  // Sorted, duplicate-free.
using RefSet = std::set<NodeSet>;

// ---- The reference, from the definitions --------------------------------

NodeSet PathToRoot(const Document& d, NodeId n) {
  NodeSet path;
  for (; n != doc::kNoNode; n = d.parent(n)) path.push_back(n);
  return path;  // n, parent(n), ..., root.
}

// Def. 4 generalized to any node set: the union of the paths from each
// member up to the members' lowest common ancestor.
NodeSet Connect(const Document& d, const NodeSet& nodes) {
  std::vector<NodeSet> paths;
  for (NodeId n : nodes) paths.push_back(PathToRoot(d, n));
  // The LCA is the deepest node shared by every member's root path; walk
  // down from the root (the paths' common tail) while all paths agree.
  const NodeSet& first = paths[0];
  NodeId lca = first.back();
  for (size_t up = 1; up < first.size(); ++up) {
    NodeId candidate = first[first.size() - 1 - up];
    bool shared =
        std::all_of(paths.begin(), paths.end(), [&](const NodeSet& p) {
          return p.size() > up && p[p.size() - 1 - up] == candidate;
        });
    if (!shared) break;
    lca = candidate;
  }
  std::set<NodeId> out;
  for (const NodeSet& p : paths) {
    for (NodeId n : p) {
      out.insert(n);
      if (n == lca) break;
    }
  }
  return NodeSet(out.begin(), out.end());
}

NodeSet Unite(const NodeSet& a, const NodeSet& b) {
  NodeSet out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// ⋈ of the members of `family` selected by `mask` (non-empty).
NodeSet JoinSubset(const Document& d, const std::vector<NodeSet>& family,
                   size_t mask) {
  NodeSet all;
  for (size_t i = 0; i < family.size(); ++i) {
    if ((mask >> i) & 1) all = Unite(all, family[i]);
  }
  return Connect(d, all);
}

// Def. 9 by subset enumeration: F⁺ = { ⋈F' | ∅ ≠ F' ⊆ F }.
RefSet RefFixedPoint(const Document& d, const std::vector<NodeSet>& f) {
  RefSet out;
  for (size_t mask = 1; mask < (size_t{1} << f.size()); ++mask) {
    out.insert(JoinSubset(d, f, mask));
  }
  return out;
}

// The anti-monotonic filters of Def. 11 used here: a conjunction of bounds
// on size, height and pre-order span, evaluated from the node set itself.
struct RefFilter {
  uint32_t max_size, max_height, max_span;

  bool Matches(const Document& d, const NodeSet& f) const {
    uint32_t top = PathToRoot(d, f.front()).size();  // f.front() is the root.
    uint32_t height = 0;
    for (NodeId n : f) {
      height = std::max<uint32_t>(height, PathToRoot(d, n).size() - top);
    }
    return f.size() <= max_size && height <= max_height &&
           f.back() - f.front() <= max_span;
  }
  FilterPtr ToKernelFilter() const {
    return filters::AndAll({filters::SizeAtMost(max_size),
                            filters::HeightAtMost(max_height),
                            filters::SpanAtMost(max_span)});
  }
};

RefSet Selected(const Document& d, const RefSet& in, const RefFilter& p) {
  RefSet out;
  for (const NodeSet& f : in) {
    if (p.Matches(d, f)) out.insert(f);
  }
  return out;
}

// ---- Seeded inputs -------------------------------------------------------

// A random pre-order tree of 2..12 nodes. Even seeds repeat one subtree
// (same tags, same shape) under the root, so the class-aware kernels have
// duplicated occurrences to replay across.
Document RandomDocument(Rng* rng, bool duplicated) {
  std::vector<NodeId> parents{doc::kNoNode};
  std::vector<std::string> tags{"r"};
  auto add_random_subtree = [&](NodeId parent, size_t size,
                                const std::vector<NodeId>& shape,
                                const std::vector<std::string>& shape_tags) {
    const NodeId base = static_cast<NodeId>(parents.size());
    for (size_t i = 0; i < size; ++i) {
      parents.push_back(i == 0 ? parent : base + shape[i]);
      tags.push_back(shape_tags[i]);
    }
  };
  // shape[i] is the offset of node i's parent inside the subtree (pre-order:
  // a parent precedes its children, and siblings' subtrees stay contiguous
  // because each node hangs off the current rightmost path).
  auto random_shape = [&](size_t size, std::vector<NodeId>* shape,
                          std::vector<std::string>* shape_tags) {
    std::vector<NodeId> rightmost{0};
    shape->assign(1, 0);
    shape_tags->assign(1, rng->Uniform(2) ? "a" : "b");
    for (size_t i = 1; i < size; ++i) {
      size_t keep = 1 + static_cast<size_t>(rng->Uniform(rightmost.size()));
      rightmost.resize(keep);
      shape->push_back(rightmost.back());
      shape_tags->push_back(rng->Uniform(2) ? "a" : "b");
      rightmost.push_back(static_cast<NodeId>(i));
    }
  };
  std::vector<NodeId> shape;
  std::vector<std::string> shape_tags;
  if (duplicated) {
    size_t size = 1 + static_cast<size_t>(rng->Uniform(4));
    random_shape(size, &shape, &shape_tags);
    add_random_subtree(0, size, shape, shape_tags);
    add_random_subtree(0, size, shape, shape_tags);
  }
  size_t rest = 1 + static_cast<size_t>(rng->Uniform(12 - parents.size()));
  random_shape(rest, &shape, &shape_tags);
  add_random_subtree(0, rest, shape, shape_tags);
  std::vector<std::string> texts(parents.size(), "");
  auto document = Document::FromParents(parents, tags, texts);
  EXPECT_TRUE(document.ok()) << document.status().ToString();
  return std::move(document).value();
}

// Up to `max_count` distinct random fragments: each connects one to three
// random nodes, so operands are connected but not only single nodes.
std::vector<NodeSet> RandomOperands(const Document& d, size_t max_count,
                                    Rng* rng) {
  std::set<NodeSet> seen;
  std::vector<NodeSet> out;
  size_t count = 1 + static_cast<size_t>(rng->Uniform(max_count));
  for (size_t attempt = 0; out.size() < count && attempt < 64; ++attempt) {
    NodeSet seeds;
    size_t picks = 1 + static_cast<size_t>(rng->Uniform(3));
    for (size_t i = 0; i < picks; ++i) {
      seeds.push_back(static_cast<NodeId>(rng->Uniform(d.size())));
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    NodeSet f = Connect(d, seeds);
    if (seen.insert(f).second) out.push_back(f);
  }
  return out;
}

RefFilter RandomFilter(Rng* rng) {
  return RefFilter{2 + static_cast<uint32_t>(rng->Uniform(6)),
                   1 + static_cast<uint32_t>(rng->Uniform(3)),
                   2 + static_cast<uint32_t>(rng->Uniform(9))};
}

FragmentSet ToKernelSet(const Document& d, const std::vector<NodeSet>& f) {
  FragmentSet out;
  for (const NodeSet& nodes : f) {
    auto fragment = Fragment::Create(d, nodes);
    EXPECT_TRUE(fragment.ok()) << fragment.status().ToString();
    out.Insert(std::move(fragment).value());
  }
  return out;
}

RefSet AsRefSet(const FragmentSet& set) {
  RefSet out;
  for (const Fragment& f : set) out.insert(f.nodes());
  return out;
}

// One seeded case: a document, two operand sets and a filter.
class ReferenceOracleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ReferenceOracleTest()
      : rng_(GetParam() * 0x9E3779B97F4A7C15ULL + 1),
        document_(RandomDocument(&rng_, GetParam() % 2 == 0)),
        ref1_(RandomOperands(document_, 5, &rng_)),
        ref2_(RandomOperands(document_, 5, &rng_)),
        filter_(RandomFilter(&rng_)),
        set1_(ToKernelSet(document_, ref1_)),
        set2_(ToKernelSet(document_, ref2_)),
        context_{&document_, nullptr} {}

  // Def. 5: { f1 ⋈ f2 | f1 ∈ F1, f2 ∈ F2 }.
  RefSet RefPairwise() const {
    RefSet out;
    for (const NodeSet& a : ref1_) {
      for (const NodeSet& b : ref2_) {
        out.insert(Connect(document_, Unite(a, b)));
      }
    }
    return out;
  }

  Rng rng_;
  Document document_;
  std::vector<NodeSet> ref1_, ref2_;
  RefFilter filter_;
  FragmentSet set1_, set2_;
  FilterContext context_;
};

TEST_P(ReferenceOracleTest, PairwiseJoin) {
  EXPECT_EQ(AsRefSet(PairwiseJoin(document_, set1_, set2_)), RefPairwise());
}

TEST_P(ReferenceOracleTest, PairwiseJoinFilteredDagOff) {
  FragmentSet got = PairwiseJoinFiltered(document_, set1_, set2_,
                                         filter_.ToKernelFilter(), context_);
  EXPECT_EQ(AsRefSet(got), Selected(document_, RefPairwise(), filter_));
}

TEST_P(ReferenceOracleTest, PairwiseJoinFilteredDagOn) {
  doc::SubtreeClassInterner interner;
  doc::SubtreeClassIndex classes =
      doc::SubtreeClassIndex::Build(document_, &interner);
  FragmentSet got =
      PairwiseJoinFiltered(document_, set1_, set2_, filter_.ToKernelFilter(),
                           context_, /*metrics=*/nullptr, &classes);
  EXPECT_EQ(AsRefSet(got), Selected(document_, RefPairwise(), filter_));
}

TEST_P(ReferenceOracleTest, Select) {
  RefSet operand(ref1_.begin(), ref1_.end());
  EXPECT_EQ(AsRefSet(Select(set1_, filter_.ToKernelFilter(), context_)),
            Selected(document_, operand, filter_));
}

// Def. 10 as implemented (docs/ALGEBRA.md): f survives unless two other
// distinct members f', f'' of F have f ⊆ f' ⋈ f''.
TEST_P(ReferenceOracleTest, Reduce) {
  RefSet expected;
  for (size_t t = 0; t < ref1_.size(); ++t) {
    bool eliminated = false;
    for (size_t i = 0; i < ref1_.size(); ++i) {
      for (size_t j = i + 1; j < ref1_.size(); ++j) {
        if (i == t || j == t) continue;
        NodeSet joined = Connect(document_, Unite(ref1_[i], ref1_[j]));
        eliminated = eliminated ||
                     std::includes(joined.begin(), joined.end(),
                                   ref1_[t].begin(), ref1_[t].end());
      }
    }
    if (!eliminated) expected.insert(ref1_[t]);
  }
  EXPECT_EQ(AsRefSet(Reduce(document_, set1_)), expected);
}

TEST_P(ReferenceOracleTest, FixedPointNaive) {
  EXPECT_EQ(AsRefSet(FixedPointNaive(document_, set1_)),
            RefFixedPoint(document_, ref1_));
}

TEST_P(ReferenceOracleTest, FixedPointReduced) {
  EXPECT_EQ(AsRefSet(FixedPointReduced(document_, set1_)),
            RefFixedPoint(document_, ref1_));
}

// Theorem 3: with an anti-monotonic filter pushed into every iteration,
// the filtered fixed point is σ_P(F⁺) — with DAG replay off and on.
TEST_P(ReferenceOracleTest, FixedPointFiltered) {
  RefSet expected =
      Selected(document_, RefFixedPoint(document_, ref1_), filter_);
  FilterPtr filter = filter_.ToKernelFilter();
  EXPECT_EQ(AsRefSet(FixedPointFiltered(document_, set1_, filter, context_)),
            expected);
  doc::SubtreeClassInterner interner;
  doc::SubtreeClassIndex classes =
      doc::SubtreeClassIndex::Build(document_, &interner);
  EXPECT_EQ(AsRefSet(FixedPointFiltered(document_, set1_, filter, context_,
                                        /*metrics=*/nullptr,
                                        /*cancel=*/nullptr, &classes)),
            expected);
}

// Def. 6 by subset enumeration, against the brute-force kernel and the
// Theorem-2 form F1⁺ ⋈ F2⁺.
TEST_P(ReferenceOracleTest, PowersetJoin) {
  RefSet expected;
  for (size_t m1 = 1; m1 < (size_t{1} << ref1_.size()); ++m1) {
    for (size_t m2 = 1; m2 < (size_t{1} << ref2_.size()); ++m2) {
      NodeSet both = Unite(JoinSubset(document_, ref1_, m1),
                           JoinSubset(document_, ref2_, m2));
      expected.insert(Connect(document_, both));
    }
  }
  auto brute = PowersetJoinBruteForce(document_, set1_, set2_);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  EXPECT_EQ(AsRefSet(*brute), expected);
  EXPECT_EQ(AsRefSet(PowersetJoinViaFixedPoint(document_, set1_, set2_)),
            expected);
}

// Prefers small, shallow fragments; ties are common, so the canonical
// tie-break is exercised. UpperBound uses the join's exact height and its
// size lower bound, hence is sound.
class SmallShallowScorer : public JoinScorer {
 public:
  explicit SmallShallowScorer(const Document& document)
      : document_(document) {}
  double Score(const Fragment& f) const override {
    uint32_t height = 0;
    for (NodeId n : f.nodes()) {
      height = std::max(height, document_.depth(n) - document_.depth(f.root()));
    }
    return 1.0 / f.size() + 1.0 / (1 + height);
  }
  double UpperBound(const JoinBounds& b) const override {
    return 1.0 / b.size_lower + 1.0 / (1 + b.height);
  }

 private:
  const Document& document_;
};

// The top-k kernel returns the k-prefix of the scored reference under
// (score descending, canonical fragment order ascending).
TEST_P(ReferenceOracleTest, PairwiseJoinTopK) {
  SmallShallowScorer scorer(document_);
  std::vector<std::pair<double, NodeSet>> ranked;
  for (const NodeSet& f : Selected(document_, RefPairwise(), filter_)) {
    ranked.emplace_back(scorer.Score(*Fragment::Create(document_, f)), f);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{100}}) {
    TopKCollector collector(k);
    PairwiseJoinTopK(document_, set1_, set2_, filter_.ToKernelFilter(),
                     context_, scorer, {}, &collector);
    std::vector<ScoredFragment> got = collector.TakeSorted();
    ASSERT_EQ(got.size(), std::min(k, ranked.size())) << "k=" << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].fragment.nodes(), ranked[i].second)
          << "k=" << k << " position " << i;
      EXPECT_EQ(got[i].score, ranked[i].first) << "k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceOracleTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

}  // namespace
}  // namespace xfrag::algebra
