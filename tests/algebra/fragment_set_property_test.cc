// FragmentSet against a reference model: seeded random fragments, drawn from
// a small universe so duplicates are common, are inserted into a FragmentSet
// and into a std::set plus an insertion-order vector. Every observable —
// Insert's verdict, size, iteration order, Contains, Union, SetEquals,
// RetainIf, the sorted-order accessor — must agree with the model, across
// enough members that the flat index grows many times.

#include "algebra/fragment_set.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace xfrag::algebra {
namespace {

using Nodes = std::vector<NodeId>;

// A random sorted, duplicate-free node list of 1..max_size ids below
// `universe`. Set semantics never look at connectivity, so the unchecked
// constructor is enough here.
Fragment RandomFragment(Rng* rng, NodeId universe, size_t max_size) {
  size_t size = 1 + rng->Uniform(max_size);
  std::set<NodeId> ids;
  while (ids.size() < size) {
    ids.insert(static_cast<NodeId>(rng->Uniform(universe)));
  }
  return Fragment::FromSortedUnchecked(Nodes(ids.begin(), ids.end()));
}

// The reference: membership in a std::set, order in a vector.
struct Model {
  std::set<Nodes> members;
  std::vector<Nodes> order;

  bool Insert(const Fragment& f) {
    if (!members.insert(f.nodes()).second) return false;
    order.push_back(f.nodes());
    return true;
  }
};

void ExpectMatches(const FragmentSet& set, const Model& model) {
  ASSERT_EQ(set.size(), model.order.size());
  ASSERT_EQ(set.empty(), model.order.empty());
  size_t i = 0;
  for (const Fragment& f : set) {
    ASSERT_EQ(f.nodes(), model.order[i]) << "iteration order at " << i;
    ASSERT_EQ(set[i].nodes(), model.order[i]);
    ++i;
  }
  for (const Nodes& nodes : model.order) {
    ASSERT_TRUE(set.Contains(Fragment::FromSortedUnchecked(nodes)));
  }
}

TEST(FragmentSetPropertyTest, MatchesReferenceModelUnderDuplicates) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    FragmentSet set;
    Model model;
    for (int step = 0; step < 3000; ++step) {
      Fragment f = RandomFragment(&rng, 24, 3);
      bool expected = model.Insert(f);
      // Alternate the copying and the moving overloads.
      bool inserted =
          (step % 2 == 0) ? set.Insert(f) : set.Insert(std::move(f));
      ASSERT_EQ(inserted, expected) << "seed " << seed << " step " << step;
    }
    ExpectMatches(set, model);
    // Absent fragments are reported absent.
    for (int probe = 0; probe < 500; ++probe) {
      Fragment f = RandomFragment(&rng, 40, 4);
      EXPECT_EQ(set.Contains(f), model.members.count(f.nodes()) > 0);
    }
  }
}

TEST(FragmentSetPropertyTest, UnionAndSetEqualsMatchTheModel) {
  Rng rng(11);
  FragmentSet a, b;
  Model model_a, model_b;
  for (int step = 0; step < 800; ++step) {
    Fragment f = RandomFragment(&rng, 16, 3);
    model_a.Insert(f);
    a.Insert(f);
    Fragment g = RandomFragment(&rng, 16, 3);
    model_b.Insert(g);
    b.Insert(g);
  }
  Model model_union = model_a;
  for (const Nodes& nodes : model_b.order) {
    model_union.Insert(Fragment::FromSortedUnchecked(nodes));
  }
  FragmentSet u = a.Union(b);
  ExpectMatches(u, model_union);
  ExpectMatches(a, model_a);  // The lvalue Union leaves its operands alone.
  ExpectMatches(b, model_b);
  FragmentSet moved_union = FragmentSet(a).Union(b);
  ExpectMatches(moved_union, model_union);

  // SetEquals ignores order: the union built from the other side is equal.
  EXPECT_TRUE(u.SetEquals(b.Union(a)));
  EXPECT_EQ(a.SetEquals(b), model_a.members == model_b.members);
  FragmentSet reversed;
  for (size_t i = u.size(); i-- > 0;) reversed.Insert(u[i]);
  EXPECT_TRUE(reversed.SetEquals(u));
  EXPECT_TRUE(u.SetEquals(reversed));
  FragmentSet missing_one = u;
  missing_one.RetainIf([&](const Fragment& f) { return f != u[0]; });
  EXPECT_FALSE(missing_one.SetEquals(u));
  EXPECT_FALSE(u.SetEquals(missing_one));
}

TEST(FragmentSetPropertyTest, CopiesAndMovesStayIndependent) {
  Rng rng(21);
  FragmentSet original;
  Model model;
  for (int step = 0; step < 600; ++step) {
    Fragment f = RandomFragment(&rng, 20, 3);
    model.Insert(f);
    original.Insert(std::move(f));
  }
  FragmentSet copy = original;
  Model copy_model = model;
  // Growing the copy (including table growths) leaves the original intact.
  for (int step = 0; step < 2000; ++step) {
    Fragment f = RandomFragment(&rng, 64, 4);
    copy_model.Insert(f);
    copy.Insert(std::move(f));
  }
  ExpectMatches(original, model);
  ExpectMatches(copy, copy_model);

  FragmentSet assigned;
  assigned.Insert(Fragment::Single(999));
  assigned = original;
  ExpectMatches(assigned, model);
  assigned.RetainIf([](const Fragment& f) { return f.size() == 1; });
  ExpectMatches(original, model);

  FragmentSet moved = std::move(copy);
  ExpectMatches(moved, copy_model);
  FragmentSet move_assigned;
  move_assigned = std::move(moved);
  ExpectMatches(move_assigned, copy_model);
  // A moved-from set is valid and reusable.
  moved = FragmentSet();
  EXPECT_TRUE(moved.empty());
  EXPECT_TRUE(moved.Insert(Fragment::Single(1)));
  EXPECT_TRUE(moved.Contains(Fragment::Single(1)));
}

TEST(FragmentSetPropertyTest, RetainIfKeepsOrderAndForgetsRemovedMembers) {
  Rng rng(31);
  FragmentSet set;
  Model model;
  for (int step = 0; step < 4000; ++step) {
    Fragment f = RandomFragment(&rng, 30, 4);
    model.Insert(f);
    set.Insert(std::move(f));
  }
  // The predicate runs once per member, in insertion order.
  std::vector<Nodes> seen;
  std::set<Nodes> removed;
  Model kept;
  set.RetainIf([&](const Fragment& f) {
    seen.push_back(f.nodes());
    bool keep = rng.Uniform(3) != 0;
    if (keep) {
      kept.Insert(f);
    } else {
      removed.insert(f.nodes());
    }
    return keep;
  });
  EXPECT_EQ(seen, model.order);
  ExpectMatches(set, kept);
  for (const Nodes& nodes : removed) {
    EXPECT_FALSE(set.Contains(Fragment::FromSortedUnchecked(nodes)));
  }
  // Removed members can be inserted again, at the end.
  ASSERT_FALSE(removed.empty());
  const Nodes again = *removed.begin();
  EXPECT_TRUE(set.Insert(Fragment::FromSortedUnchecked(again)));
  EXPECT_EQ(set[set.size() - 1].nodes(), again);
  EXPECT_FALSE(set.Insert(Fragment::FromSortedUnchecked(again)));

  // Keeping everything and keeping nothing.
  FragmentSet all = set;
  all.RetainIf([](const Fragment&) { return true; });
  EXPECT_TRUE(all.SetEquals(set));
  all.RetainIf([](const Fragment&) { return false; });
  EXPECT_TRUE(all.empty());
  EXPECT_FALSE(all.Contains(set[0]));
  EXPECT_TRUE(all.Insert(set[0]));
  EXPECT_EQ(all.size(), 1u);
}

TEST(FragmentSetPropertyTest, SortedOrderEqualsSorted) {
  Rng rng(41);
  FragmentSet set;
  EXPECT_TRUE(set.SortedOrder().empty());
  EXPECT_TRUE(set.Sorted().empty());
  for (int step = 0; step < 2500; ++step) {
    set.Insert(RandomFragment(&rng, 40, 5));
  }
  std::vector<uint32_t> order = set.SortedOrder();
  std::vector<Fragment> sorted = set.Sorted();
  ASSERT_EQ(order.size(), set.size());
  ASSERT_EQ(sorted.size(), set.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(set[order[i]], sorted[i]);
    if (i > 0) {
      EXPECT_TRUE(sorted[i - 1] < sorted[i]);
    }
  }
  // The model's canonical order is std::set's lexicographic order.
  std::set<Nodes> reference;
  for (const Fragment& f : set) reference.insert(f.nodes());
  size_t i = 0;
  for (const Nodes& nodes : reference) EXPECT_EQ(sorted[i++].nodes(), nodes);
}

TEST(FragmentSetPropertyTest, LargeSetSurvivesManyTableGrowths) {
  // 25k distinct members (and as many duplicate inserts) take the flat
  // index through a dozen doublings.
  Rng rng(51);
  FragmentSet set;
  Model model;
  while (model.order.size() < 25000) {
    Fragment f = RandomFragment(&rng, 4000, 3);
    bool expected = model.Insert(f);
    ASSERT_EQ(set.Insert(f), expected);
    ASSERT_FALSE(set.Insert(std::move(f)));  // An immediate duplicate.
  }
  ExpectMatches(set, model);
  // Shrinking in place rebuilds the index for the survivors only.
  set.RetainIf([](const Fragment& f) { return f.nodes().front() % 2 == 0; });
  Model even;
  for (const Nodes& nodes : model.order) {
    if (nodes.front() % 2 == 0) {
      even.Insert(Fragment::FromSortedUnchecked(nodes));
    }
  }
  ExpectMatches(set, even);
  for (const Nodes& nodes : model.order) {
    if (nodes.front() % 2 != 0) {
      ASSERT_FALSE(set.Contains(Fragment::FromSortedUnchecked(nodes)));
    }
  }
}

}  // namespace
}  // namespace xfrag::algebra
