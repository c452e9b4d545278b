// A deduplicating set of fragments. The paper's operators are set-valued
// (duplicates produced by joins "will be removed from the set", §4.1), so the
// container enforces set semantics while preserving deterministic iteration
// order (insertion order) for reproducible output.
//
// Members live in one insertion-ordered vector. Membership is a flat
// open-addressing table over that vector: a power-of-two array of
// `member index + 1` (0 marks an empty slot), probed linearly from the hash
// every Fragment caches at construction, so the index allocates one array
// per set, never a node per member.

#ifndef XFRAG_ALGEBRA_FRAGMENT_SET_H_
#define XFRAG_ALGEBRA_FRAGMENT_SET_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "algebra/fragment.h"

namespace xfrag::algebra {

/// \brief An ordered, deduplicating collection of fragments.
class FragmentSet {
 public:
  FragmentSet() = default;

  /// Builds from a list of fragments, deduplicating.
  FragmentSet(std::initializer_list<Fragment> fragments) {
    for (const auto& f : fragments) Insert(f);
  }

  /// Builds from a vector of fragments, deduplicating.
  static FragmentSet FromVector(std::vector<Fragment> fragments) {
    FragmentSet out;
    for (auto& f : fragments) out.Insert(std::move(f));
    return out;
  }

  /// \brief Inserts a fragment. Returns true when it was not yet present.
  /// The const& overload copies `fragment` only when it is inserted.
  bool Insert(const Fragment& fragment) { return InsertImpl(fragment); }
  bool Insert(Fragment&& fragment) { return InsertImpl(std::move(fragment)); }

  /// True iff `fragment` is a member.
  bool Contains(const Fragment& fragment) const;

  /// Number of distinct fragments.
  size_t size() const { return fragments_.size(); }
  bool empty() const { return fragments_.empty(); }

  /// Insertion-ordered access.
  const Fragment& operator[](size_t i) const { return fragments_[i]; }
  std::vector<Fragment>::const_iterator begin() const {
    return fragments_.begin();
  }
  std::vector<Fragment>::const_iterator end() const { return fragments_.end(); }

  /// Set equality (order-independent).
  bool SetEquals(const FragmentSet& other) const;

  /// Union of this set and `other` (new set; insertion order: this, then
  /// unseen members of other). The rvalue overload reuses this set's storage.
  FragmentSet Union(const FragmentSet& other) const&;
  FragmentSet Union(const FragmentSet& other) &&;

  /// \brief Keeps the members for which `keep(member)` is true, in insertion
  /// order. `keep` runs exactly once per member, in insertion order, so a
  /// predicate that counts (filter metrics) counts as a copying filter would.
  template <typename Keep>
  void RetainIf(Keep&& keep) {
    size_t kept = 0;
    for (size_t i = 0; i < fragments_.size(); ++i) {
      if (!keep(std::as_const(fragments_[i]))) continue;
      if (kept != i) fragments_[kept] = std::move(fragments_[i]);
      ++kept;
    }
    if (kept == fragments_.size()) return;
    fragments_.erase(fragments_.begin() + static_cast<ptrdiff_t>(kept),
                     fragments_.end());
    Rehash();
  }

  /// Member indexes (into operator[]) in canonical Fragment::operator<
  /// order — canonical output without copying any fragment.
  std::vector<uint32_t> SortedOrder() const;

  /// Members in a fresh vector, sorted by Fragment::operator< (canonical
  /// order for golden tests and printed tables).
  std::vector<Fragment> Sorted() const;

  /// "{⟨n1⟩, ⟨n3,n4⟩}" for diagnostics.
  std::string ToString() const;

 private:
  /// Slot holding a member equal to `fragment`, or the empty slot where it
  /// would go. Requires a non-empty table.
  size_t FindSlot(const Fragment& fragment) const;
  /// Rebuilds the table for the current members at a load factor ≤ 1/2
  /// (an empty set gets an empty table).
  void Rehash();

  static constexpr size_t kMinSlots = 8;

  template <typename F>
  bool InsertImpl(F&& fragment) {
    if (slots_.empty()) slots_.assign(kMinSlots, 0);
    size_t slot = FindSlot(fragment);
    if (slots_[slot] != 0) return false;
    fragments_.push_back(std::forward<F>(fragment));
    if (fragments_.size() * 2 > slots_.size()) {
      Rehash();
    } else {
      slots_[slot] = static_cast<uint32_t>(fragments_.size());
    }
    return true;
  }

  std::vector<Fragment> fragments_;
  // Open-addressing index over fragments_: member index + 1, 0 = empty.
  // Empty for an empty set; otherwise a power of two at least twice size().
  std::vector<uint32_t> slots_;
};

}  // namespace xfrag::algebra

#endif  // XFRAG_ALGEBRA_FRAGMENT_SET_H_
