#include "algebra/fragment_set.h"

#include <algorithm>

#include "common/logging.h"

namespace xfrag::algebra {

size_t FragmentSet::FindSlot(const Fragment& fragment) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(fragment.Hash()) & mask;
  while (slots_[slot] != 0 && fragments_[slots_[slot] - 1] != fragment) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void FragmentSet::Rehash() {
  if (fragments_.empty()) {
    slots_ = {};
    return;
  }
  // Members are indexed as uint32 index + 1; the ceiling keeps every index
  // (and the table size) representable.
  XFRAG_CHECK(fragments_.size() < (size_t{1} << 31));
  size_t capacity = kMinSlots;
  while (capacity < fragments_.size() * 2) capacity *= 2;
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < fragments_.size(); ++i) {
    // Members are distinct, so only an empty slot needs finding.
    size_t slot = static_cast<size_t>(fragments_[i].Hash()) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<uint32_t>(i + 1);
  }
}

bool FragmentSet::Contains(const Fragment& fragment) const {
  return !slots_.empty() && slots_[FindSlot(fragment)] != 0;
}

bool FragmentSet::SetEquals(const FragmentSet& other) const {
  if (size() != other.size()) return false;
  for (const auto& f : fragments_) {
    if (!other.Contains(f)) return false;
  }
  return true;
}

FragmentSet FragmentSet::Union(const FragmentSet& other) const& {
  return FragmentSet(*this).Union(other);
}

FragmentSet FragmentSet::Union(const FragmentSet& other) && {
  for (const auto& f : other) Insert(f);
  return std::move(*this);
}

std::vector<uint32_t> FragmentSet::SortedOrder() const {
  std::vector<uint32_t> order(fragments_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return fragments_[a] < fragments_[b];
  });
  return order;
}

std::vector<Fragment> FragmentSet::Sorted() const {
  std::vector<Fragment> out;
  out.reserve(fragments_.size());
  for (uint32_t i : SortedOrder()) out.push_back(fragments_[i]);
  return out;
}

std::string FragmentSet::ToString() const {
  std::string out = "{";
  bool first = true;
  for (uint32_t i : SortedOrder()) {
    if (!first) out += ", ";
    first = false;
    out += fragments_[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace xfrag::algebra
