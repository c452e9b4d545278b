#include "text/inverted_index.h"

#include <algorithm>

#include "common/strings.h"

namespace xfrag::text {

namespace {

// Local LEB128 decode mirroring storage::Reader::ReadVarint, including the
// 10-byte cap (the text module cannot link storage without a dependency
// cycle; the encoding contract lives in docs/STORAGE.md).
bool DecodeVarint(std::string_view data, size_t* pos, uint64_t* out) {
  uint64_t value = 0;
  int shift = 0;
  for (int length = 1; length <= 10; ++length, shift += 7) {
    if (*pos >= data.size()) return false;
    uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    if (shift == 63 && (byte & 0x7F) > 1) return false;
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = value;
      return true;
    }
  }
  return false;
}

// Decodes one term's varint delta run into absolute sorted node ids.
StatusOr<std::vector<doc::NodeId>> DecodeDeltaRun(std::string_view run,
                                                  size_t node_count) {
  std::vector<doc::NodeId> list;
  size_t pos = 0;
  uint64_t current = 0;
  bool first = true;
  while (pos < run.size()) {
    uint64_t delta = 0;
    if (!DecodeVarint(run, &pos, &delta)) {
      return Status::ParseError("malformed varint in posting run");
    }
    // The first value is absolute; subsequent deltas are the gap minus
    // nothing (lists are strictly increasing, deltas >= 1).
    if (first) {
      current = delta;
      first = false;
    } else {
      if (delta == 0) {
        return Status::ParseError("posting run is not strictly increasing");
      }
      if (current > UINT64_MAX - delta) {
        return Status::ParseError("posting id overflows");
      }
      current += delta;
    }
    if (current >= node_count) {
      return Status::ParseError("posting id out of node range");
    }
    list.push_back(static_cast<doc::NodeId>(current));
  }
  return list;
}

}  // namespace

InvertedIndex InvertedIndex::Build(const doc::Document& document,
                                   const IndexOptions& options) {
  InvertedIndex index;
  index.normalization_ = options.tokenizer;
  for (doc::NodeId n = 0; n < document.size(); ++n) {
    std::vector<std::string> tokens =
        Tokenize(document.text(n), options.tokenizer);
    if (options.index_tag_names) {
      auto tag_tokens = Tokenize(document.tag(n), options.tokenizer);
      tokens.insert(tokens.end(), tag_tokens.begin(), tag_tokens.end());
    }
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    for (auto& token : tokens) {
      index.postings_[std::move(token)].push_back(n);
      ++index.posting_count_;
    }
  }
  // Postings are built in increasing n, hence already sorted.
  return index;
}

StatusOr<InvertedIndex> InvertedIndex::FromSnapshotColumns(
    const SnapshotColumns& c, const TokenizerOptions& normalization) {
  if (c.term_offsets == nullptr || c.posting_offsets == nullptr) {
    return Status::InvalidArgument("snapshot index offsets missing");
  }
  // Offsets may be slices of collection-global cumulative arrays, so the
  // first entry need not be 0 — only monotone and in-bounds.
  const size_t t = c.term_count;
  if (c.validate) {
    for (size_t i = 0; i < t; ++i) {
      if (c.term_offsets[i + 1] <= c.term_offsets[i]) {
        return Status::ParseError("snapshot term offsets not increasing");
      }
      if (c.posting_offsets[i + 1] < c.posting_offsets[i]) {
        return Status::ParseError("snapshot posting offsets not monotone");
      }
    }
    if (c.term_offsets[t] > c.term_blob.size() ||
        c.posting_offsets[t] > c.postings_blob.size()) {
      return Status::ParseError("snapshot index offsets exceed their blobs");
    }
    size_t postings_seen = 0;
    std::string_view previous;
    for (size_t i = 0; i < t; ++i) {
      std::string_view term = c.term_blob.substr(
          c.term_offsets[i], c.term_offsets[i + 1] - c.term_offsets[i]);
      if (i > 0 && term <= previous) {
        return Status::ParseError("snapshot term dictionary is not sorted");
      }
      if (term != AsciiToLower(std::string(term))) {
        return Status::ParseError("snapshot term is not lowercase");
      }
      previous = term;
      auto run = DecodeDeltaRun(
          c.postings_blob.substr(
              c.posting_offsets[i],
              c.posting_offsets[i + 1] - c.posting_offsets[i]),
          c.node_count);
      if (!run.ok()) {
        return Status::ParseError("snapshot postings for '" +
                                  std::string(term) +
                                  "': " + run.status().message());
      }
      if (run->empty()) {
        return Status::ParseError("snapshot term '" + std::string(term) +
                                  "' has no postings");
      }
      postings_seen += run->size();
    }
    if (postings_seen != c.posting_count) {
      return Status::ParseError("snapshot posting count mismatch");
    }
  } else if (c.term_offsets[t] > c.term_blob.size() ||
             c.posting_offsets[t] > c.postings_blob.size()) {
    return Status::ParseError("snapshot index offsets exceed their blobs");
  }

  InvertedIndex index;
  index.normalization_ = normalization;
  index.posting_count_ = c.posting_count;
  auto state = std::make_shared<SnapshotState>();
  state->term_count = t;
  state->term_offsets = c.term_offsets;
  state->term_blob = c.term_blob;
  state->posting_offsets = c.posting_offsets;
  state->postings_blob = c.postings_blob;
  state->node_count = c.node_count;
  state->slots =
      std::make_unique<std::atomic<const std::vector<doc::NodeId>*>[]>(t);
  for (size_t i = 0; i < t; ++i) {
    state->slots[i].store(nullptr, std::memory_order_relaxed);
  }
  index.snapshot_ = std::move(state);
  return index;
}

const std::vector<doc::NodeId>& InvertedIndex::SnapshotLookup(
    const std::string& term) const {
  SnapshotState& s = *snapshot_;
  size_t lo = 0, hi = s.term_count;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (s.term(mid) < term) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == s.term_count || s.term(lo) != term) return empty_;

  const auto* cached = s.slots[lo].load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;

  // First touch: decode off-lock, publish first-wins under the mutex so a
  // losing thread adopts the winner's list and the slot stays stable.
  auto decoded = DecodeDeltaRun(
      s.postings_blob.substr(s.posting_offsets[lo],
                             s.posting_offsets[lo + 1] -
                                 s.posting_offsets[lo]),
      s.node_count);
  // Open-time validation already scanned every run; a failure here means the
  // mapping changed underneath us, which the immutability contract excludes.
  std::vector<doc::NodeId> list =
      decoded.ok() ? std::move(*decoded) : std::vector<doc::NodeId>{};
  std::lock_guard<std::mutex> lock(s.publish_mutex);
  cached = s.slots[lo].load(std::memory_order_relaxed);
  if (cached != nullptr) return *cached;
  s.owned.push_back(
      std::make_unique<std::vector<doc::NodeId>>(std::move(list)));
  const auto* published = s.owned.back().get();
  s.slots[lo].store(published, std::memory_order_release);
  return *published;
}

const std::vector<doc::NodeId>& InvertedIndex::Lookup(
    std::string_view term) const {
  std::string folded = AsciiToLower(term);
  if (normalization_.fold_plurals) folded = FoldPlural(std::move(folded));
  if (snapshot_ != nullptr) return SnapshotLookup(folded);
  auto it = postings_.find(folded);
  if (it == postings_.end()) return empty_;
  return it->second;
}

bool InvertedIndex::Contains(std::string_view term, doc::NodeId node) const {
  const auto& list = Lookup(term);
  return std::binary_search(list.begin(), list.end(), node);
}

std::vector<std::string> InvertedIndex::Terms() const {
  std::vector<std::string> out;
  if (snapshot_ != nullptr) {
    out.reserve(snapshot_->term_count);
    for (size_t i = 0; i < snapshot_->term_count; ++i) {
      out.emplace_back(snapshot_->term(i));
    }
    return out;
  }
  out.reserve(postings_.size());
  for (const auto& [term, _] : postings_) out.push_back(term);
  return out;
}

}  // namespace xfrag::text
