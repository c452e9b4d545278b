// Inverted index mapping each term to the sorted list of document nodes whose
// own textual content contains it. This implements the paper's base keyword
// selection σ_{keyword=k}(nodes(D)) (Definition 3) and the membership test
// k ∈ keywords(n) used by Definition 8.
//
// The paper performs no other preprocessing ("no preprocessing of data is
// carried out and all answer fragments are computed dynamically", §6) — the
// index only materialises keywords(n), not fragments.

#ifndef XFRAG_TEXT_INVERTED_INDEX_H_
#define XFRAG_TEXT_INVERTED_INDEX_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "doc/document.h"
#include "text/tokenizer.h"

namespace xfrag::text {

/// Indexing configuration. Tag names are optionally indexed as terms too
/// (the paper "does not distinguish between tag/attribute names and text
/// contents", §2.1).
struct IndexOptions {
  TokenizerOptions tokenizer;
  bool index_tag_names = true;
};

/// \brief Term → posting-list index over one Document.
class InvertedIndex {
 public:
  /// \brief Indexes every node of `document`. The document must outlive the
  /// index.
  static InvertedIndex Build(const doc::Document& document,
                             const IndexOptions& options = {});

  /// \brief The raw term-dictionary + postings columns of one document
  /// inside a snapshot. Terms are stored sorted (binary-searchable) in a
  /// blob with offsets; each term's posting list is a varint delta run in
  /// `postings_blob` over the byte range
  /// [posting_offsets[t], posting_offsets[t+1]).
  struct SnapshotColumns {
    size_t term_count = 0;
    const uint64_t* term_offsets = nullptr;     // [term_count + 1]
    std::string_view term_blob;                 // Sorted unique terms.
    const uint64_t* posting_offsets = nullptr;  // [term_count + 1], bytes
    std::string_view postings_blob;             // Varint delta runs.
    size_t node_count = 0;      // Posting ids must stay below this.
    size_t posting_count = 0;   // Total postings (from the directory).
    bool validate = true;
  };

  /// \brief Zero-copy index over snapshot columns. Posting lists stay
  /// delta-encoded in the mapping and are decoded lazily on the first
  /// Lookup of each term (first-wins publication; thread-safe), so only
  /// queried terms ever materialize. `normalization` must be the tokenizer
  /// configuration the index was built with (persisted in snapshot meta).
  /// With `columns.validate` (default) the term dictionary is checked to be
  /// sorted/lowercase and every delta run is scan-validated, so a corrupt
  /// snapshot yields ParseError here, never UB later.
  static StatusOr<InvertedIndex> FromSnapshotColumns(
      const SnapshotColumns& columns, const TokenizerOptions& normalization);

  /// Sorted node ids whose keywords(n) contains `term`. The term is
  /// normalized exactly as the index's tokenizer normalized node text
  /// (lowercasing, and plural folding when enabled), so query terms match
  /// regardless of surface form. Empty vector when the term is absent.
  const std::vector<doc::NodeId>& Lookup(std::string_view term) const;

  /// True iff `term` appears in keywords(node).
  bool Contains(std::string_view term, doc::NodeId node) const;

  /// Number of distinct terms.
  size_t term_count() const {
    return snapshot_ ? snapshot_->term_count : postings_.size();
  }

  /// Total number of postings.
  size_t posting_count() const { return posting_count_; }

  /// Document frequency of `term` (size of its posting list).
  size_t DocumentFrequency(std::string_view term) const {
    return Lookup(term).size();
  }

  /// All indexed terms (unsorted).
  std::vector<std::string> Terms() const;

 private:
  // Snapshot view mode: postings live delta-encoded in the mapping; decoded
  // lists are cached per term with first-wins atomic publication so
  // concurrent Lookups of the same term are race-free and later calls keep
  // returning the same stable reference.
  struct SnapshotState {
    size_t term_count = 0;
    const uint64_t* term_offsets = nullptr;
    std::string_view term_blob;
    const uint64_t* posting_offsets = nullptr;
    std::string_view postings_blob;
    size_t node_count = 0;

    std::unique_ptr<std::atomic<const std::vector<doc::NodeId>*>[]> slots;
    std::mutex publish_mutex;
    std::vector<std::unique_ptr<std::vector<doc::NodeId>>> owned;

    std::string_view term(size_t t) const {
      return term_blob.substr(term_offsets[t],
                              term_offsets[t + 1] - term_offsets[t]);
    }
  };

  const std::vector<doc::NodeId>& SnapshotLookup(const std::string& term)
      const;

  std::unordered_map<std::string, std::vector<doc::NodeId>> postings_;
  size_t posting_count_ = 0;
  TokenizerOptions normalization_;
  std::vector<doc::NodeId> empty_;
  std::shared_ptr<SnapshotState> snapshot_;  // Null for built indexes.
};

}  // namespace xfrag::text

#endif  // XFRAG_TEXT_INVERTED_INDEX_H_
