#include "router/merge.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/strings.h"

namespace xfrag::router {

namespace {

/// Fetches a required field, with a shard-attributed error.
StatusOr<const json::Value*> Require(const ShardBody& shard,
                                     std::string_view key,
                                     json::Value::Kind kind) {
  const json::Value* value = shard.body.Find(key);
  if (value == nullptr || value->kind() != kind) {
    return Status::InvalidArgument(
        StrFormat("shard %zu response is missing \"%.*s\"", shard.shard_index,
                  static_cast<int>(key.size()), key.data()));
  }
  return value;
}

StatusOr<uint64_t> RequireCount(const ShardBody& shard, std::string_view key) {
  XFRAG_ASSIGN_OR_RETURN(const json::Value* value,
                         Require(shard, key, json::Value::Kind::kNumber));
  if (!value->is_integral() || value->AsInt() < 0) {
    return Status::InvalidArgument(
        StrFormat("shard %zu \"%.*s\" is not a non-negative integer",
                  shard.shard_index, static_cast<int>(key.size()), key.data()));
  }
  return static_cast<uint64_t>(value->AsInt());
}

/// Rewrites a shard-local answer to global document numbering.
Status GlobalizeAnswer(json::Value* answer, size_t doc_base,
                       size_t shard_index) {
  const json::Value* index = answer->Find("document_index");
  if (index == nullptr || !index->is_integral() || index->AsInt() < 0) {
    return Status::InvalidArgument(StrFormat(
        "shard %zu answer is missing \"document_index\"", shard_index));
  }
  answer->Set("document_index",
              static_cast<uint64_t>(index->AsInt()) +
                  static_cast<uint64_t>(doc_base));
  return Status::OK();
}

/// One shard's cursor into its ranked answers array during the k-way merge.
/// The array is found once and the head answer's sort keys are read once per
/// head, not on every comparison.
struct RankedCursor {
  json::Value* answers = nullptr;
  uint64_t doc_base = 0;
  size_t next = 0;
  double score = 0.0;
  uint64_t global_doc = 0;

  /// Reads the head answer's keys; false once the array is exhausted.
  bool LoadHead() {
    if (next >= answers->size()) return false;
    const json::Value& head = (*answers)[next];
    score = head.Find("score")->AsDouble();
    global_doc =
        static_cast<uint64_t>(head.Find("document_index")->AsInt()) + doc_base;
    return true;
  }
};

}  // namespace

StatusOr<json::Value> MergeQueryBodies(std::vector<ShardBody> bodies,
                                       const MergePlan& plan,
                                       size_t total_documents,
                                       const std::vector<size_t>&
                                           missing_shards) {
  if (bodies.empty()) {
    return Status::InvalidArgument("cannot merge zero shard responses");
  }
  const bool ranked_mode = plan.rank || plan.top_k >= 0;

  // Validate every body up front; sums double as validation receipts.
  uint64_t documents_evaluated = 0;
  uint64_t documents_skipped = 0;
  uint64_t answer_count = 0;
  bool want_explain = false;
  for (const ShardBody& shard : bodies) {
    XFRAG_RETURN_NOT_OK(
        Require(shard, "query", json::Value::Kind::kString).status());
    XFRAG_RETURN_NOT_OK(
        Require(shard, "answers", json::Value::Kind::kArray).status());
    XFRAG_RETURN_NOT_OK(
        Require(shard, "metrics", json::Value::Kind::kObject).status());
    XFRAG_ASSIGN_OR_RETURN(uint64_t evaluated,
                           RequireCount(shard, "documents_evaluated"));
    XFRAG_ASSIGN_OR_RETURN(uint64_t skipped,
                           RequireCount(shard, "documents_skipped"));
    XFRAG_ASSIGN_OR_RETURN(uint64_t count,
                           RequireCount(shard, "answer_count"));
    documents_evaluated += evaluated;
    documents_skipped += skipped;
    answer_count += count;
    if (shard.body.Find("explain") != nullptr) want_explain = true;
    if (ranked_mode) {
      for (const json::Value& answer : shard.body.Find("answers")->items()) {
        const json::Value* score = answer.Find("score");
        if (score == nullptr || !score->is_number()) {
          return Status::InvalidArgument(StrFormat(
              "shard %zu ranked answer is missing \"score\"",
              shard.shard_index));
        }
        const json::Value* index = answer.Find("document_index");
        if (index == nullptr || !index->is_integral() || index->AsInt() < 0) {
          return Status::InvalidArgument(StrFormat(
              "shard %zu answer is missing \"document_index\"",
              shard.shard_index));
        }
      }
    }
  }
  if (ranked_mode && plan.top_k >= 0) {
    answer_count = std::min(answer_count, static_cast<uint64_t>(plan.top_k));
  }
  const uint64_t emit_limit =
      plan.max_answers >= 0
          ? std::min(answer_count, static_cast<uint64_t>(plan.max_answers))
          : answer_count;
  const bool truncated = plan.max_answers >= 0 &&
                         answer_count > static_cast<uint64_t>(plan.max_answers);

  json::Value answers = json::Value::Array();
  if (ranked_mode) {
    // K-way merge on (score desc, global document asc). Ties on both keys
    // can only occur inside one body's already-ordered list (bodies cover
    // disjoint document ranges — a shard's probe and resume bodies share a
    // doc_base but split its documents), so the comparator never has to
    // reconstruct canonical fragment order. Answers move out of the bodies
    // this function owns; only cursors with answers left stay in `cursors`,
    // in body order, so the first of equal heads still wins.
    std::vector<RankedCursor> cursors;
    for (ShardBody& shard : bodies) {
      RankedCursor cursor{shard.body.Find("answers"), shard.doc_base};
      if (cursor.LoadHead()) cursors.push_back(cursor);
    }
    while (answers.size() < emit_limit && !cursors.empty()) {
      size_t best = 0;
      for (size_t i = 1; i < cursors.size(); ++i) {
        if (cursors[i].score > cursors[best].score ||
            (cursors[i].score == cursors[best].score &&
             cursors[i].global_doc < cursors[best].global_doc)) {
          best = i;
        }
      }
      RankedCursor& cursor = cursors[best];
      json::Value& answer = (*cursor.answers)[cursor.next];
      answer.Set("document_index", cursor.global_doc);
      answers.Append(std::move(answer));
      ++cursor.next;
      if (!cursor.LoadHead()) cursors.erase(cursors.begin() + best);
    }
  } else {
    // Full mode: shard ranges are contiguous and bodies arrive sorted by
    // doc_base, so concatenation is global document order.
    for (ShardBody& shard : bodies) {
      json::Value& shard_answers = *shard.body.Find("answers");
      for (size_t i = 0;
           i < shard_answers.size() && answers.size() < emit_limit; ++i) {
        json::Value& answer = shard_answers[i];
        XFRAG_RETURN_NOT_OK(
            GlobalizeAnswer(&answer, shard.doc_base, shard.shard_index));
        answers.Append(std::move(answer));
      }
    }
  }

  // Field-wise metric sums, preserving the single-node key order.
  json::Value metrics = json::Value::Object();
  for (const auto& [key, value] : bodies.front().body.Find("metrics")
                                      ->members()) {
    (void)value;
    uint64_t sum = 0;
    for (const ShardBody& shard : bodies) {
      const json::Value* field = shard.body.Find("metrics")->Find(key);
      if (field != nullptr && field->is_integral() && field->AsInt() >= 0) {
        sum += static_cast<uint64_t>(field->AsInt());
      }
    }
    metrics.Set(key, sum);
  }

  // Reassemble in the exact single-node field order (service.cc).
  json::Value body = json::Value::Object();
  body.Set("query", bodies.front().body.Find("query")->AsString());
  if (ranked_mode) {
    body.Set("ranked", true);
    if (plan.top_k >= 0) body.Set("top_k", plan.top_k);
  }
  body.Set("documents", static_cast<uint64_t>(total_documents));
  body.Set("documents_evaluated", documents_evaluated);
  body.Set("documents_skipped", documents_skipped);
  body.Set("answer_count", answer_count);
  if (truncated) body.Set("truncated", true);
  body.Set("answers", std::move(answers));
  body.Set("metrics", std::move(metrics));
  if (want_explain) {
    json::Value explains = json::Value::Array();
    for (ShardBody& shard : bodies) {
      json::Value* explain = shard.body.Find("explain");
      if (explain == nullptr || !explain->is_array()) continue;
      for (size_t i = 0; i < explain->size(); ++i) {
        explains.Append(std::move((*explain)[i]));
      }
    }
    body.Set("explain", std::move(explains));
  }
  if (!missing_shards.empty()) {
    json::Value missing = json::Value::Array();
    for (size_t index : missing_shards) {
      missing.Append(static_cast<uint64_t>(index));
    }
    json::Value partial = json::Value::Object();
    partial.Set("missing_shards", std::move(missing));
    body.Set("partial", std::move(partial));
  }
  return body;
}

}  // namespace xfrag::router
