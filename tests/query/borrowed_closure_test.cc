// The executor borrows fixed-point closures from the FixedPointCache instead
// of copying them, and σ filters its operand in place. These tests run plans
// that read a cached closure in every way an operator can — σ over it (which
// must copy, never filter the shared closure), the closure as the plan's
// result, and the closure as a join operand — and check that each answers
// exactly as a cache-free evaluation does, with the same logical OpMetrics
// once the closure's own work (skipped on a hit) is added back.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "gen/paper_document.h"
#include "lang/lower.h"
#include "query/engine.h"
#include "query/fixed_point_cache.h"

namespace xfrag::query {
namespace {

class BorrowedClosureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto document = gen::BuildPaperDocument();
    ASSERT_TRUE(document.ok());
    document_ = std::make_unique<doc::Document>(std::move(document).value());
    index_ = std::make_unique<text::InvertedIndex>(
        text::InvertedIndex::Build(*document_));
    engine_ = std::make_unique<QueryEngine>(*document_, *index_);
  }

  // Evaluates an XQL composed query; `cache` may be null (cache-free).
  EvalResult Run(const std::string& text, FixedPointCache* cache) {
    lang::Diagnostic diag;
    auto lowered = lang::ParseAndLower(text, &diag);
    EXPECT_TRUE(lowered.ok()) << text << ": " << diag.message;
    EXPECT_NE(lowered->plan, nullptr) << text;
    EvalOptions options;
    options.executor.fixed_point_cache = cache;
    auto result =
        engine_->EvaluatePlan(*lowered->plan, lowered->scan_terms, options);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    return std::move(result).value();
  }

  // Same members in the same order.
  static void ExpectSameAnswers(const algebra::FragmentSet& actual,
                                const algebra::FragmentSet& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << "answer " << i;
    }
  }

  std::unique_ptr<doc::Document> document_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(BorrowedClosureTest, CachedClosureIsNeverFilteredInPlace) {
  const std::string closure_query = "FIXPOINT({xquery})";
  const std::string select_query = "FIXPOINT({xquery}) WHERE size<=2";
  const std::string join_query = "FIXPOINT({xquery}) JOIN {optimization}";

  // The closure's own work: what a cache hit skips.
  const EvalResult closure = Run(closure_query, nullptr);
  const algebra::OpMetrics closure_work = closure.metrics;
  ASSERT_GT(closure_work.fragment_joins, 0u);

  FixedPointCache cache;

  // 1. σ over the closure. A miss: the closure is computed, published and
  //    borrowed back, so σ runs over the shared copy.
  const EvalResult select_free = Run(select_query, nullptr);
  ASSERT_LT(select_free.answers.size(), closure.answers.size())
      << "the filter must drop members for the test to mean anything";
  const EvalResult select_cached = Run(select_query, &cache);
  ExpectSameAnswers(select_cached.answers, select_free.answers);
  EXPECT_TRUE(select_cached.metrics == select_free.metrics);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  // 2. The closure itself, from the cache: all of it, σ took nothing away.
  const EvalResult closure_cached = Run(closure_query, &cache);
  EXPECT_EQ(cache.hits(), 1u);
  ExpectSameAnswers(closure_cached.answers, closure.answers);
  algebra::OpMetrics with_closure = closure_cached.metrics;
  with_closure.Merge(closure_work);
  EXPECT_TRUE(with_closure == closure.metrics);

  // 3. The cached closure as a join operand.
  const EvalResult join_free = Run(join_query, nullptr);
  const EvalResult join_cached = Run(join_query, &cache);
  EXPECT_EQ(cache.hits(), 2u);
  ExpectSameAnswers(join_cached.answers, join_free.answers);
  with_closure = join_cached.metrics;
  with_closure.Merge(closure_work);
  EXPECT_TRUE(with_closure == join_free.metrics);

  // 4. σ again, now over a hit.
  const EvalResult select_hit = Run(select_query, &cache);
  EXPECT_EQ(cache.hits(), 3u);
  ExpectSameAnswers(select_hit.answers, select_free.answers);
  with_closure = select_hit.metrics;
  with_closure.Merge(closure_work);
  EXPECT_TRUE(with_closure == select_free.metrics);

  // The cached entry still holds the whole closure.
  auto entry = cache.Find(std::string("xquery\x1f\x1f\x1fN"));
  ASSERT_NE(entry, nullptr);
  ExpectSameAnswers(*entry, closure.answers);
}

TEST_F(BorrowedClosureTest, ResultOwnsItsAnswersAfterEviction) {
  // A plan whose result is the borrowed closure returns its own copy: it
  // stays intact when the cache drops the entry.
  FixedPointCache cache;
  const EvalResult cold = Run("FIXPOINT({optimization})", &cache);
  const EvalResult warm = Run("FIXPOINT({optimization})", &cache);
  EXPECT_EQ(cache.hits(), 1u);
  cache.Clear();
  ExpectSameAnswers(warm.answers, cold.answers);
  EXPECT_FALSE(warm.answers.empty());
}

}  // namespace
}  // namespace xfrag::query
