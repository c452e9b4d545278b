// Cross-module pipeline: corpus → XML text → parse → index → snapshot →
// mmap reload → collection → query. Every stage must preserve query answers.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "collection/collection_engine.h"
#include "gen/corpus.h"
#include "query/engine.h"
#include "storage/snapshot.h"
#include "xml/parser.h"

namespace xfrag {
namespace {

// Prefixed with the pid: ctest runs each test in its own process, in
// parallel, and two processes must never write the same file.
std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "-" + name;
}

// Writes `document` as a one-member snapshot at `path`.
Status WriteOneDocumentSnapshot(const doc::Document& document,
                                const std::string& path) {
  collection::Collection single;
  XFRAG_RETURN_NOT_OK(single.Add("only", document));
  return storage::WriteSnapshot(single, text::IndexOptions{}, path);
}

TEST(PersistencePipelineTest, AnswersSurviveEveryRepresentation) {
  // Build a corpus with planted keywords.
  gen::CorpusProfile profile;
  profile.target_nodes = 500;
  profile.seed = 4242;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  Rng rng(4243);
  gen::PlantKeyword(&raw, "kwone", 6, gen::PlantMode::kClustered, &rng);
  gen::PlantKeyword(&raw, "kwtwo", 5, gen::PlantMode::kScattered, &rng);

  query::Query q;
  q.terms = {"kwone", "kwtwo"};
  q.filter = algebra::filters::SizeAtMost(6);

  // Path A: direct materialization.
  auto direct = gen::Materialize(raw);
  ASSERT_TRUE(direct.ok());
  auto direct_index = text::InvertedIndex::Build(*direct);
  query::QueryEngine direct_engine(*direct, direct_index);
  auto direct_result = direct_engine.Evaluate(q);
  ASSERT_TRUE(direct_result.ok());

  // Path B: through XML text.
  auto dom = xml::Parse(gen::ToXml(raw));
  ASSERT_TRUE(dom.ok());
  auto parsed = doc::Document::FromDom(*dom);
  ASSERT_TRUE(parsed.ok());
  auto parsed_index = text::InvertedIndex::Build(*parsed);
  query::QueryEngine parsed_engine(*parsed, parsed_index);
  auto parsed_result = parsed_engine.Evaluate(q);
  ASSERT_TRUE(parsed_result.ok());
  EXPECT_TRUE(parsed_result->answers.SetEquals(direct_result->answers));

  // Path C: through a persisted snapshot, served zero-copy from the mapping.
  std::string path = TestPath("xfrag_pipeline_test.snap");
  ASSERT_TRUE(WriteOneDocumentSnapshot(*direct, path).ok());
  auto snapshot = storage::LoadCollectionFromSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot->collection.size(), 1u);
  const collection::CollectionEntry& loaded = snapshot->collection.entry(0);
  query::QueryEngine snapshot_engine(loaded.document, loaded.index);
  auto snapshot_result = snapshot_engine.Evaluate(q);
  ASSERT_TRUE(snapshot_result.ok());
  EXPECT_TRUE(snapshot_result->answers.SetEquals(direct_result->answers));
  std::remove(path.c_str());

  // Path D: through a collection (single member).
  collection::Collection library;
  ASSERT_TRUE(library.Add("only", std::move(*direct)).ok());
  collection::CollectionEngine collection_engine(library);
  auto collection_result = collection_engine.Evaluate(q);
  ASSERT_TRUE(collection_result.ok());
  algebra::FragmentSet collection_answers;
  for (const auto& answer : collection_result->answers) {
    collection_answers.Insert(answer.fragment);
  }
  EXPECT_TRUE(collection_answers.SetEquals(direct_result->answers));
}

TEST(PersistencePipelineTest, RebuiltIndexMatchesPersistedIndex) {
  gen::CorpusProfile profile;
  profile.target_nodes = 300;
  profile.seed = 777;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  auto document = gen::Materialize(raw);
  ASSERT_TRUE(document.ok());
  auto index = text::InvertedIndex::Build(*document);

  std::string path = TestPath("xfrag_pipeline_index.snap");
  ASSERT_TRUE(WriteOneDocumentSnapshot(*document, path).ok());
  auto snapshot = storage::LoadCollectionFromSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const collection::CollectionEntry& loaded = snapshot->collection.entry(0);

  // An index rebuilt from the reloaded document equals the persisted one,
  // and both equal the index of the original document.
  auto rebuilt = text::InvertedIndex::Build(loaded.document);
  EXPECT_EQ(rebuilt.term_count(), loaded.index.term_count());
  EXPECT_EQ(rebuilt.posting_count(), loaded.index.posting_count());
  EXPECT_EQ(index.term_count(), loaded.index.term_count());
  for (const auto& term : rebuilt.Terms()) {
    EXPECT_EQ(rebuilt.Lookup(term), loaded.index.Lookup(term)) << term;
    EXPECT_EQ(index.Lookup(term), loaded.index.Lookup(term)) << term;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xfrag
