// Library indexer: the full production pipeline on one screen.
//
//  1. Generate a small library of XML files on disk (stand-in for a real
//     document-centric corpus).
//  2. Parse + index each file once and write the library as one mmap
//     snapshot (.snap), the format xfragd --snapshot serves.
//  3. Open the snapshot (no re-parsing, structure validated) and run keyword
//     queries across the whole library with provenance.
//
//   $ ./library_indexer [num_documents]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "collection/collection_engine.h"
#include "common/timer.h"
#include "gen/corpus.h"
#include "query/answers.h"
#include "storage/snapshot.h"

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  size_t documents = 12;
  if (argc > 1) documents = static_cast<size_t>(std::atol(argv[1]));
  fs::path workdir = fs::temp_directory_path() / "xfrag_library";
  fs::create_directories(workdir);

  // --- 1. Write the raw XML library -------------------------------------
  std::printf("writing %zu XML files to %s\n", documents,
              workdir.string().c_str());
  for (size_t i = 0; i < documents; ++i) {
    xfrag::gen::CorpusProfile profile;
    profile.target_nodes = 600;
    profile.seed = 9000 + i;
    xfrag::gen::RawCorpus raw = xfrag::gen::GenerateRaw(profile);
    xfrag::Rng rng(9500 + i);
    xfrag::gen::PlantKeyword(&raw, "replication", 6,
                             xfrag::gen::PlantMode::kClustered, &rng);
    if (i % 2 == 0) {
      xfrag::gen::PlantKeyword(&raw, "consensus", 5,
                               xfrag::gen::PlantMode::kClustered, &rng);
    }
    std::ofstream out(workdir / ("vol" + std::to_string(i) + ".xml"));
    out << xfrag::gen::ToXml(raw);
  }

  // --- 2. Index the files into one snapshot ------------------------------
  xfrag::Timer index_timer;
  xfrag::text::IndexOptions index_options;
  xfrag::collection::Collection parsed(index_options);
  for (size_t i = 0; i < documents; ++i) {
    std::string name = "vol" + std::to_string(i);
    std::ifstream in(workdir / (name + ".xml"));
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    auto status = parsed.AddXml(name, content);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::string snapshot_path = (workdir / "library.snap").string();
  auto written =
      xfrag::storage::WriteSnapshot(parsed, index_options, snapshot_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu nodes into %s in %.1f ms\n", parsed.TotalNodes(),
              snapshot_path.c_str(), index_timer.ElapsedMillis());

  // --- 3. Open the snapshot and query the collection ---------------------
  auto snapshot = xfrag::storage::LoadCollectionFromSnapshot(snapshot_path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  const xfrag::collection::Collection& library = snapshot->collection;
  std::printf("opened %zu documents in %.3f ms (no re-parsing)\n",
              library.size(), snapshot->stats.open_ms);

  xfrag::collection::CollectionEngine engine(library);
  xfrag::query::Query query;
  query.terms = {"replication", "consensus"};
  query.filter = *xfrag::query::ParseFilterExpression("size<=5 & height<=2");
  xfrag::collection::CollectionEvalOptions options;
  options.parallelism = 4;
  auto result = engine.Evaluate(query, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nquery %s: %zu fragments from %zu/%zu documents (%zu skipped) in "
      "%.2f ms\n",
      query.ToString().c_str(), result->answers.size(),
      result->documents_evaluated, library.size(),
      result->documents_skipped, result->elapsed_ms);

  // Group per document for presentation.
  size_t shown = 0;
  for (const auto& answer : result->answers) {
    if (shown++ == 6) {
      std::printf("  ... (%zu more)\n", result->answers.size() - 6);
      break;
    }
    std::printf("  [%s] %s\n", answer.document_name.c_str(),
                answer.fragment.ToString().c_str());
  }
  return 0;
}
