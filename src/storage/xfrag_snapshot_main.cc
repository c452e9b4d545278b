// xfrag_snapshot — compile XML documents into an immutable mmap snapshot,
// inspect one, or verify one end to end.
//
//   usage: xfrag_snapshot build -o <out.snap> <file.xml>...
//          xfrag_snapshot info <file.snap>
//          xfrag_snapshot verify <file.snap>
//
// `build` runs the full parse → index → hash-cons pipeline once and writes
// the snapshot atomically; serving processes then open it in O(1) with
// xfragd --snapshot. `verify` recomputes every section checksum and then
// performs a fully validated load (the same scans xfragd runs at startup).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "common/version.h"
#include "storage/snapshot.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s build -o <out.snap> <file.xml>...\n"
               "       %s info <file.snap>\n"
               "       %s verify <file.snap>\n"
               "       %s --version\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

xfrag::StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return xfrag::Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int Build(const std::string& out_path, const std::vector<std::string>& files) {
  xfrag::text::IndexOptions index_options;
  xfrag::collection::Collection collection(index_options);
  for (const std::string& path : files) {
    auto content = ReadFile(path);
    if (!content.ok()) {
      std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
      return 1;
    }
    auto status = collection.AddXml(path, *content);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
  }
  auto written =
      xfrag::storage::WriteSnapshot(collection, index_options, out_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu documents, %zu nodes)\n", out_path.c_str(),
              collection.size(), collection.TotalNodes());
  return 0;
}

int Info(const std::string& path) {
  auto reader = xfrag::storage::SnapshotReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  const auto& meta = (*reader)->meta();
  const auto& stats = (*reader)->open_stats();
  std::printf("%s\n", path.c_str());
  std::printf("  format v%llu, written by xfrag %s\n",
              static_cast<unsigned long long>(
                  xfrag::storage::kSnapshotFormatVersion),
              meta.tool_version.c_str());
  std::printf("  %llu documents, %llu nodes, %llu tag(s), %llu class(es)\n",
              static_cast<unsigned long long>(meta.doc_count),
              static_cast<unsigned long long>(meta.node_count),
              static_cast<unsigned long long>(meta.tag_dict_count),
              static_cast<unsigned long long>(meta.class_count));
  std::printf("  %llu terms, %llu postings (%llu blob bytes)\n",
              static_cast<unsigned long long>(meta.term_entry_count),
              static_cast<unsigned long long>(meta.posting_count),
              static_cast<unsigned long long>(meta.postings_bytes));
  std::printf("  tokenizer: stopwords=%d min_len=%zu plurals=%d tags=%d\n",
              meta.index_options.tokenizer.remove_stopwords ? 1 : 0,
              meta.index_options.tokenizer.min_token_length,
              meta.index_options.tokenizer.fold_plurals ? 1 : 0,
              meta.index_options.index_tag_names ? 1 : 0);
  std::printf("  %llu file bytes, open %.3f ms\n",
              static_cast<unsigned long long>(stats.file_bytes),
              stats.open_ms);
  for (const auto& d : (*reader)->documents()) {
    std::printf("  - %s: %llu nodes, %llu terms, %llu postings\n",
                d.name.c_str(),
                static_cast<unsigned long long>(d.node_count),
                static_cast<unsigned long long>(d.term_count),
                static_cast<unsigned long long>(d.posting_count));
  }
  return 0;
}

int Verify(const std::string& path) {
  auto reader = xfrag::storage::SnapshotReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  auto checksums = (*reader)->VerifyChecksums();
  if (!checksums.ok()) {
    std::fprintf(stderr, "%s\n", checksums.ToString().c_str());
    return 1;
  }
  xfrag::storage::SnapshotOpenOptions options;
  options.validate_structure = true;
  auto loaded = xfrag::storage::LoadCollectionFromSnapshot(path, options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: OK (%zu documents, %zu nodes, %.3f ms validated load)\n",
              path.c_str(), loaded->collection.size(),
              loaded->collection.TotalNodes(), loaded->stats.open_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  std::string command = argv[1];
  if (command == "--version") {
    std::printf("%s\n", xfrag::BuildInfo("xfrag_snapshot").c_str());
    return 0;
  }
  if (command == "build") {
    std::string out_path;
    std::vector<std::string> files;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "-o" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (arg.rfind("--", 0) == 0) {
        return Usage(argv[0]);
      } else {
        files.push_back(arg);
      }
    }
    if (out_path.empty() || files.empty()) return Usage(argv[0]);
    return Build(out_path, files);
  }
  if (command == "info" && argc == 3) return Info(argv[2]);
  if (command == "verify" && argc == 3) return Verify(argv[2]);
  return Usage(argv[0]);
}
