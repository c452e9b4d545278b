// Substrate throughput microbenchmarks (google-benchmark): XML parse,
// document flattening, index construction and serialization. These are the
// fixed costs every query session pays once (snapshot write/open costs are
// measured by bench_snapshot).

#include <benchmark/benchmark.h>

#include "doc/document.h"
#include "gen/corpus.h"
#include "text/inverted_index.h"
#include "xml/parser.h"
#include "xml/serializer.h"

using namespace xfrag;

namespace {

std::string CorpusXml(size_t nodes) {
  gen::CorpusProfile profile;
  profile.target_nodes = nodes;
  profile.seed = nodes;
  return gen::ToXml(gen::GenerateRaw(profile));
}

void BM_XmlParse(benchmark::State& state) {
  std::string xml_text = CorpusXml(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto dom = xml::Parse(xml_text);
    if (!dom.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(dom);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml_text.size()));
}
BENCHMARK(BM_XmlParse)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_DomToDocument(benchmark::State& state) {
  std::string xml_text = CorpusXml(static_cast<size_t>(state.range(0)));
  auto dom = xml::Parse(xml_text);
  if (!dom.ok()) return;
  for (auto _ : state) {
    auto document = doc::Document::FromDom(*dom);
    benchmark::DoNotOptimize(document);
  }
}
BENCHMARK(BM_DomToDocument)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_IndexBuild(benchmark::State& state) {
  std::string xml_text = CorpusXml(static_cast<size_t>(state.range(0)));
  auto dom = xml::Parse(xml_text);
  auto document = doc::Document::FromDom(*dom);
  for (auto _ : state) {
    auto index = text::InvertedIndex::Build(*document);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IndexBuild)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_Serialize(benchmark::State& state) {
  std::string xml_text = CorpusXml(static_cast<size_t>(state.range(0)));
  auto dom = xml::Parse(xml_text);
  for (auto _ : state) {
    std::string out = xml::Serialize(*dom);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Serialize)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
