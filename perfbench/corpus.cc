#include "corpus.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "gen/corpus.h"

namespace perfbench {

using xfrag::Rng;
using xfrag::StrFormat;

namespace {

constexpr size_t kCommonTerms = 32;
constexpr size_t kRareTerms = 16;
constexpr size_t kSmallTerms = 6;
constexpr double kPointReloadPeriodS = 1.0;
constexpr uint64_t kPopularitySeed = 0x2a;
// Long enough that no run wraps around in its measured phases.
constexpr size_t kStreamLength = 400000;
constexpr size_t kAlgebraStreamLength = 100000;
constexpr size_t kBatchStreamLength = 3000;

// Stream salts keep the workloads' draws independent of each other and of
// the corpus draws for one seed.
constexpr uint64_t kCorpusSalt = 0xc0a9u;
constexpr uint64_t kStreamSalt[] = {0x9017u, 0xa16eu, 0x4011u, 0xba7cu};

std::string TermName(const char* prefix, size_t i) {
  return StrFormat("%s%c%c", prefix, static_cast<char>('a' + i / 26),
                   static_cast<char>('a' + i % 26));
}

size_t OccurrenceCount(const xfrag::gen::RawCorpus& raw,
                       const std::string& term) {
  size_t count = 0;
  for (const std::string& text : raw.texts) {
    if (text.find(term) != std::string::npos) ++count;
  }
  return count;
}

[[noreturn]] void Die(const xfrag::Status& status) {
  std::fprintf(stderr, "perfbench: corpus: %s\n", status.ToString().c_str());
  std::exit(1);
}

// Two distinct indices in [0, n).
std::pair<size_t, size_t> DrawPair(Rng* rng, size_t n) {
  size_t a = rng->Uniform(n);
  size_t b = rng->Uniform(n - 1);
  if (b >= a) ++b;
  return {a, b};
}

std::string Quoted(const std::string& term) { return "\"" + term + "\""; }

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kXfragdPoint:
      return "xfragd_point";
    case Workload::kXfragdAlgebra:
      return "xfragd_algebra";
    case Workload::kRouterMixed:
      return "router_mixed";
    case Workload::kRouterBatch64:
      return "router_batch64";
  }
  return "?";
}

xfrag::StatusOr<Workload> ParseWorkload(std::string_view name) {
  for (Workload workload : kAllWorkloads) {
    if (name == WorkloadName(workload)) return workload;
  }
  return xfrag::Status::InvalidArgument(
      StrFormat("unknown workload '%.*s'", static_cast<int>(name.size()),
                name.data()));
}

bool UsesRouter(Workload workload) {
  return workload == Workload::kRouterMixed ||
         workload == Workload::kRouterBatch64;
}

Corpus GenerateCorpus(uint64_t seed) {
  Corpus corpus;
  for (size_t t = 0; t < kCommonTerms; ++t) {
    corpus.common_terms.push_back(TermName("kw", t));
  }
  for (size_t t = 0; t < kRareTerms; ++t) {
    corpus.rare_terms.push_back(TermName("rq", t));
  }
  for (size_t t = 0; t < kSmallTerms; ++t) {
    corpus.small_terms.push_back(TermName("sm", t));
  }
  corpus.shards.resize(kShards);
  const xfrag::gen::PlantMode kModes[] = {xfrag::gen::PlantMode::kClustered,
                                          xfrag::gen::PlantMode::kScattered,
                                          xfrag::gen::PlantMode::kSiblings};
  for (size_t d = 0; d < kDocuments; ++d) {
    const uint64_t doc_seed = seed * 1000003u + kCorpusSalt + d;
    xfrag::gen::CorpusProfile profile;
    profile.target_nodes = kNodesPerDocument;
    profile.seed = doc_seed;
    profile.max_fanout = 8;
    profile.max_depth = 8;
    xfrag::gen::RawCorpus raw = xfrag::gen::GenerateRaw(profile);
    Rng rng(doc_seed ^ 0x5eedu);
    std::vector<const std::string*> planted;
    for (size_t t = 0; t < kCommonTerms; ++t) {
      if (rng.Uniform(4) == 0) continue;  // each term misses ~1/4 of docs
      // Stamped copies multiply occurrences, so duplicated documents get
      // smaller seeds.
      size_t count = d % 2 == 1 ? 4 + rng.Uniform(13) : 4 + rng.Uniform(61);
      xfrag::gen::PlantKeyword(&raw, corpus.common_terms[t], count,
                               kModes[(t + d) % 3], &rng);
      planted.push_back(&corpus.common_terms[t]);
    }
    // Odd documents get subtree duplication 0.6, so DAG replay runs on
    // half the corpus and is bypassed on the other half. Stamping can wipe
    // planted occurrences; the top-up keeps every posting list >= 4.
    if (d % 2 == 1) {
      xfrag::gen::StampDuplicateSubtrees(&raw, 0.6, &rng);
      for (const std::string* term : planted) {
        size_t have = OccurrenceCount(raw, *term);
        if (have < 4) {
          xfrag::gen::PlantKeyword(&raw, *term, 4 - have,
                                   xfrag::gen::PlantMode::kScattered, &rng);
        }
      }
    }
    for (size_t t = 0; t < kRareTerms; ++t) {
      if (rng.Uniform(4) == 0) continue;
      // Clustered placements only: their closures stay small (high
      // reduction factor), so unfiltered queries over rare terms stay cheap.
      xfrag::gen::PlantKeyword(&raw, corpus.rare_terms[t], 4 + rng.Uniform(5),
                               xfrag::gen::PlantMode::kClustered, &rng);
    }
    for (const std::string& term : corpus.small_terms) {
      xfrag::gen::PlantKeyword(&raw, term, 3 + rng.Uniform(2),
                               xfrag::gen::PlantMode::kScattered, &rng);
    }
    const std::string name = StrFormat("doc%02zu.xml", d);
    for (xfrag::collection::Collection* target :
         {&corpus.combined, &corpus.shards[d / (kDocuments / kShards)]}) {
      auto document = xfrag::gen::Materialize(raw);
      if (!document.ok()) Die(document.status());
      auto status = target->Add(name, std::move(document).value());
      if (!status.ok()) Die(status);
    }
  }
  return corpus;
}

Stream MakeStream(Workload workload, const Corpus& corpus, uint64_t seed) {
  Rng rng(seed * 7919u + kStreamSalt[static_cast<int>(workload)]);
  const std::vector<std::string>& common = corpus.common_terms;
  const std::vector<std::string>& small = corpus.small_terms;
  Stream stream;
  stream.target = "/query";
  switch (workload) {
    case Workload::kXfragdPoint: {
      // Cheap filtered push-down queries over every pair of rare terms, in
      // JSON fields and in XQL, with two answer limits, drawn Zipf-popular.
      // The popularity ranks are the same for every seed (the most popular
      // body alone draws ~15% of the traffic, so a seeded ranking would move
      // qps by ~20%); the seed draws the sequence. A same-snapshot reload
      // invalidates both caches once a second.
      const std::vector<std::string>& rare = corpus.rare_terms;
      for (size_t a = 0; a < rare.size(); ++a) {
        for (size_t b = a + 1; b < rare.size(); ++b) {
          for (int limit : {8, 16}) {
            stream.population.push_back(StrFormat(
                R"({"terms":[%s,%s],"filter":"size<=3","strategy":"pushdown",)"
                R"("max_answers":%d})",
                Quoted(rare[a]).c_str(), Quoted(rare[b]).c_str(), limit));
            stream.population.push_back(StrFormat(
                R"({"q":"{%s, %s} WHERE size<=3 USING pushdown LIMIT %d"})",
                rare[a].c_str(), rare[b].c_str(), limit));
          }
        }
      }
      std::vector<uint32_t> popularity(stream.population.size());
      for (size_t i = 0; i < popularity.size(); ++i) {
        popularity[i] = static_cast<uint32_t>(i);
      }
      Rng ranking(kPopularitySeed);
      ranking.Shuffle(&popularity);
      xfrag::ZipfSampler zipf(popularity.size(), 1.0);
      stream.order.reserve(kStreamLength);
      for (size_t i = 0; i < kStreamLength; ++i) {
        stream.order.push_back(popularity[zipf.Sample(&rng)]);
      }
      stream.reload_period_s = kPointReloadPeriodS;
      break;
    }
    case Workload::kXfragdAlgebra: {
      // Distinct heavy queries: every request is new, so the result cache
      // never answers and the engine, executor, fixed-point cache and DAG
      // replay carry the time. Composed queries carry a WHERE size bound
      // no answer reaches: it only makes each request a distinct cache key.
      const std::vector<std::string>& rare = corpus.rare_terms;
      for (size_t i = 0; i < kAlgebraStreamLength; ++i) {
        auto [a, b] = DrawPair(&rng, rare.size());
        const size_t c = rng.Uniform(rare.size());
        auto [s1, s2] = DrawPair(&rng, small.size());
        const int limit = 10 + static_cast<int>(rng.Uniform(100));
        const int never = 1000 + static_cast<int>(rng.Uniform(9000));
        std::string q;
        switch (i % 4) {
          case 0:
            q = StrFormat("{%s, %s} TOP %d LIMIT %d", rare[a].c_str(),
                          rare[b].c_str(),
                          5 + static_cast<int>(rng.Uniform(10)), limit);
            break;
          case 1:
            q = StrFormat(
                "FIXPOINT REDUCED({%s}) JOIN {%s} WHERE size<=%d LIMIT %d",
                rare[a].c_str(), rare[b].c_str(),
                4 + static_cast<int>(rng.Uniform(4)), limit);
            break;
          case 2:
            q = StrFormat("{%s} JOIN {%s} JOIN {%s} WHERE size<=%d LIMIT %d",
                          rare[a].c_str(), rare[b].c_str(), rare[c].c_str(),
                          never, limit);
            break;
          default:
            q = StrFormat("{%s} POWERSET {%s} WHERE size<=%d LIMIT %d",
                          small[s1].c_str(), small[s2].c_str(), never, limit);
            break;
        }
        stream.population.push_back(StrFormat(R"({"q":"%s"})", q.c_str()));
        stream.order.push_back(static_cast<uint32_t>(i));
      }
      break;
    }
    case Workload::kRouterMixed: {
      // Unfiltered top-10 queries over every rare-term pair alternate with
      // filtered full-mode queries over as many seeded common-term pairs.
      // The stream opens with one pass over this population (the warm-up),
      // so the measured phases run with warm shard caches and the router
      // layer — scatter, merge, the two-phase top-k exchange, the slowest
      // shard — sets the time.
      const std::vector<std::string>& rare = corpus.rare_terms;
      for (size_t a = 0; a < rare.size(); ++a) {
        for (size_t b = a + 1; b < rare.size(); ++b) {
          stream.population.push_back(StrFormat(
              R"({"terms":[%s,%s],"top_k":10})", Quoted(rare[a]).c_str(),
              Quoted(rare[b]).c_str()));
          auto [x, y] = DrawPair(&rng, common.size());
          stream.population.push_back(StrFormat(
              R"({"terms":[%s,%s],"filter":"size<=3","strategy":"pushdown",)"
              R"("max_answers":64})",
              Quoted(common[x]).c_str(), Quoted(common[y]).c_str()));
        }
      }
      for (size_t i = 0; i < stream.population.size(); ++i) {
        stream.order.push_back(static_cast<uint32_t>(i));
      }
      const size_t pairs = stream.population.size() / 2;
      while (stream.order.size() < kStreamLength) {
        stream.order.push_back(static_cast<uint32_t>(
            2 * rng.Uniform(pairs) + stream.order.size() % 2));
      }
      break;
    }
    case Workload::kRouterBatch64: {
      // 64-item batches: full-mode items over four groups of three rare
      // terms and top-k items over two groups of three small terms. Items of
      // a group share terms (scan sharing); groups are term-disjoint.
      stream.target = "/query_batch";
      stream.items_per_request = kBatchItems;
      const std::vector<std::string>& rare = corpus.rare_terms;
      auto pick = [&](size_t count, size_t universe) {
        std::vector<size_t> picks;
        while (picks.size() < count) {
          size_t t = rng.Uniform(universe);
          if (std::find(picks.begin(), picks.end(), t) == picks.end()) {
            picks.push_back(t);
          }
        }
        return picks;
      };
      for (size_t i = 0; i < kBatchStreamLength; ++i) {
        const std::vector<size_t> full_terms = pick(12, rare.size());
        const std::vector<size_t> topk_terms = pick(6, small.size());
        std::string body = "[";
        for (size_t item = 0; item < kBatchItems; ++item) {
          auto [x, y] = DrawPair(&rng, 3);
          if (item > 0) body += ",";
          if (item % 2 == 0) {
            const size_t group = rng.Uniform(4);
            body += StrFormat(
                R"({"terms":[%s,%s],"filter":"size<=3","strategy":"pushdown",)"
                R"("max_answers":%d})",
                Quoted(rare[full_terms[3 * group + x]]).c_str(),
                Quoted(rare[full_terms[3 * group + y]]).c_str(),
                16 + static_cast<int>(rng.Uniform(64)));
          } else {
            const size_t group = rng.Uniform(2);
            body += StrFormat(R"({"terms":[%s,%s],"top_k":%d})",
                              Quoted(small[topk_terms[3 * group + x]]).c_str(),
                              Quoted(small[topk_terms[3 * group + y]]).c_str(),
                              5 + static_cast<int>(rng.Uniform(11)));
          }
        }
        body += "]";
        stream.population.push_back(std::move(body));
        stream.order.push_back(static_cast<uint32_t>(i));
      }
      break;
    }
  }
  return stream;
}

}  // namespace perfbench
