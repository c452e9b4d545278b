// Seeded inputs of the xfrag performance ledger: one corpus (16 documents,
// ~200k nodes, Zipfian vocabulary, planted query terms, half the documents
// with duplicated subtrees) and the request stream of each named workload.
// Everything here is a pure function of the seed, so two runs with one seed
// write byte-identical snapshots and send byte-identical request bodies.

#ifndef XFRAG_PERFBENCH_CORPUS_H_
#define XFRAG_PERFBENCH_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "collection/collection.h"
#include "common/status.h"

namespace perfbench {

inline constexpr size_t kDocuments = 16;
inline constexpr size_t kShards = 4;
inline constexpr size_t kNodesPerDocument = 12500;
inline constexpr size_t kBatchItems = 64;

enum class Workload {
  kXfragdPoint,
  kXfragdAlgebra,
  kRouterMixed,
  kRouterBatch64
};

inline constexpr Workload kAllWorkloads[] = {
    Workload::kXfragdPoint, Workload::kXfragdAlgebra, Workload::kRouterMixed,
    Workload::kRouterBatch64};

const char* WorkloadName(Workload workload);
xfrag::StatusOr<Workload> ParseWorkload(std::string_view name);
/// True for the workloads served by xfrag_router over four xfragd shards.
bool UsesRouter(Workload workload);

/// The generated collection, whole and split into kShards contiguous slices.
struct Corpus {
  xfrag::collection::Collection combined;
  std::vector<xfrag::collection::Collection> shards;
  /// Terms planted before subtree stamping, 4..64 occurrences per document
  /// (stamped copies may multiply them): the operands of most queries.
  std::vector<std::string> common_terms;
  /// Terms planted after stamping, 4..12 occurrences in ~3/4 of the
  /// documents: the operands of unfiltered and composed queries.
  std::vector<std::string> rare_terms;
  /// Terms planted after stamping, 4..5 occurrences in every document: the
  /// operands whose powersets stay small.
  std::vector<std::string> small_terms;
};

/// \brief Generates the corpus for `seed`; equal seeds give equal corpora.
Corpus GenerateCorpus(uint64_t seed);

/// The ledger serves one corpus, generated from this seed; --seed varies
/// the request streams over it. Corpus draws (document sizes under subtree
/// stamping, posting sizes, placements) move a run's cost by ~30% from one
/// corpus seed to the next, which would drown every bound.
inline constexpr uint64_t kCorpusSeed = 1;

/// \brief One workload's requests. Request i of the stream is
/// population[order[i % order.size()]]. A same-snapshot reload is due every
/// `reload_period_s` seconds of a load phase, the first at half a period
/// (0 = never), so each one-second window of a phase holds one reload.
struct Stream {
  std::string target;  // "/query" or "/query_batch"
  size_t items_per_request = 1;
  std::vector<std::string> population;
  std::vector<uint32_t> order;
  double reload_period_s = 0.0;

  const std::string& Body(size_t position) const {
    return population[order[position % order.size()]];
  }
  size_t Index(size_t position) const {
    return order[position % order.size()];
  }
};

/// \brief Builds the request stream of `workload` over `corpus`.
Stream MakeStream(Workload workload, const Corpus& corpus, uint64_t seed);

}  // namespace perfbench

#endif  // XFRAG_PERFBENCH_CORPUS_H_
