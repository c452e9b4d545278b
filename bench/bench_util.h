// Shared helpers for the paper-reproduction bench binaries: planted-corpus
// construction, median-of-N timing, and fixed-width table printing that
// mirrors the paper's presentation.

#ifndef XFRAG_BENCH_BENCH_UTIL_H_
#define XFRAG_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "doc/document.h"
#include "gen/corpus.h"
#include "text/inverted_index.h"

namespace xfrag::bench {

/// \brief One machine-readable benchmark measurement — the BENCH_*.json row
/// schema.
///
/// `serial_ms` is the baseline timing and `parallel_ms` the candidate
/// (prefiltered kernel, DAG replay, snapshot open, ...); for plain
/// microbenchmarks both hold the same measurement and the speedup is 1.
/// `counters` appends extra integer fields to the JSON object (e.g.
/// "pairs_rejected_summary").
struct BenchRecord {
  BenchRecord() = default;
  BenchRecord(std::string op_in, size_t set1_in, size_t set2_in,
              unsigned threads_in, double serial_ms_in, double parallel_ms_in,
              bool equal_in)
      : op(std::move(op_in)),
        set1(set1_in),
        set2(set2_in),
        threads(threads_in),
        serial_ms(serial_ms_in),
        parallel_ms(parallel_ms_in),
        equal(equal_in) {}

  std::string op;
  size_t set1 = 0;
  size_t set2 = 0;
  unsigned threads = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool equal = false;
  std::vector<std::pair<std::string, uint64_t>> counters;

  double speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
};

/// \brief Writes `records` to `path` as a JSON array.
///
/// With `merge` set (the default), records already in the file whose "op"
/// does not occur in `records` are kept — the fig3/fig4/fig5 binaries and
/// bench_summary_prefilter all contribute to one BENCH_core.json, each run
/// replacing only its own ops. Bare filenames are resolved through
/// BenchOutputPath() so artifacts land at the repo root, not in build/.
void WriteBenchJson(const std::vector<BenchRecord>& records,
                    const std::string& path, bool merge = true);

/// \brief Resolves where a BENCH_*.json artifact should be written.
///
/// Paths that already contain a '/' are returned unchanged. Otherwise the
/// precedence is: $XFRAG_BENCH_DIR if set, else the nearest ancestor of the
/// working directory containing ROADMAP.md (the repo root — benches normally
/// run from build/), else the working directory itself.
std::string BenchOutputPath(const std::string& filename);

/// \brief True when $XFRAG_BENCH_SMOKE=1: CI smoke runs that only check the
/// binaries work. MakePlantedCorpus caps corpora at ~2000 nodes / 128
/// occurrences and MedianMillis takes a single sample.
bool BenchSmokeMode();

/// A generated corpus with two planted query keywords, ready to query.
struct PlantedCorpus {
  std::unique_ptr<doc::Document> document;
  std::unique_ptr<text::InvertedIndex> index;
  std::vector<doc::NodeId> postings1;
  std::vector<doc::NodeId> postings2;
  /// The planted terms are always "kwone" and "kwtwo".
  static constexpr const char* kTerm1 = "kwone";
  static constexpr const char* kTerm2 = "kwtwo";
};

/// \brief Generates a corpus of ~`nodes` nodes and plants the two benchmark
/// keywords with the given counts/modes. Deterministic in `seed`.
PlantedCorpus MakePlantedCorpus(size_t nodes, size_t count1,
                                gen::PlantMode mode1, size_t count2,
                                gen::PlantMode mode2, uint64_t seed);

/// \brief Median wall-clock milliseconds of `fn` over `repeats` runs.
double MedianMillis(const std::function<void()>& fn, int repeats = 5);

/// \brief Fixed-width console table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds one row; cells are printed right-aligned except the first column.
  void AddRow(std::vector<std::string> cells);

  /// Renders everything to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style cell helpers. (size_t is uint64_t on this platform.)
std::string Cell(double value, int precision = 2);
std::string Cell(uint64_t value);

/// \brief Prints the "== <title> ==" banner used by all bench binaries.
void Banner(const std::string& title);

}  // namespace xfrag::bench

#endif  // XFRAG_BENCH_BENCH_UTIL_H_
