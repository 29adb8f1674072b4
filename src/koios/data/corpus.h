// Synthetic corpus generation standing in for the paper's four datasets
// (DBLP, OpenData, Twitter, WDC — Table I). A corpus is a SetCollection of
// TokenId sets drawn from a Zipfian element distribution, with per-dataset
// cardinality distributions:
//
//   dataset   #sets      max size  avg size  #uniq   shape
//   DBLP      4,246      514       178.7     25,159  ~normal sizes, mild skew
//   OpenData  15,636     31,901    86.4      179,830 heavy-tailed sizes
//   Twitter   27,204     151       22.6      72,910  small normal sizes
//   WDC       1,014,369  10,240    30.6      328,357 heavy tail + very
//                                                    frequent elements
//
// Element ids are drawn Zipfian over the vocabulary, so low ids are
// frequent; combined with the synthetic embedding model (sequential
// concept clusters) this reproduces the posting-list skew that drives the
// paper's WDC observations (§VIII-A1). `Scaled(f)` shrinks a preset for
// laptop-scale runs; EXPERIMENTS.md records the scale used per experiment.
#ifndef KOIOS_DATA_CORPUS_H_
#define KOIOS_DATA_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "koios/index/set_collection.h"
#include "koios/util/rng.h"
#include "koios/util/status.h"
#include "koios/util/types.h"

namespace koios::data {

enum class SizeDistribution {
  kUniform,  // uniform in [min_set_size, max_set_size]
  kNormal,   // normal(avg_set_size, size_stddev), clipped
  kPareto,   // bounded Pareto with shape `pareto_shape`, min at min_set_size
};

struct CorpusSpec {
  std::string name = "synthetic";
  size_t num_sets = 1000;
  size_t vocab_size = 10000;
  /// Zipf exponent for element draws (0 = uniform; ~0.7 open-data-like;
  /// >= 1.0 produces the very frequent elements seen in WDC).
  double element_skew = 0.7;

  SizeDistribution size_distribution = SizeDistribution::kNormal;
  size_t min_set_size = 5;
  size_t max_set_size = 200;
  double avg_set_size = 40.0;
  double size_stddev = 20.0;   // kNormal only
  double pareto_shape = 1.35;  // kPareto only; smaller = heavier tail

  uint64_t seed = 1234;

  /// Returns a copy with num_sets and vocab_size multiplied by `f`
  /// (cardinality distributions and max sizes also shrink by sqrt(f) for
  /// the heavy-tailed presets so posting/graph shapes stay proportional;
  /// max_set_size never exceeds the scaled vocab_size).
  CorpusSpec Scaled(double f) const;
};

/// Presets mirroring Table I. Pass `scale` < 1 for laptop-size runs.
CorpusSpec DblpSpec(double scale = 1.0);
CorpusSpec OpenDataSpec(double scale = 1.0);
CorpusSpec TwitterSpec(double scale = 1.0);
CorpusSpec WdcSpec(double scale = 1.0);

/// A generated corpus: the repository L plus its distinct-token vocabulary.
struct Corpus {
  CorpusSpec spec;
  index::SetCollection sets;
  std::vector<TokenId> vocabulary;  // distinct tokens, ascending

  size_t NumSets() const { return sets.size(); }
};

/// InvalidArgument unless 1 <= min_set_size <= max_set_size <= vocab_size:
/// the sizes GenerateCorpus can draw distinct tokens for. Tools that take
/// the spec from flags check it before generating anything.
util::Status ValidateCorpusSpec(const CorpusSpec& spec);

/// Generates a corpus deterministically from spec.seed. The spec must pass
/// ValidateCorpusSpec.
Corpus GenerateCorpus(const CorpusSpec& spec);

}  // namespace koios::data

#endif  // KOIOS_DATA_CORPUS_H_
