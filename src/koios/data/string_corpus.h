// String-token corpus generation for the syntactic (q-gram Jaccard)
// experiments and examples: a vocabulary of synthetic words plus
// character-level *typo variants* (dropped / doubled / substituted
// letters), so fuzzy matching has realistic near-duplicates to find — the
// (squirrel, squirrell) and (konstantine, konstantin) pairs the paper
// reports in its OpenData quality study (§VIII-E).
#ifndef KOIOS_DATA_STRING_CORPUS_H_
#define KOIOS_DATA_STRING_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "koios/index/set_collection.h"
#include "koios/text/dictionary.h"
#include "koios/util/rng.h"
#include "koios/util/status.h"
#include "koios/util/types.h"

namespace koios::data {

struct StringCorpusSpec {
  size_t num_sets = 200;
  /// Base (clean) words in the vocabulary.
  size_t num_base_words = 300;
  /// Typo variants generated per base word.
  size_t typos_per_word = 2;
  size_t min_word_length = 5;
  size_t max_word_length = 12;
  size_t min_set_size = 4;
  size_t max_set_size = 20;
  /// Zipf skew of word draws (frequent words appear in many sets).
  double word_skew = 0.6;
  uint64_t seed = 2024;
};

struct StringCorpus {
  StringCorpusSpec spec;
  text::Dictionary dict;
  index::SetCollection sets;
  std::vector<TokenId> vocabulary;  // distinct tokens used, ascending
  /// Base word of each token (its own id for clean words), for tests.
  std::vector<TokenId> base_of;
};

/// InvalidArgument unless the spec has at least one base word, 1 <=
/// min_word_length <= max_word_length and min_set_size <= max_set_size.
/// Tools that take the spec from flags check it before generating
/// anything.
util::Status ValidateStringCorpusSpec(const StringCorpusSpec& spec);

/// Deterministically generates a corpus from spec.seed. The spec must pass
/// ValidateStringCorpusSpec.
StringCorpus GenerateStringCorpus(const StringCorpusSpec& spec);

/// One random typo: drop, double, or substitute a character.
std::string MakeTypo(const std::string& word, util::Rng* rng);

}  // namespace koios::data

#endif  // KOIOS_DATA_STRING_CORPUS_H_
