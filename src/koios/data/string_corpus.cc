#include "koios/data/string_corpus.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "koios/util/zipf.h"

namespace koios::data {

std::string MakeTypo(const std::string& word, util::Rng* rng) {
  assert(!word.empty());
  std::string out = word;
  const size_t pos = rng->NextBounded(out.size());
  switch (rng->NextBounded(3)) {
    case 0:  // drop (keep at least 2 chars)
      if (out.size() > 2) out.erase(pos, 1);
      break;
    case 1:  // double
      out.insert(out.begin() + static_cast<ptrdiff_t>(pos), out[pos]);
      break;
    default:  // substitute with a nearby letter
      out[pos] = static_cast<char>('a' + (out[pos] - 'a' + 1 + rng->NextBounded(3)) % 26);
      break;
  }
  return out;
}

util::Status ValidateStringCorpusSpec(const StringCorpusSpec& spec) {
  auto fail = [](const std::string& what) {
    return util::Status::InvalidArgument("string corpus spec: " + what);
  };
  if (spec.num_base_words < 1) return fail("num_base_words must be at least 1");
  if (spec.min_word_length < 1) {
    return fail("min_word_length must be at least 1");
  }
  if (spec.max_word_length < spec.min_word_length) {
    return fail("max_word_length " + std::to_string(spec.max_word_length) +
                " is below min_word_length " +
                std::to_string(spec.min_word_length));
  }
  if (spec.max_set_size < spec.min_set_size) {
    return fail("max_set_size " + std::to_string(spec.max_set_size) +
                " is below min_set_size " + std::to_string(spec.min_set_size));
  }
  return util::Status::OK();
}

StringCorpus GenerateStringCorpus(const StringCorpusSpec& spec) {
  assert(ValidateStringCorpusSpec(spec).ok());
  StringCorpus corpus;
  corpus.spec = spec;
  util::Rng rng(spec.seed);

  // Base words: random lowercase strings with a vowel every other letter so
  // they look word-like and q-grams collide realistically.
  std::vector<TokenId> word_ids;
  const char vowels[] = "aeiou";
  const char consonants[] = "bcdfghjklmnpqrstvwz";
  for (size_t i = 0; i < spec.num_base_words; ++i) {
    const size_t len = spec.min_word_length +
                       rng.NextBounded(spec.max_word_length -
                                       spec.min_word_length + 1);
    std::string word;
    for (size_t j = 0; j < len; ++j) {
      word += (j % 2 == 0) ? consonants[rng.NextBounded(19)]
                           : vowels[rng.NextBounded(5)];
    }
    const TokenId base = corpus.dict.Intern(word);
    if (base >= corpus.base_of.size()) corpus.base_of.resize(base + 1);
    corpus.base_of[base] = base;
    word_ids.push_back(base);
    for (size_t t = 0; t < spec.typos_per_word; ++t) {
      const TokenId typo = corpus.dict.Intern(MakeTypo(word, &rng));
      if (typo >= corpus.base_of.size()) corpus.base_of.resize(typo + 1);
      corpus.base_of[typo] = base;
      word_ids.push_back(typo);
    }
  }

  util::ZipfDistribution word_dist(word_ids.size(), spec.word_skew);
  std::unordered_set<TokenId> dedup;
  std::vector<TokenId> members;
  for (size_t s = 0; s < spec.num_sets; ++s) {
    const size_t target =
        spec.min_set_size +
        rng.NextBounded(spec.max_set_size - spec.min_set_size + 1);
    members.clear();
    dedup.clear();
    size_t attempts = 0;
    while (members.size() < target && attempts < target * 30 + 50) {
      ++attempts;
      const TokenId t = word_ids[word_dist.Sample(&rng)];
      if (dedup.insert(t).second) members.push_back(t);
    }
    corpus.sets.AddSet(members);
  }

  std::unordered_set<TokenId> seen;
  for (SetId id = 0; id < corpus.sets.size(); ++id) {
    for (TokenId t : corpus.sets.Tokens(id)) seen.insert(t);
  }
  corpus.vocabulary.assign(seen.begin(), seen.end());
  std::sort(corpus.vocabulary.begin(), corpus.vocabulary.end());
  return corpus;
}

}  // namespace koios::data
