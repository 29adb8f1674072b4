#include "koios/sim/minhash_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "koios/util/rng.h"

namespace koios::sim {

namespace {

// FNV-1a 64-bit, mixed with a per-row seed — a cheap keyed hash standing in
// for a random permutation of the gram universe.
uint64_t HashGram(const std::string& gram, uint64_t seed) {
  uint64_t h = 14695981039346656037ull ^ seed;
  for (unsigned char c : gram) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

}  // namespace

MinHashIndex::MinHashIndex(std::vector<TokenId> vocabulary,
                           const JaccardQGramSimilarity* sim,
                           const MinHashIndexSpec& spec)
    : BatchedNeighborIndex(sim),
      vocabulary_(std::move(vocabulary)),
      jaccard_(sim),
      spec_(spec) {
  SortUniqueVocabulary(&vocabulary_);  // bucket lists must come out ascending
  util::Rng rng(spec_.seed);
  const size_t rows = spec_.num_bands * spec_.rows_per_band;
  hash_seeds_.resize(rows);
  for (auto& s : hash_seeds_) s = rng.NextUint64();

  bands_.resize(spec_.num_bands);
  for (TokenId t : vocabulary_) {
    const auto signature = SignatureOf(jaccard_->GramsOf(t));
    for (size_t band = 0; band < spec_.num_bands; ++band) {
      bands_[band][BandKey(signature, band)].push_back(t);
    }
  }
}

std::vector<uint64_t> MinHashIndex::SignatureOf(
    const std::vector<std::string>& grams) const {
  std::vector<uint64_t> signature(hash_seeds_.size(),
                                  std::numeric_limits<uint64_t>::max());
  for (const auto& gram : grams) {
    for (size_t row = 0; row < hash_seeds_.size(); ++row) {
      signature[row] = std::min(signature[row], HashGram(gram, hash_seeds_[row]));
    }
  }
  return signature;
}

uint64_t MinHashIndex::BandKey(const std::vector<uint64_t>& signature,
                               size_t band) const {
  uint64_t key = 0xCBF29CE484222325ull + band;
  for (size_t r = 0; r < spec_.rows_per_band; ++r) {
    key ^= signature[band * spec_.rows_per_band + r] + 0x9E3779B97F4A7C15ull +
           (key << 6) + (key >> 2);
  }
  return key;
}

void MinHashIndex::CollectCandidates(TokenId q,
                                     std::vector<TokenId>* out) const {
  const auto signature = SignatureOf(jaccard_->GramsOf(q));
  std::vector<const std::vector<TokenId>*> hits;
  hits.reserve(spec_.num_bands);
  for (size_t band = 0; band < spec_.num_bands; ++band) {
    auto it = bands_[band].find(BandKey(signature, band));
    if (it != bands_[band].end()) hits.push_back(&it->second);
  }
  UnionBuckets(hits, out);
}

double MinHashIndex::CollisionProbability(double j) const {
  return 1.0 - std::pow(1.0 - std::pow(j, static_cast<double>(spec_.rows_per_band)),
                        static_cast<double>(spec_.num_bands));
}

size_t MinHashIndex::MemoryUsageBytes() const {
  size_t bytes = vocabulary_.capacity() * sizeof(TokenId) +
                 hash_seeds_.capacity() * sizeof(uint64_t);
  for (const auto& band : bands_) {
    for (const auto& [_, bucket] : band) {
      bytes += sizeof(uint64_t) + bucket.capacity() * sizeof(TokenId);
    }
  }
  return bytes + BatchedNeighborIndex::MemoryUsageBytes();
}

}  // namespace koios::sim
