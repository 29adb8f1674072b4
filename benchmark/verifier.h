// Result checks shared by koios_bench and its self-test. A top-k
// answer is correct when it holds at most k entries, is ordered by score
// descending and then set id ascending (the canonical tie rule), and every
// score equals the semantic-overlap oracle within kScoreTolerance.
#ifndef KOIOS_BENCHMARK_VERIFIER_H_
#define KOIOS_BENCHMARK_VERIFIER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "koios/core/search_types.h"
#include "koios/index/set_collection.h"
#include "koios/sim/similarity.h"
#include "koios/util/types.h"

namespace koios::bench {

inline constexpr double kScoreTolerance = 1e-9;

/// Empty when `topk` has at most `k` entries in canonical order; otherwise
/// a description of the first violation.
std::string CheckOrder(std::span<const core::ResultEntry> topk, size_t k);

/// Empty when every entry's score matches matching::SemanticOverlap of the
/// query against the entry's set; otherwise the first mismatch. Appends the
/// wall time of each oracle call (microseconds) to `oracle_us` if given.
std::string CheckScores(std::span<const core::ResultEntry> topk,
                        std::span<const TokenId> query,
                        const index::SetCollection& sets,
                        const sim::SimilarityFunction& sim, Score alpha,
                        std::vector<double>* oracle_us = nullptr);

/// True when both lists hold the same sets, scores and exact flags, bit for
/// bit, in the same order.
bool SameEntries(std::span<const core::ResultEntry> a,
                 std::span<const core::ResultEntry> b);

/// Folds one result list into a running FNV-1a digest (set id, score bits,
/// exact flag, and the list length as a separator).
uint64_t DigestEntries(uint64_t digest, std::span<const core::ResultEntry> topk);

inline constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ull;

}  // namespace koios::bench

#endif  // KOIOS_BENCHMARK_VERIFIER_H_
