// Counters and timings reported by a Koios search. These back the paper's
// pruning-power tables (II, IV, V), phase breakdowns (Fig. 5b/c, 6b/c) and
// memory plots (5d, 6d, 7d).
#ifndef KOIOS_CORE_STATS_H_
#define KOIOS_CORE_STATS_H_

#include <algorithm>
#include <cstddef>
#include <string>

#include "koios/util/memory_tracker.h"
#include "koios/util/timer.h"
#include "koios/util/types.h"

namespace koios::core {

struct SearchStats {
  // --- refinement --------------------------------------------------------
  /// Tuples consumed from the token stream Ie.
  size_t stream_tuples = 0;
  /// Tuples the producer materialized (once per query, not per partition).
  /// With θlb→producer feedback this is the pruned count; the drain-to-α
  /// path produces every pair >= α.
  size_t stream_tuples_produced = 0;
  /// Similarity at which the feedback loop stopped the stream (0 = drained
  /// to α). Strictly above α whenever feedback saved work.
  Score stream_stop_sim = 0.0;
  /// Survivor budget in force when a refinement consumer stopped early
  /// (0 = never stopped). Fixed max(32, 4k) by default; varies with the
  /// measured stream cost under SearchParams::use_adaptive_survivor_budget.
  size_t stream_survivor_budget = 0;
  /// Distinct sets that ever became candidates (appeared in a probed
  /// posting list).
  size_t candidates = 0;
  /// Sets pruned during refinement by the (i)UB filter — on arrival or by a
  /// bucket scan ("iUB-Filtered" in Tables IV/V).
  size_t iub_filtered = 0;
  /// Individual bucket relocations (for the bucket-overhead ablation).
  size_t bucket_moves = 0;

  // --- post-processing ---------------------------------------------------
  /// Sets entering post-processing (candidates - iub_filtered).
  size_t postprocess_sets = 0;
  /// Sets admitted to the result by the No-EM filter without matching.
  size_t no_em_skipped = 0;
  /// Sets whose exact matching was aborted by early termination.
  size_t em_early_terminated = 0;
  /// Full exact matchings computed ("EM" column in Tables IV/V).
  size_t em_computed = 0;
  /// Sets discarded from Qub because their UB fell below θlb.
  size_t postprocess_ub_pruned = 0;
  /// Extra exact matchings run only to report exact scores for No-EM sets
  /// (not part of the algorithm; see SearchParams::verify_result_scores).
  size_t result_verification_ems = 0;
  /// Exact matchings that ran on their thread's warm matcher and matrix
  /// (everything beyond each thread's first matching).
  size_t em_workspace_reuses = 0;

  // --- meta ---------------------------------------------------------------
  util::PhaseTimer timers;           // "refinement", "postprocess"
  util::MemoryTracker memory;        // per-structure peak footprints

  void Merge(const SearchStats& other) {
    stream_tuples += other.stream_tuples;
    stream_tuples_produced += other.stream_tuples_produced;
    stream_stop_sim = std::max(stream_stop_sim, other.stream_stop_sim);
    stream_survivor_budget =
        std::max(stream_survivor_budget, other.stream_survivor_budget);
    candidates += other.candidates;
    iub_filtered += other.iub_filtered;
    bucket_moves += other.bucket_moves;
    postprocess_sets += other.postprocess_sets;
    no_em_skipped += other.no_em_skipped;
    em_early_terminated += other.em_early_terminated;
    em_computed += other.em_computed;
    postprocess_ub_pruned += other.postprocess_ub_pruned;
    result_verification_ems += other.result_verification_ems;
    em_workspace_reuses += other.em_workspace_reuses;
    timers.Merge(other.timers);
    memory.Merge(other.memory);
  }

  /// Multi-line human-readable rendering (used by examples and benches).
  std::string ToString() const;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_STATS_H_
