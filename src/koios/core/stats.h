// Counters and timings reported by a Koios search. These back the paper's
// pruning-power tables (II, IV, V), phase breakdowns (Fig. 5b/c, 6b/c) and
// memory plots (5d, 6d, 7d).
#ifndef KOIOS_CORE_STATS_H_
#define KOIOS_CORE_STATS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "koios/util/memory_tracker.h"
#include "koios/util/timer.h"
#include "koios/util/trace_recorder.h"
#include "koios/util/types.h"

namespace koios::core {

/// The phases a search is timed by (the paper's Figs. 5-6 breakdowns).
enum class Phase { kCursorBuild, kRefinement, kPostprocess };
inline constexpr std::array<Phase, 3> kPhases = {
    Phase::kCursorBuild, Phase::kRefinement, Phase::kPostprocess};

/// "cursor_build", "refinement", "postprocess".
const char* PhaseName(Phase phase);

/// Seconds spent per phase, one slot per Phase.
class PhaseTimes {
 public:
  void Accumulate(Phase phase, double seconds) {
    seconds_[static_cast<size_t>(phase)] += seconds;
  }
  double Get(Phase phase) const { return seconds_[static_cast<size_t>(phase)]; }
  /// By PhaseName; 0 for a name that is not a phase.
  double Get(std::string_view name) const;
  double Total() const;
  void Merge(const PhaseTimes& other) {
    for (size_t i = 0; i < seconds_.size(); ++i) {
      seconds_[i] += other.seconds_[i];
    }
  }

 private:
  std::array<double, kPhases.size()> seconds_{};
};

struct SearchStats {
  // --- refinement --------------------------------------------------------
  /// Tuples consumed from the token stream Ie.
  size_t stream_tuples = 0;
  /// Tuples the edge cache produced (a shard's own; summed over the shards
  /// when merged).
  /// With θlb feedback this is the pruned count; the drain-to-α path
  /// produces every pair >= α.
  size_t stream_tuples_produced = 0;
  /// Similarity of the first tuple the stream did not produce once the
  /// consumers stopped pulling (0 = drained to α). Strictly above α
  /// whenever feedback saved work.
  Score stream_stop_sim = 0.0;
  /// Survivor budget max(32, 4k) in force when a refinement consumer
  /// stopped early (0 = never stopped).
  size_t stream_survivor_budget = 0;
  /// Distinct sets that ever became candidates (appeared in a probed
  /// posting list).
  size_t candidates = 0;
  /// Sets pruned during refinement by the (i)UB filter — on arrival or by
  /// the iUB filter's checks ("iUB-Filtered" in Tables IV/V).
  size_t iub_filtered = 0;
  /// Changes of a candidate's iUB key m, each a bucket move in §V's
  /// bucketized filter (0 for the naive per-tuple scan).
  size_t bucket_moves = 0;
  /// Posting-list entries the walk visited: those below each tuple's size
  /// cut (the sets that can still reach θlb).
  size_t postings_visited = 0;
  /// The size cut refinement ended at, ⌈θlb − ε⌉: the walk skipped every
  /// set with min(|Q|, |C|) below it from some tuple on (0 = no cut; the
  /// largest of a query's shards when merged).
  size_t size_cut = 0;

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
  PhaseTimes timers;
  util::MemoryTracker memory;  // per-structure peak footprints

  void Merge(const SearchStats& other) {
    stream_tuples += other.stream_tuples;
    stream_tuples_produced += other.stream_tuples_produced;
    stream_stop_sim = std::max(stream_stop_sim, other.stream_stop_sim);
    stream_survivor_budget =
        std::max(stream_survivor_budget, other.stream_survivor_budget);
    candidates += other.candidates;
    iub_filtered += other.iub_filtered;
    bucket_moves += other.bucket_moves;
    postings_visited += other.postings_visited;
    size_cut = std::max(size_cut, other.size_cut);
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

/// Times one phase of a search, once: on destruction it adds the scope's
/// wall time to `stats->timers`, and while the query is sampled by the
/// trace recorder it is also the phase's span ("search.cursor_build",
/// "search.refinement", "search.postprocess").
class PhaseScope {
 public:
  PhaseScope(Phase phase, SearchStats* stats);
  ~PhaseScope() { stats_->timers.Accumulate(phase_, timer_.ElapsedSeconds()); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// The span's integer annotation (ignored when the query is unsampled).
  void set_arg(const char* arg_name, uint64_t value) {
    span_.set_arg(arg_name, value);
  }

 private:
  Phase phase_;
  SearchStats* stats_;
  util::TraceSpan span_;
  util::WallTimer timer_;
};

}  // namespace koios::core

#endif  // KOIOS_CORE_STATS_H_
