#include "koios/core/stats.h"

#include <sstream>

namespace koios::core {

namespace {

constexpr const char* kPhaseNames[] = {"cursor_build", "refinement",
                                       "postprocess"};
// Span names are string literals: the trace recorder keeps the pointers.
constexpr const char* kPhaseSpanNames[] = {
    "search.cursor_build", "search.refinement", "search.postprocess"};

}  // namespace

const char* PhaseName(Phase phase) {
  return kPhaseNames[static_cast<size_t>(phase)];
}

double PhaseTimes::Get(std::string_view name) const {
  for (Phase phase : kPhases) {
    if (name == PhaseName(phase)) return Get(phase);
  }
  return 0.0;
}

double PhaseTimes::Total() const {
  double total = 0.0;
  for (double seconds : seconds_) total += seconds;
  return total;
}

PhaseScope::PhaseScope(Phase phase, SearchStats* stats)
    : phase_(phase),
      stats_(stats),
      span_(kPhaseSpanNames[static_cast<size_t>(phase)]) {}

std::string SearchStats::ToString() const {
  std::ostringstream out;
  out << "refinement:  tuples=" << stream_tuples
      << " produced=" << stream_tuples_produced
      << " stop_sim=" << stream_stop_sim
      << " survivor_budget=" << stream_survivor_budget
      << " candidates=" << candidates
      << " iub_filtered=" << iub_filtered << " bucket_moves=" << bucket_moves
      << " postings_visited=" << postings_visited << " size_cut=" << size_cut
      << "\n";
  out << "postprocess: sets=" << postprocess_sets << " no_em=" << no_em_skipped
      << " em_early_term=" << em_early_terminated << " em=" << em_computed
      << " ub_pruned=" << postprocess_ub_pruned
      << " verify_ems=" << result_verification_ems
      << " ws_reuses=" << em_workspace_reuses << "\n";
  out << "time:        ";
  for (Phase phase : kPhases) {
    out << PhaseName(phase) << "=" << timers.Get(phase) << "s ";
  }
  out << "\nmemory:      " << util::MemoryTracker::FormatBytes(memory.TotalBytes());
  return out.str();
}

}  // namespace koios::core
