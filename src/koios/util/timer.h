// Monotonic stopwatch. core::PhaseScope times the paper's phase breakdowns
// (refinement vs post-processing share per query) with it.
#ifndef KOIOS_UTIL_TIMER_H_
#define KOIOS_UTIL_TIMER_H_

#include <chrono>

namespace koios::util {

/// Monotonic stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last Restart.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace koios::util

#endif  // KOIOS_UTIL_TIMER_H_
