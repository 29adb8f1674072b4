// Zipfian sampling used by the corpus generators: set cardinalities and
// element frequencies in real repositories follow power laws (paper §VIII-A,
// citing [7], [8]).
#ifndef KOIOS_UTIL_ZIPF_H_
#define KOIOS_UTIL_ZIPF_H_

#include <cstddef>
#include <cstdint>

#include "koios/util/rng.h"

namespace koios::util {

/// Samples ranks in [0, n) with P(rank = r) proportional to 1 / (r + 1)^s.
/// Uses the rejection-inversion method of Hörmann & Derflinger, which is
/// O(1) per sample and needs no table.
class ZipfDistribution {
 public:
  /// n: number of ranks; s: skew exponent (s >= 0; s = 0 is uniform).
  ZipfDistribution(uint64_t n, double s);

  uint64_t Sample(Rng* rng) const;

  uint64_t n() const { return n_; }
  double s() const { return s_; }

 private:
  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;  // s-dependent acceptance shortcut for rank 0
};

}  // namespace koios::util

#endif  // KOIOS_UTIL_ZIPF_H_
