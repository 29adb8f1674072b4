#include "koios/util/zipf.h"

#include <cassert>
#include <cmath>

namespace koios::util {

// Rejection-inversion sampling after Hörmann & Derflinger (1996), as used in
// many database workload generators. We sample x in [0.5, n + 0.5) from the
// hazard-transformed distribution and accept with a bound that is exact for
// the discrete Zipf pmf.

ZipfDistribution::ZipfDistribution(uint64_t n, double s) : n_(n), s_(s) {
  assert(n >= 1);
  assert(s >= 0.0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s));
}

double ZipfDistribution::H(double x) const {
  // H(x) = integral of x^-s: ((x)^(1-s) - 1) / (1 - s); log for s == 1.
  if (std::abs(s_ - 1.0) < 1e-12) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfDistribution::HInverse(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

uint64_t ZipfDistribution::Sample(Rng* rng) const {
  if (s_ == 0.0) return rng->NextBounded(n_);  // uniform shortcut
  while (true) {
    const double u = h_n_ + rng->NextDouble() * (h_x1_ - h_n_);
    const double x = HInverse(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    if (static_cast<double>(k) - x <= threshold_ ||
        u >= H(static_cast<double>(k) + 0.5) - std::pow(static_cast<double>(k), -s_)) {
      return k - 1;  // return 0-based rank
    }
  }
}

}  // namespace koios::util
