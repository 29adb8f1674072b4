#include "koios/matching/hungarian.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace koios::matching {

namespace {
constexpr double kSlackEps = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double WeightMatrix::MaxWeight() const {
  double max_w = 0.0;
  for (double x : w_) max_w = std::max(max_w, x);
  return max_w;
}

MatchResult HungarianMatcher::Solve(const WeightMatrix& weights,
                                    double prune_threshold) {
  const size_t rows = weights.rows();
  const size_t cols = weights.cols();
  MatchResult result;
  result.match_of_row.assign(rows, -1);
  if (rows == 0 || cols == 0) return result;

  // Square-ify: n x n with zero padding.
  const size_t n = std::max(rows, cols);
  auto w = [&](size_t x, size_t y) -> double {
    return (x < rows && y < cols) ? weights.At(x, y) : 0.0;
  };

  // Feasible labels: lx = row max, ly = 0.
  std::vector<double> lx(n, 0.0);
  std::vector<double> ly(n, 0.0);
  double label_sum = 0.0;
  for (size_t x = 0; x < n; ++x) {
    double mx = 0.0;
    for (size_t y = 0; y < n; ++y) mx = std::max(mx, w(x, y));
    lx[x] = mx;
    label_sum += mx;
  }

  std::vector<int32_t> match_x(n, -1);
  std::vector<int32_t> match_y(n, -1);
  std::vector<double> slack(n);
  std::vector<int32_t> slack_x(n);    // argmin row for slack[y]
  std::vector<int32_t> parent_y(n);   // alternating-tree parent
  std::vector<char> in_s(n);
  std::vector<char> in_t(n);

  for (size_t root = 0; root < n; ++root) {
    // Early termination (Lemma 8): Σ l(v) only decreases; if it is already
    // below the threshold, the optimum (≤ label_sum) cannot reach it.
    if (prune_threshold >= 0.0 && label_sum < prune_threshold - kTerminationMargin) {
      result.early_terminated = true;
      result.label_sum = label_sum;
      return result;
    }

    std::fill(in_s.begin(), in_s.end(), 0);
    std::fill(in_t.begin(), in_t.end(), 0);
    std::fill(parent_y.begin(), parent_y.end(), -1);
    in_s[root] = 1;
    for (size_t y = 0; y < n; ++y) {
      slack[y] = lx[root] + ly[y] - w(root, y);
      slack_x[y] = static_cast<int32_t>(root);
    }

    int32_t augment_y = -1;
    while (augment_y == -1) {
      // Find a tight, unexplored column.
      int32_t y0 = -1;
      for (size_t y = 0; y < n; ++y) {
        if (!in_t[y] && slack[y] <= kSlackEps) {
          y0 = static_cast<int32_t>(y);
          break;
        }
      }
      if (y0 == -1) {
        // Improve labels by δ = min slack over unexplored columns.
        double delta = kInf;
        for (size_t y = 0; y < n; ++y) {
          if (!in_t[y]) delta = std::min(delta, slack[y]);
        }
        assert(delta < kInf);
        size_t s_count = 0, t_count = 0;
        for (size_t v = 0; v < n; ++v) {
          if (in_s[v]) {
            lx[v] -= delta;
            ++s_count;
          }
          if (in_t[v]) {
            ly[v] += delta;
            ++t_count;
          }
        }
        // |S| = |T| + 1 in the alternating tree, so the sum decreases.
        label_sum -= delta * static_cast<double>(s_count - t_count);
        for (size_t y = 0; y < n; ++y) {
          if (!in_t[y]) slack[y] -= delta;
        }
        if (prune_threshold >= 0.0 &&
            label_sum < prune_threshold - kTerminationMargin) {
          result.early_terminated = true;
          result.label_sum = label_sum;
          return result;
        }
        continue;
      }

      in_t[y0] = 1;
      parent_y[y0] = slack_x[y0];
      if (match_y[y0] == -1) {
        augment_y = y0;
      } else {
        // Extend the tree through y0's current partner.
        const int32_t x_next = match_y[y0];
        in_s[x_next] = 1;
        for (size_t y = 0; y < n; ++y) {
          if (in_t[y]) continue;
          const double new_slack = lx[x_next] + ly[y] - w(x_next, y);
          if (new_slack < slack[y]) {
            slack[y] = new_slack;
            slack_x[y] = x_next;
          }
        }
      }
    }

    // Augment along the alternating path ending at augment_y.
    int32_t y = augment_y;
    while (y != -1) {
      const int32_t x = parent_y[y];
      const int32_t prev_y = match_x[x];
      match_x[x] = y;
      match_y[y] = x;
      y = prev_y;
    }
  }

  // Harvest: optional matching drops pad assignments and zero-weight edges.
  double score = 0.0;
  for (size_t x = 0; x < rows; ++x) {
    const int32_t y = match_x[x];
    if (y >= 0 && static_cast<size_t>(y) < cols) {
      const double wxy = weights.At(x, static_cast<size_t>(y));
      if (wxy > 0.0) {
        score += wxy;
        result.match_of_row[x] = y;
      }
    }
  }
  result.score = score;
  result.label_sum = label_sum;
  return result;
}

}  // namespace koios::matching
