#include "koios/matching/sparse_matcher.h"

#include <algorithm>
#include <limits>

namespace koios::matching {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// mate_left_ of a node that took its private unmatched option.
constexpr int32_t kUnmatched = -2;

// std::*_heap build max-heaps; ordering by "later" makes a min-heap on
// (distance, node).
template <class E>
bool Later(const E& a, const E& b) {
  if (a.dist != b.dist) return a.dist > b.dist;
  return a.right > b.right;
}

}  // namespace

void SparseMatcher::LoadEdges(const WeightMatrix& weights, bool transposed) {
  const size_t left = transposed ? weights.cols() : weights.rows();
  const size_t right = transposed ? weights.rows() : weights.cols();
  first_.resize(left + 1);
  edges_.clear();
  row_max_.resize(left);
  rest_max_.resize(left);
  for (size_t l = 0; l < left; ++l) {
    first_[l] = static_cast<uint32_t>(edges_.size());
    double max_w = 0.0;
    for (size_t r = 0; r < right; ++r) {
      const double w = transposed ? weights.At(r, l) : weights.At(l, r);
      if (w > 0.0) {
        edges_.push_back({static_cast<uint32_t>(r), w});
        max_w = std::max(max_w, w);
      }
    }
    row_max_[l] = max_w;
  }
  first_[left] = static_cast<uint32_t>(edges_.size());
  double rest = 0.0;
  for (size_t l = left; l-- > 0;) {
    rest_max_[l] = rest;
    rest += row_max_[l];
  }
}

MatchResult SparseMatcher::Solve(const WeightMatrix& weights,
                                 double prune_threshold) {
  MatchResult result;
  result.match_of_row.assign(weights.rows(), -1);
  if (weights.rows() == 0 || weights.cols() == 0) return result;
  ++solve_count_;

  const bool transposed = weights.rows() > weights.cols();
  LoadEdges(weights, transposed);
  const size_t left = row_max_.size();
  const size_t right = transposed ? weights.rows() : weights.cols();
  const bool armed = prune_threshold >= 0.0;
  const double floor = prune_threshold - kTerminationMargin;
  auto terminate = [&result](double bound) {
    result.early_terminated = true;
    result.label_sum = bound;
    return result;
  };

  x_.assign(left, 0.0);
  y_.assign(right, 0.0);
  mate_left_.assign(left, -1);
  mate_right_.assign(right, -1);
  dist_.assign(right, kInf);
  pred_.resize(right);
  settled_.assign(right, 0);

  double matched = 0.0;  // w(M), optimal for the nodes before `root`
  for (uint32_t root = 0; root < left; ++root) {
    const Edge* root_begin = edges_.data() + first_[root];
    const Edge* root_end = edges_.data() + first_[root + 1];
    // The root's starting potential: its best reduced gain (<= row max).
    double x_root = 0.0;
    for (const Edge* e = root_begin; e != root_end; ++e) {
      x_root = std::max(x_root, e->w - y_[e->right]);
    }
    x_[root] = x_root;

    touched_.clear();
    heap_.clear();
    tree_.clear();
    tree_dist_.clear();
    // Shortest path ending in some tree node's unmatched option.
    double best_unmatched = kInf;
    uint32_t unmatched_left = root;
    // Reached left node l at distance dl: label its unmatched option and
    // its unsettled right neighbours. Rounding can leave a tight edge's
    // reduced cost a hair below zero; clamping keeps distances monotone.
    auto reach = [&](uint32_t l, double dl) {
      tree_.push_back(l);
      tree_dist_.push_back(dl);
      const double xl = x_[l];
      const double via_unmatched = dl + std::max(0.0, xl);
      if (via_unmatched < best_unmatched) {
        best_unmatched = via_unmatched;
        unmatched_left = l;
      }
      const Edge* end = edges_.data() + first_[l + 1];
      for (const Edge* e = edges_.data() + first_[l]; e != end; ++e) {
        const uint32_t r = e->right;
        if (settled_[r]) continue;
        const double nd = dl + std::max(0.0, xl + y_[r] - e->w);
        if (nd < dist_[r]) {
          if (dist_[r] == kInf) touched_.push_back(r);
          dist_[r] = nd;
          pred_[r] = l;
          heap_.push_back({nd, r});
          std::push_heap(heap_.begin(), heap_.end(), Later<HeapEntry>);
        }
      }
    };
    reach(root, 0.0);

    int32_t end_right = -1;  // free right node ending the path; -1: unmatched
    double path = 0.0;       // D, the shortest augmenting path's length
    auto pop = [this] {
      std::pop_heap(heap_.begin(), heap_.end(), Later<HeapEntry>);
      heap_.pop_back();
    };
    for (;;) {
      // Drop entries superseded by a shorter label or already settled.
      while (!heap_.empty()) {
        const HeapEntry& top = heap_.front();
        if (!settled_[top.right] && top.dist <= dist_[top.right]) break;
        pop();
      }
      const double next_right = heap_.empty() ? kInf : heap_.front().dist;
      const double d = std::min(next_right, best_unmatched);
      const double bound = matched + x_root - d + rest_max_[root];
      if (armed && bound < floor) return terminate(bound);
      if (best_unmatched <= next_right) {
        path = best_unmatched;
        break;
      }
      const uint32_t r = heap_.front().right;
      pop();
      settled_[r] = 1;
      if (mate_right_[r] < 0) {
        end_right = static_cast<int32_t>(r);
        path = next_right;
        break;
      }
      reach(static_cast<uint32_t>(mate_right_[r]), next_right);
    }

    // Dual update: keeps every reduced cost >= 0 and makes the path tight.
    for (const uint32_t r : touched_) {
      if (settled_[r]) y_[r] += path - dist_[r];
      dist_[r] = kInf;
      settled_[r] = 0;
    }
    for (size_t k = 0; k < tree_.size(); ++k) {
      x_[tree_[k]] -= path - tree_dist_[k];
    }

    // Augment back to the root. A path ending in an unmatched option first
    // frees that node's right partner.
    int32_t r = end_right;
    if (r < 0) {
      r = mate_left_[unmatched_left];  // -1 when the root stays unmatched
      mate_left_[unmatched_left] = kUnmatched;
    }
    while (r >= 0) {
      const uint32_t l = pred_[r];
      const int32_t previous = mate_left_[l];
      mate_left_[l] = r;
      mate_right_[r] = static_cast<int32_t>(l);
      r = l == root ? -1 : previous;
    }
    matched += x_root - path;
  }

  // Harvest in ascending row order (the dense solver's summation order).
  const std::vector<int32_t>& col_of_row =
      transposed ? mate_right_ : mate_left_;
  double score = 0.0;
  for (size_t row = 0; row < weights.rows(); ++row) {
    const int32_t col = col_of_row[row];
    if (col < 0) continue;
    score += weights.At(row, static_cast<size_t>(col));
    result.match_of_row[row] = col;
  }
  // The last settle's bound already equals the optimum in exact
  // arithmetic; checking the summed score makes the decision agree with
  // the returned score bit for bit.
  if (armed && score < floor) {
    result.match_of_row.assign(weights.rows(), -1);
    return terminate(score);
  }
  double dual = 0.0;
  for (const double x : x_) dual += x;
  for (const double y : y_) dual += y;
  result.score = score;
  result.label_sum = dual;
  return result;
}

}  // namespace koios::matching
