#include "koios/embedding/embedding_store.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace koios::embedding {

namespace {

// Vectorized dot product over two normalized float rows, accumulating in
// double. Accumulating in double keeps the batched path within ~1e-15 of
// the scalar Cosine() reference, which the exactness machinery
// (kScoreEps = 1e-9 comparisons) relies on — but GCC/Clang refuse to
// auto-vectorize FP reductions without -ffast-math (vectorization reorders
// the sum), so the wide accumulators are spelled out explicitly with
// vector extensions: two 8-lane double accumulators (FMA-friendly — the
// independent chains hide the add latency), summed in a fixed lane order
// so results are deterministic. Portable compilers get the 4-wide unrolled
// scalar fallback with identical-shape accumulation.
#if defined(__GNUC__) || defined(__clang__)

typedef float Vf8 __attribute__((vector_size(32), aligned(4)));
typedef double Vd8 __attribute__((vector_size(64), aligned(8)));

inline double DotKernel(const float* __restrict a, const float* __restrict b,
                        size_t n) {
  Vd8 acc0 = {}, acc1 = {};
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    Vf8 fa0, fb0, fa1, fb1;
    __builtin_memcpy(&fa0, a + i, sizeof(Vf8));
    __builtin_memcpy(&fb0, b + i, sizeof(Vf8));
    __builtin_memcpy(&fa1, a + i + 8, sizeof(Vf8));
    __builtin_memcpy(&fb1, b + i + 8, sizeof(Vf8));
    acc0 += __builtin_convertvector(fa0, Vd8) *
            __builtin_convertvector(fb0, Vd8);
    acc1 += __builtin_convertvector(fa1, Vd8) *
            __builtin_convertvector(fb1, Vd8);
  }
  const Vd8 acc = acc0 + acc1;
  double dot = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
               ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  for (; i < n; ++i) dot += static_cast<double>(a[i]) * b[i];
  return dot;
}

// Multi-query block kernel: NQ (<= 4) dot products of pre-converted double
// query rows against one float target row. The target chunk is loaded and
// converted ONCE per NQ queries — conversion and load traffic per
// (query, target) pair drops ~NQ×, which is where the multi-query batched
// path pulls ahead of repeated single-query scans. The accumulation shape
// (16-element chunks, two 8-lane accumulators, fixed lane-sum order,
// scalar tail) matches DotKernel exactly, so both paths produce
// bit-identical scores (float→double conversion is exact).
template <size_t NQ>
inline void DotKernelMulti(const float* __restrict t,
                           const double* const* __restrict q, size_t n,
                           double* __restrict out) {
  static_assert(NQ >= 1 && NQ <= 4);
  Vd8 acc0[NQ] = {}, acc1[NQ] = {};
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    Vf8 f0, f1;
    __builtin_memcpy(&f0, t + i, sizeof(Vf8));
    __builtin_memcpy(&f1, t + i + 8, sizeof(Vf8));
    const Vd8 t0 = __builtin_convertvector(f0, Vd8);
    const Vd8 t1 = __builtin_convertvector(f1, Vd8);
    for (size_t j = 0; j < NQ; ++j) {
      Vd8 qa, qb;
      __builtin_memcpy(&qa, q[j] + i, sizeof(Vd8));
      __builtin_memcpy(&qb, q[j] + i + 8, sizeof(Vd8));
      acc0[j] += t0 * qa;
      acc1[j] += t1 * qb;
    }
  }
  for (size_t j = 0; j < NQ; ++j) {
    const Vd8 acc = acc0[j] + acc1[j];
    double dot = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                 ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (size_t k = i; k < n; ++k) dot += static_cast<double>(t[k]) * q[j][k];
    out[j] = dot;
  }
}

#else  // portable fallback: 4-wide unrolled, same double accumulation

inline double DotKernel(const float* a, const float* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<double>(a[i]) * b[i];
    acc1 += static_cast<double>(a[i + 1]) * b[i + 1];
    acc2 += static_cast<double>(a[i + 2]) * b[i + 2];
    acc3 += static_cast<double>(a[i + 3]) * b[i + 3];
  }
  for (; i < n; ++i) acc0 += static_cast<double>(a[i]) * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

// Fallback multi-query kernel: same 4-wide accumulation shape as the
// fallback DotKernel per query (double(q) == original float exactly).
template <size_t NQ>
inline void DotKernelMulti(const float* t, const double* const* q, size_t n,
                           double* out) {
  static_assert(NQ >= 1 && NQ <= 4);
  for (size_t j = 0; j < NQ; ++j) {
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      acc0 += static_cast<double>(t[i]) * q[j][i];
      acc1 += static_cast<double>(t[i + 1]) * q[j][i + 1];
      acc2 += static_cast<double>(t[i + 2]) * q[j][i + 2];
      acc3 += static_cast<double>(t[i + 3]) * q[j][i + 3];
    }
    for (; i < n; ++i) acc0 += static_cast<double>(t[i]) * q[j][i];
    out[j] = (acc0 + acc1) + (acc2 + acc3);
  }
}

#endif

// Pull a row's cache lines toward the core before the kernel needs them.
// Batch callers (LSH probes especially) visit rows in token order, which
// is scattered in the matrix — without prefetch every row transition
// stalls on L3/DRAM latency that the dot product cannot hide.
inline void PrefetchRow(const float* row, size_t dim) {
#if defined(__GNUC__) || defined(__clang__)
  for (size_t off = 0; off < dim; off += 16) {  // 16 floats per cache line
    __builtin_prefetch(row + off, /*rw=*/0, /*locality=*/1);
  }
#else
  (void)row;
  (void)dim;
#endif
}

}  // namespace

util::StatusOr<EmbeddingStore> EmbeddingStore::FromBorrowed(
    size_t dim, size_t rows, std::span<const uint32_t> row_of,
    std::span<const float> data) {
  if (dim == 0) {
    return util::Status::InvalidArgument("embedding dimension is zero");
  }
  if (data.size() != rows * dim) {
    return util::Status::InvalidArgument(
        "embedding data arena does not match rows x dim");
  }
  // The token→row table must reference every row exactly once: a corrupt
  // (but checksum-valid) table would otherwise alias rows or read past
  // the matrix.
  std::vector<bool> seen(rows, false);
  size_t covered = 0;
  for (const uint32_t r : row_of) {
    if (r == kNoRow) continue;
    if (r >= rows || seen[r]) {
      return util::Status::InvalidArgument(
          "embedding row table is not a bijection onto the rows");
    }
    seen[r] = true;
    ++covered;
  }
  if (covered != rows) {
    return util::Status::InvalidArgument(
        "embedding row table leaves rows unreferenced");
  }
  EmbeddingStore store(dim);
  store.borrowed_ = true;
  store.rows_ = rows;
  store.b_row_of_ = row_of;
  store.b_data_ = data;
  return store;
}

void EmbeddingStore::Add(TokenId token, std::span<const float> vector) {
  double norm_sq = 0.0;
  for (float v : vector) norm_sq += static_cast<double>(v) * v;
  const double inv = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;
  AddImpl(token, vector, inv);
}

void EmbeddingStore::AddNormalized(TokenId token,
                                   std::span<const float> vector) {
  // inv == 1.0 exactly: fl(v * 1.0) == v, so the stored bytes are kept.
  AddImpl(token, vector, 1.0);
}

void EmbeddingStore::AddImpl(TokenId token, std::span<const float> vector,
                             double inv) {
  assert(!borrowed_ && "Add on a borrowed (immutable) embedding store");
  assert(vector.size() == dim_);
  if (token >= row_of_.size()) row_of_.resize(token + 1, kNoRow);
  assert(row_of_[token] == kNoRow && "token added twice");

  row_of_[token] = static_cast<uint32_t>(rows_);
  // Grow geometrically: an exact-size reserve on every insertion forces a
  // reallocation + full copy per row, i.e. quadratic total work.
  if (data_.size() + dim_ > data_.capacity()) {
    data_.reserve(std::max(data_.size() + dim_, data_.capacity() * 2));
  }
  for (float v : vector) data_.push_back(static_cast<float>(v * inv));
  ++rows_;
}

std::span<const float> EmbeddingStore::VectorOf(TokenId token) const {
  assert(Has(token));
  return {DataPtr() + static_cast<size_t>(RowOfPtr()[token]) * dim_, dim_};
}

double EmbeddingStore::Dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  return DotKernel(a.data(), b.data(), a.size());
}

double EmbeddingStore::Cosine(TokenId a, TokenId b) const {
  if (!Has(a) || !Has(b)) return 0.0;
  const float* data = DataPtr();
  const uint32_t* row_of = RowOfPtr();
  const float* pa = data + static_cast<size_t>(row_of[a]) * dim_;
  const float* pb = data + static_cast<size_t>(row_of[b]) * dim_;
  double dot = 0.0;
  for (size_t i = 0; i < dim_; ++i) dot += static_cast<double>(pa[i]) * pb[i];
  return dot;
}

void EmbeddingStore::CosineBatch(TokenId q, std::span<const TokenId> targets,
                                 std::span<double> out) const {
  assert(out.size() == targets.size());
  if (!Has(q)) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const float* __restrict data = DataPtr();
  const float* __restrict pq =
      data + static_cast<size_t>(RowOfPtr()[q]) * dim_;
  const size_t n = targets.size();
  // Several rows of prefetch distance: one dot product (~a few hundred ns
  // at embedding dims) is not always enough to cover an L3 miss, so rows
  // further ahead are requested too.
  constexpr size_t kPrefetchAhead = 4;
  for (size_t i = 0; i < std::min<size_t>(kPrefetchAhead, n); ++i) {
    const uint32_t ahead = RowIndexOf(targets[i]);
    if (ahead != kNoRow) {
      PrefetchRow(data + static_cast<size_t>(ahead) * dim_, dim_);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      const uint32_t ahead = RowIndexOf(targets[i + kPrefetchAhead]);
      if (ahead != kNoRow) {
        PrefetchRow(data + static_cast<size_t>(ahead) * dim_, dim_);
      }
    }
    const uint32_t row = RowIndexOf(targets[i]);
    out[i] = row == kNoRow
                 ? 0.0
                 : DotKernel(pq, data + static_cast<size_t>(row) * dim_, dim_);
  }
}

void EmbeddingStore::CosineMultiBatch(std::span<const TokenId> queries,
                                      std::span<const TokenId> targets,
                                      std::span<double> out) const {
  const size_t nq = queries.size();
  const size_t nt = targets.size();
  assert(out.size() == nq * nt);
  // Pre-convert covered query rows to double once; OOV query rows are all
  // zeros. thread_local scratch: prewarm may run blocks on pool workers.
  thread_local std::vector<double> qbuf;
  qbuf.resize(nq * dim_);
  struct QRef {
    const double* row;
    double* out_row;
  };
  std::vector<QRef> covered_q;
  covered_q.reserve(nq);
  const float* __restrict data = DataPtr();
  for (size_t qi = 0; qi < nq; ++qi) {
    const uint32_t row = RowIndexOf(queries[qi]);
    double* dst = out.data() + qi * nt;
    if (row == kNoRow) {
      std::fill(dst, dst + nt, 0.0);
      continue;
    }
    const float* src = data + static_cast<size_t>(row) * dim_;
    double* q = qbuf.data() + covered_q.size() * dim_;
    for (size_t d = 0; d < dim_; ++d) q[d] = static_cast<double>(src[d]);
    covered_q.push_back({q, dst});
  }
  if (covered_q.empty()) return;

  // One pass over the target rows; every row feeds all query blocks.
  for (size_t ti = 0; ti < nt; ++ti) {
    const uint32_t row = RowIndexOf(targets[ti]);
    if (row == kNoRow) {
      for (const QRef& qr : covered_q) qr.out_row[ti] = 0.0;
      continue;
    }
    const float* t = data + static_cast<size_t>(row) * dim_;
    size_t b = 0;
    double dots[4];
    for (; b + 4 <= covered_q.size(); b += 4) {
      const double* qrows[4] = {covered_q[b].row, covered_q[b + 1].row,
                                covered_q[b + 2].row, covered_q[b + 3].row};
      DotKernelMulti<4>(t, qrows, dim_, dots);
      for (size_t j = 0; j < 4; ++j) covered_q[b + j].out_row[ti] = dots[j];
    }
    const size_t rem = covered_q.size() - b;
    if (rem != 0) {
      const double* qrows[4] = {nullptr, nullptr, nullptr, nullptr};
      for (size_t j = 0; j < rem; ++j) qrows[j] = covered_q[b + j].row;
      switch (rem) {
        case 1:
          DotKernelMulti<1>(t, qrows, dim_, dots);
          break;
        case 2:
          DotKernelMulti<2>(t, qrows, dim_, dots);
          break;
        default:
          DotKernelMulti<3>(t, qrows, dim_, dots);
          break;
      }
      for (size_t j = 0; j < rem; ++j) covered_q[b + j].out_row[ti] = dots[j];
    }
  }
}

template <typename Out>
void EmbeddingStore::CosineAllRowsImpl(TokenId q, std::span<Out> out) const {
  assert(out.size() == rows_);
  if (!Has(q)) {
    std::fill(out.begin(), out.end(), Out{0});
    return;
  }
  const float* __restrict rows = DataPtr();
  const float* __restrict pq =
      rows + static_cast<size_t>(RowOfPtr()[q]) * dim_;
  for (size_t r = 0; r < rows_; ++r) {
    out[r] = static_cast<Out>(DotKernel(pq, rows + r * dim_, dim_));
  }
}

void EmbeddingStore::CosineAllRows(TokenId q, std::span<double> out) const {
  CosineAllRowsImpl(q, out);
}

void EmbeddingStore::CosineAllRows(TokenId q, std::span<float> out) const {
  CosineAllRowsImpl(q, out);
}

}  // namespace koios::embedding
