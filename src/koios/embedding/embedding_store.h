// Dense embedding storage. Stands in for the pre-trained FastText vectors
// the paper uses (§VIII): Koios only ever consumes embeddings through
// cosine similarity, so any L2-normalized vector table with a realistic
// similarity distribution exercises the same code paths.
//
// One storage tier: float rows, read with double accumulation. Koios is
// exact only while the token stream carries exact neighbours under the
// similarity the matching scores with (§VIII-E), so no approximate tier
// sits behind this interface.
//
// Two storage MODES behind one interface (the borrowed/owned contract the
// v4 mmap repository format relies on, see docs/ARCHITECTURE.md):
//  * owned (default) — Add() builds heap arrays.
//  * borrowed — FromBorrowed() wraps external arenas (typically inside an
//    io::MmapRepositoryView mapping) without copying a row: the float
//    matrix and the token→row table. Borrowed stores are immutable through
//    Add() (asserted). The arenas must outlive the store — serve::Snapshot
//    pins the mapping.
#ifndef KOIOS_EMBEDDING_EMBEDDING_STORE_H_
#define KOIOS_EMBEDDING_EMBEDDING_STORE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "koios/util/status.h"
#include "koios/util/types.h"

namespace koios::embedding {

/// Row-major matrix of token embeddings, indexed by TokenId. Tokens without
/// a vector (out-of-vocabulary, "OOV") have no row; cosine similarity
/// against them is 0 except for the identical-token case, which the token
/// stream handles separately (paper §V: "we deal with out-of-vocabulary
/// elements" by always emitting the query token's self-match).
class EmbeddingStore {
 public:
  explicit EmbeddingStore(size_t dim) : dim_(dim) {}

  /// Wraps external arenas without copying. `row_of` maps TokenId → row
  /// index (kNoRow for OOV) and must reference each row in [0, rows)
  /// exactly once; `data` is the rows×dim float matrix (rows already
  /// L2-normalized by the writer). Both spans must outlive the store (and
  /// any copy of it).
  static util::StatusOr<EmbeddingStore> FromBorrowed(
      size_t dim, size_t rows, std::span<const uint32_t> row_of,
      std::span<const float> data);

  /// Registers `vector` (size dim) for `token`; the vector is L2-normalized
  /// on insertion. Tokens must be added at most once. Owned mode only.
  void Add(TokenId token, std::span<const float> vector);

  /// Add() without the normalization: the caller vouches that `vector` is
  /// already L2-normalized. The loaders use this so a stored row survives
  /// a round trip bit-for-bit (renormalizing an already-normalized row
  /// can flip last-bit mantissas, which would break the bit-identity the
  /// v3/v4 load paths guarantee each other).
  void AddNormalized(TokenId token, std::span<const float> vector);

  bool Has(TokenId token) const {
    return token < RowOfSize() && RowOfPtr()[token] != kNoRow;
  }

  /// Normalized vector of `token`; asserts coverage.
  std::span<const float> VectorOf(TokenId token) const;

  /// Does nothing. Kept only because benchmark/koios_bench.cc still calls
  /// it after building its model; drop it together with that call.
  void Finalize() {}

  /// True when the float rows are a borrowed arena (immutable mode).
  bool borrowed() const { return borrowed_; }

  /// Cosine similarity in [-1, 1] (dot product of normalized rows).
  /// Returns 0 if either token is OOV.
  double Cosine(TokenId a, TokenId b) const;

  /// Batched cosine: out[i] = Cosine(q, targets[i]) for every i. One row
  /// lookup for `q`, then a dense unrolled dot-product kernel per target —
  /// no per-pair dispatch. `out.size()` must equal `targets.size()`.
  /// If `q` is OOV the output is all zeros; OOV targets score 0.
  ///
  /// Accumulates in double like Cosine() and agrees with it to ~1e-15,
  /// which the exactness machinery (kScoreEps = 1e-9 comparisons) relies
  /// on.
  void CosineBatch(TokenId q, std::span<const TokenId> targets,
                   std::span<double> out) const;

  /// Multi-query batched cosine: out[qi * targets.size() + ti] =
  /// Cosine(queries[qi], targets[ti]), row-major by query (`out.size()`
  /// must be `queries.size() * targets.size()`). Each target row is loaded
  /// and converted once per 4-query block instead of once per query, so
  /// memory and conversion traffic drop ~4× versus repeated CosineBatch
  /// calls; scores are bit-identical to CosineBatch / the same-shape
  /// accumulation of Cosine().
  void CosineMultiBatch(std::span<const TokenId> queries,
                        std::span<const TokenId> targets,
                        std::span<double> out) const;

  /// Dense matrix-vector kernel: out[r] = dot(row(q), row(r)) for every
  /// stored row r in row order (`out.size()` must equal `covered()`).
  /// Zeros the output if `q` is OOV. This is the throughput ceiling the
  /// batched paths aim for: one contiguous scan of the whole matrix.
  void CosineAllRows(TokenId q, std::span<double> out) const;
  void CosineAllRows(TokenId q, std::span<float> out) const;

  /// Row index of `token` in the dense matrix, or kNoRow if OOV. Lets
  /// batch callers translate CosineAllRows output back to tokens.
  uint32_t RowIndexOf(TokenId token) const {
    return token < RowOfSize() ? RowOfPtr()[token] : kNoRow;
  }

  static constexpr uint32_t kNoRow = 0xFFFFFFFFu;

  size_t dim() const { return dim_; }
  /// Number of covered (non-OOV) tokens.
  size_t covered() const { return rows_; }

  // ---- raw storage views (repository writers, regression tests) --------
  /// The rows×dim normalized float matrix in row order.
  std::span<const float> RowData() const { return {DataPtr(), rows_ * dim_}; }
  /// The TokenId → row-index table (size = highest added token + 1 in
  /// owned mode; the file's token bound in borrowed mode).
  std::span<const uint32_t> RowTable() const {
    return {RowOfPtr(), RowOfSize()};
  }
  /// Heap footprint (owned arrays only — borrowed arenas are file-backed
  /// pages accounted by the mapping that owns them).
  size_t MemoryUsageBytes() const {
    return data_.capacity() * sizeof(float) +
           row_of_.capacity() * sizeof(uint32_t);
  }

 private:
  template <typename Out>
  void CosineAllRowsImpl(TokenId q, std::span<Out> out) const;
  void AddImpl(TokenId token, std::span<const float> vector, double inv);

  // Mode-dispatching storage accessors: every read path goes through
  // these, so the kernels are identical over owned heap arrays and
  // borrowed mmap arenas.
  const float* DataPtr() const {
    return borrowed_ ? b_data_.data() : data_.data();
  }
  const uint32_t* RowOfPtr() const {
    return borrowed_ ? b_row_of_.data() : row_of_.data();
  }
  size_t RowOfSize() const {
    return borrowed_ ? b_row_of_.size() : row_of_.size();
  }

  size_t dim_;
  size_t rows_ = 0;
  // Owned mode.
  std::vector<float> data_;       // rows_ x dim_
  std::vector<uint32_t> row_of_;  // TokenId -> row index or kNoRow
  // Borrowed mode: views into external arenas.
  std::span<const float> b_data_;
  std::span<const uint32_t> b_row_of_;
  bool borrowed_ = false;
};

}  // namespace koios::embedding

#endif  // KOIOS_EMBEDDING_EMBEDDING_STORE_H_
