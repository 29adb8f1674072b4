// Materialized token stream + similarity cache.
//
// Refinement consumes the stream Ie in non-increasing similarity order. We
// materialize the consumed prefix once per query: (1) partitioned search
// can replay the same global order in every partition, and (2) the
// α-surviving edges double as the similarity cache the paper reuses when
// initializing the matching matrices during post-processing (§VIII-A3).
//
// Materialization is BOUNDED by the θlb feedback loop (§IV–VI): the
// producer polls a stop-similarity source (derived from the partitions'
// shared GlobalThreshold) before every tuple and stops the stream once no
// unseen set can reach the top-k — tuples below τ are never ordered,
// scored or materialized. The cache then records the stop similarity so
// consumers can (a) keep it as upper-bound slack and (b) have BuildMatrix
// complete the missing below-τ edges on demand through the similarity's
// batch kernels, preserving exactness end to end. Without a stop source
// the stream drains to α exactly as the seed did.
//
// Production runs in one of three modes:
//  * synchronous  — the one-arg constructor drains the stream inline.
//  * deferred     — the searcher constructs with the Deferred tag, submits
//                   per-partition refinement tasks, and runs Materialize()
//                   on its own thread; consumers pull through NextTuples(),
//                   blocking only when they outrun the producer.
//  * inline       — single-threaded searches construct with the
//                   InlineProducer tag; the consumer itself drives
//                   production from inside NextTuples() (pipelined, no
//                   second thread), and FinishProduction() seals the cache
//                   before post-processing.
//
// PRODUCER PACING (deferred + feedback only): a free-running producer
// races the consumers — it can drain the stream to α before a slow
// consumer has processed enough tuples to declare its stop similarity,
// silently forfeiting the feedback loop's whole savings (the serial modes
// never had this race: production is interleaved with consumption). The
// deferred constructor therefore takes a producer lead L: the producer
// stays within L tuples of the slowest REGISTERED consumer's hand-off
// position (consumers register through ConsumerGuard and advance as they
// pull) and within L of the start while no consumer has registered yet.
// Consumers that register late (partition tasks queued behind a full
// pool) do not hold production — they replay the already-cached prefix at
// full speed and only pace the producer once they reach the frontier,
// which is what makes pacing deadlock-free when partitions outnumber pool
// workers. Pacing never changes WHAT is produced (order and stop
// conditions are untouched), only how far production runs ahead, so
// results are unchanged; the pace wait polls the query deadline.
// Producer-side publishing is batched; the consumer fast path after
// completion is lock-free. Shutdown is poison-safe: if the producer dies
// (exception) or the searcher unwinds, the cache is sealed with a slack of
// 1.0 so any consumer that drains it still computes sound (if useless)
// bounds instead of hanging.
#ifndef KOIOS_CORE_EDGE_CACHE_H_
#define KOIOS_CORE_EDGE_CACHE_H_

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "koios/matching/hungarian.h"
#include "koios/sim/similarity.h"
#include "koios/sim/token_stream.h"
#include "koios/util/types.h"

namespace koios::core {

class SearchContext;

/// One α-surviving edge incident to vocabulary token `t`: the query
/// position and the similarity.
struct CachedEdge {
  uint32_t query_pos = 0;
  double sim = 0.0;  // double: cached weights must match the oracle exactly
};

class EdgeCache {
 public:
  /// Current stop similarity for the producer (0 = no stop, drain to α).
  /// Values returned across calls must be non-decreasing; the searcher
  /// derives them from the monotone GlobalThreshold.
  using StopSimFn = std::function<Score()>;

  /// Drains `stream` synchronously in the constructor (order preserved in
  /// `tuples()`, per-token edge lists in `EdgesOf`).
  explicit EdgeCache(sim::TokenStream* stream);

  /// Deferred mode: records the stream but produces nothing until
  /// Materialize() runs (on the producer's thread). Until then, consumers
  /// may only call NextTuples(). `completer` (the index's
  /// SimilarityFunction) enables BuildMatrix to fill in edges the stream
  /// never produced; `stop_sim` (requires `completer`) enables bounded
  /// materialization — both nullable, yielding the seed drain-to-α cache.
  /// `ctx` (nullable) lets production honor a per-query deadline: the
  /// producer polls it per publish batch and throws SearchAborted, which
  /// poison-seals the cache so blocked consumers unwind instead of hang.
  /// `expected_consumers`/`producer_lead` enable producer pacing (see the
  /// class comment); pacing requires feedback (`stop_sim`), and either
  /// value at 0 disables it (the producer then free-runs as before).
  struct Deferred {};
  EdgeCache(sim::TokenStream* stream, Deferred,
            const sim::SimilarityFunction* completer = nullptr,
            StopSimFn stop_sim = nullptr, const SearchContext* ctx = nullptr,
            size_t expected_consumers = 0, size_t producer_lead = 0);

  /// Inline mode: no producer thread — the single consumer drives
  /// production on demand from NextTuples(). Call FinishProduction() once
  /// consumption is over (before any blocking accessor).
  struct InlineProducer {};
  EdgeCache(sim::TokenStream* stream, InlineProducer,
            const sim::SimilarityFunction* completer = nullptr,
            StopSimFn stop_sim = nullptr, const SearchContext* ctx = nullptr);

  /// Drains the stream (to α, or to the feedback stop similarity),
  /// publishing tuples incrementally to NextTuples() consumers. Call
  /// exactly once (the synchronous constructor calls it); single producer,
  /// typically the searcher's main thread. Not for inline mode.
  void Materialize();

  /// Seals an inline-mode cache at the stream's current position (stop
  /// state is taken from the stream). No-op in the other modes and when
  /// already sealed. Single-consumer context only.
  void FinishProduction();

  /// Copies up to `buf.size()` tuples starting at stream position `from`
  /// into `buf` and returns how many were copied; 0 means the stream is
  /// exhausted (or stopped) at `from`. Blocks while position `from` is not
  /// yet materialized (inline mode produces it on the spot instead). Each
  /// consumer owns its own cursor (`from`), so any number of consumers can
  /// replay the stream concurrently.
  size_t NextTuples(size_t from, std::span<sim::StreamTuple> buf);

  /// True once production has completed; tuples() is then immutable and
  /// can be iterated by reference, skipping NextTuples' copies.
  bool Materialized() const {
    return done_.load(std::memory_order_acquire);
  }

  /// True when the feedback loop is wired (a stop-similarity source was
  /// supplied). Refinement consumers use this to decide whether they may
  /// stop consuming early themselves.
  bool FeedbackEnabled() const { return stop_sim_fn_ != nullptr; }

  /// Chunk size a pulling consumer should request. Inline production
  /// happens inside the consumer's NextTuples call and overshoots it by up
  /// to one chunk — a fine grain keeps the θlb feedback tight (the
  /// producer's stop poll only sees lower bounds published from tuples the
  /// consumer already processed). Deferred consumers copy under a mutex,
  /// so they amortize with a coarse chunk instead.
  size_t PreferredConsumeChunk() const { return inline_mode_ ? 16 : 256; }

  /// RAII handle of one pacing consumer (see the class comment). The
  /// searcher opens one at the top of every partition task; Advance
  /// reports the consumer's hand-off position after each NextTuples pull;
  /// destruction (normal return OR unwind — a consumer that dies must not
  /// pace the producer forever) marks the slot finished. A no-op on caches
  /// without pacing, so callers construct it unconditionally.
  class ConsumerGuard {
   public:
    ConsumerGuard() = default;
    explicit ConsumerGuard(EdgeCache* cache) {
      if (cache != nullptr && cache->PacingEnabled()) {
        slot_ = cache->RegisterConsumer();
        if (slot_ != kUnpaced) cache_ = cache;
      }
    }
    ~ConsumerGuard() {
      if (cache_ != nullptr) cache_->FinishConsumer(slot_);
    }
    ConsumerGuard(const ConsumerGuard&) = delete;
    ConsumerGuard& operator=(const ConsumerGuard&) = delete;

    /// Tuples [0, consumed) were handed to this consumer.
    void Advance(size_t consumed) {
      if (cache_ != nullptr) cache_->AdvanceConsumer(slot_, consumed);
    }

   private:
    static constexpr size_t kUnpaced = std::numeric_limits<size_t>::max();
    EdgeCache* cache_ = nullptr;
    size_t slot_ = kUnpaced;
  };

  /// True when the deferred producer paces itself against consumers.
  bool PacingEnabled() const { return producer_lead_ > 0; }

  /// Marks the stream complete as-is and wakes every blocked consumer.
  /// Idempotent. Failure-path only: when the producer can no longer run
  /// (an exception thrown before or outside Materialize), consumers must
  /// drain what was published and finish instead of waiting forever. The
  /// cache is poisoned with slack 1.0 (every unseen pair may be arbitrarily
  /// similar), keeping any surviving consumer's bounds sound.
  void Abort();

  // --- post-completion accessors ------------------------------------------
  // Valid once Materialized(). The blocking ones wait for a deferred
  // producer; an inline cache never blocks — it must be SEALED
  // (FinishProduction, or production hitting the stream's end) before
  // tuples()/ExhaustedToAlpha()/stop_sim() are meaningful, which the
  // asserts below enforce (an unsealed inline cache would hand out a
  // reference into a still-growing vector and default stop state).

  /// Number of tuples produced (stats: stream_tuples_produced).
  size_t produced() const { return published_.load(std::memory_order_acquire); }

  /// True if the stream drained to α; false if the feedback loop (or an
  /// abort) stopped it early, in which case stop_sim() is the slack.
  bool ExhaustedToAlpha() const {
    assert(done_.load(std::memory_order_acquire));
    return exhausted_;
  }

  /// Sound upper bound on the similarity of every pair the stream did not
  /// produce: 0 when drained to α, the stop similarity otherwise.
  Score stop_sim() const {
    assert(done_.load(std::memory_order_acquire));
    return stop_sim_;
  }

  /// The produced stream prefix in emission order. Blocks until production
  /// is complete (immediate for synchronously constructed caches; asserts
  /// sealed for inline ones — the vector may still grow before that).
  const std::vector<sim::StreamTuple>& tuples() const;

  /// Produced α-surviving edges of token `t` (empty if none). Blocks until
  /// a deferred producer finishes. May be used on an unsealed inline cache
  /// (single-threaded by construction): BuildMatrix's completion overlay
  /// reads the current prefix, which is exact because completion computes
  /// every missing pair anyway. The returned span is invalidated by any
  /// further inline production.
  std::span<const CachedEdge> EdgesOf(TokenId t) const;

  /// Builds the bipartite weight matrix of the query vs the tokens of a
  /// candidate set, restricted to nodes with at least one α-edge. Returns
  /// the number of query rows/set columns used via the out vectors (row r
  /// corresponds to query position query_rows[r], column c to
  /// candidate_tokens[set_cols[c]]). When the stream stopped early, the
  /// below-stop edges missing from the cache are completed with ONE
  /// SimilarityBatchMulti kernel call (cached edges stay authoritative), so
  /// exact matching always sees the full simα matrix of the paper.
  matching::WeightMatrix BuildMatrix(std::span<const TokenId> candidate_tokens,
                                     std::vector<uint32_t>* query_rows,
                                     std::vector<uint32_t>* set_cols) const;

  /// BuildMatrix into a caller-owned matrix (capacity reuse across every
  /// exact matching a thread runs; see core::ExactMatch).
  void BuildMatrixInto(std::span<const TokenId> candidate_tokens,
                       std::vector<uint32_t>* query_rows,
                       std::vector<uint32_t>* set_cols,
                       matching::WeightMatrix* m) const;

  size_t MemoryUsageBytes() const;

 private:
  /// A consumer slot holding this position is finished (or was never
  /// handed out) and must not pace the producer.
  static constexpr size_t kConsumerDone = std::numeric_limits<size_t>::max();

  void WaitDone() const;
  /// Produces and publishes tuples until `until` tuples exist or the
  /// stream ends; inline mode only (runs on the consumer's thread).
  void ProduceInline(size_t until);
  /// Records the stream's stop state and publishes done_ (idempotent).
  void Seal(bool exhausted, Score stop_sim);

  // --- producer pacing (ConsumerGuard's backend) --------------------------
  size_t RegisterConsumer();
  void AdvanceConsumer(size_t slot, size_t consumed);
  void FinishConsumer(size_t slot);
  /// True when the producer is within its lead of the slowest registered
  /// consumer (callers hold mutex_ so tuples_.size() is stable).
  bool ProducerMayRun() const;
  /// Blocks the producer until ProducerMayRun(), polling the deadline.
  void PaceProducer();

  sim::TokenStream* stream_;  // null once production completed
  const sim::SimilarityFunction* completer_ = nullptr;
  const SearchContext* ctx_ = nullptr;  // deadline source (nullable)
  StopSimFn stop_sim_fn_;
  bool inline_mode_ = false;
  std::vector<TokenId> query_;  // the stream's query (matrix completion)
  Score alpha_ = 0.0;
  std::vector<sim::StreamTuple> tuples_;
  std::unordered_map<TokenId, std::vector<CachedEdge>> edges_;
  bool exhausted_ = true;   // valid once done_
  Score stop_sim_ = 0.0;    // valid once done_

  // Incremental publication: the producer appends under mutex_ and
  // publishes the new size with release semantics; consumers that observe
  // done_ (acquire) read tuples_ without locking — the vector is stable by
  // then. edges_ is producer-private until done_.
  mutable std::mutex mutex_;
  mutable std::condition_variable grown_;
  std::atomic<size_t> published_{0};
  std::atomic<bool> done_{false};

  // Producer pacing state. consumer_pos_[slot] is the consumer's hand-off
  // position (kConsumerDone once finished); slots are handed out by
  // RegisterConsumer in arrival order and advanced under mutex_, which
  // the paced producer holds across its predicate check and wait — so
  // wakeups cannot be missed.
  size_t producer_lead_ = 0;       // 0 = pacing off
  size_t expected_consumers_ = 0;  // pacing slots allocated
  std::unique_ptr<std::atomic<size_t>[]> consumer_pos_;
  std::atomic<size_t> consumers_registered_{0};
  std::condition_variable pace_cv_;  // waited on by the producer, mutex_
};

}  // namespace koios::core

#endif  // KOIOS_CORE_EDGE_CACHE_H_
