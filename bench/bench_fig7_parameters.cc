// Figure 7 — parameter analysis on OpenData:
//   (a) response time vs number of partitions searched in parallel (also
//       phase share): 1, 2 and 4 contiguous shards of a
//       serve::ShardCoordinator, shards 1..N-1 on a thread pool
//   (b) response time vs element similarity threshold α
//   (c) response time vs result size k
//   (d) memory footprint vs α
//
// Shapes from the paper: (a) time falls as partitions grow (shared θlb +
// parallelism) and the post-processing share shrinks; (b) higher α =>
// faster (fewer edges, cheaper matching); (c) larger k => *lower* average
// time (counter-intuitive: more sets reach the result quickly, less
// post-processing work); (d) memory rises slightly with α (smaller θlb =>
// more sets reach post-processing).
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "koios/serve/shard_coordinator.h"
#include "koios/util/thread_pool.h"

namespace koios::bench {
namespace {

std::vector<data::BenchmarkQuery> SampleForSweep(const BenchWorkload& w,
                                                 size_t count) {
  util::Rng rng(777);
  return data::SampleQueriesUniform(w.corpus, count, &rng);
}

void Run() {
  BenchWorkload w = MakeBenchWorkload(Dataset::kOpenData);
  const auto queries = SampleForSweep(w, 10);

  // ---- (a) partitions sweep ---------------------------------------------
  PrintHeader("Figure 7a: time vs #partitions in parallel (k=10, alpha=0.8)");
  std::printf("%-12s | %12s | %9s %9s\n", "partitions", "response(s)",
              "refine%", "post%");
  PrintRule();
  for (size_t shards : {1, 2, 4}) {
    const serve::ShardCoordinator coordinator(&w.corpus.sets, w.index.get(),
                                              {.num_shards = shards});
    util::ThreadPool pool(std::max<size_t>(1, shards - 1));
    core::SearchParams params;
    params.k = 10;
    params.alpha = 0.8;
    params.verify_result_scores = false;
    Aggregate t, refine_share, post_share;
    for (const auto& query : queries) {
      util::WallTimer timer;
      const core::SearchResult r =
          coordinator.Execute(query.tokens, params, {}, &pool, nullptr);
      t.Add(timer.ElapsedSeconds());
      // Summed over the shards.
      const double refine = r.stats.timers.Get(core::Phase::kRefinement);
      const double post = r.stats.timers.Get(core::Phase::kPostprocess);
      if (refine + post > 0) {
        refine_share.Add(100.0 * refine / (refine + post));
        post_share.Add(100.0 * post / (refine + post));
      }
    }
    std::printf("%-12zu | %12.4f | %8.1f%% %8.1f%%\n", shards, t.Mean(),
                refine_share.Mean(), post_share.Mean());
  }

  // ---- (b) + (d) alpha sweep --------------------------------------------
  PrintHeader("Figure 7b/7d: time and memory vs alpha (k=10, unpartitioned)");
  std::printf("%-8s | %12s | %11s\n", "alpha", "response(s)", "memory(MB)");
  PrintRule();
  core::KoiosSearcher searcher(&w.corpus.sets, w.index.get());
  for (double alpha : {0.6, 0.7, 0.8, 0.9}) {
    core::SearchParams params;
    params.k = 10;
    params.alpha = alpha;
    params.verify_result_scores = false;
    Aggregate t, mem;
    for (const auto& query : queries) {
      const RunOutcome out = RunKoios(&searcher, query.tokens, params);
      t.Add(out.response_sec);
      mem.Add(static_cast<double>(out.memory_bytes) / (1 << 20));
    }
    std::printf("%-8.2f | %12.4f | %11.2f\n", alpha, t.Mean(), mem.Mean());
  }

  // ---- (c) k sweep -------------------------------------------------------
  PrintHeader("Figure 7c: time vs k (alpha=0.8, unpartitioned)");
  std::printf("%-8s | %12s | %9s %9s\n", "k", "response(s)", "refine%",
              "post%");
  PrintRule();
  for (size_t k : {10, 20, 50, 100}) {
    core::SearchParams params;
    params.k = k;
    params.alpha = 0.8;
    params.verify_result_scores = false;
    Aggregate t, refine_share, post_share;
    for (const auto& query : queries) {
      const RunOutcome out = RunKoios(&searcher, query.tokens, params);
      t.Add(out.response_sec);
      const double total = out.refinement_sec + out.postprocess_sec;
      if (total > 0) {
        refine_share.Add(100.0 * out.refinement_sec / total);
        post_share.Add(100.0 * out.postprocess_sec / total);
      }
    }
    std::printf("%-8zu | %12.4f | %8.1f%% %8.1f%%\n", k, t.Mean(),
                refine_share.Mean(), post_share.Mean());
  }
  std::printf(
      "\nNote: (a) searches each query's partitions (contiguous shards under"
      " one shared\ntheta_lb) in parallel, shards 1..N-1 on a thread pool,"
      " and its phase shares sum\nthe shards' phase times. Above one"
      " partition the result scores are always\nverified, so the shard"
      " lists merge exactly; (b)-(d) do not verify No-EM admissions.\n");
}

}  // namespace
}  // namespace koios::bench

int main() {
  koios::bench::Run();
  return 0;
}
