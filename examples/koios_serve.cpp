// koios_serve: the serving path end to end — build a repository, persist
// it with io::SaveRepositoryV4, load it back as an immutable
// serve::Snapshot that serves straight out of the file mapping, and run a
// concurrent query mix through a serve::QueryEngine with admission control
// and deadlines.
//
//   $ ./koios_serve [repo.bin]
//
// With a path argument the repository file is written there (and kept);
// without, a temporary file is used and removed. This is the demo driver
// of the serve subsystem; for measurements see bench_serve_throughput.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "koios/koios.h"

int main(int argc, char** argv) {
  using namespace koios;

  // ---- 1. Build and persist a repository ----------------------------------
  data::CorpusSpec spec;
  spec.name = "serve-demo";
  spec.num_sets = 1500;
  spec.vocab_size = 2000;
  spec.element_skew = 0.7;
  spec.size_distribution = data::SizeDistribution::kNormal;
  spec.min_set_size = 6;
  spec.max_set_size = 30;
  spec.avg_set_size = 14.0;
  spec.size_stddev = 6.0;
  spec.seed = 99;
  data::Corpus corpus = data::GenerateCorpus(spec);

  text::Dictionary dict;
  for (size_t t = 0; t < spec.vocab_size; ++t) {
    dict.Intern("token" + std::to_string(t));
  }
  embedding::SyntheticModelSpec model_spec;
  model_spec.vocab_size = spec.vocab_size;
  model_spec.dim = 32;
  model_spec.seed = 100;
  embedding::SyntheticEmbeddingModel model(model_spec);

  const std::string path =
      argc > 1 ? argv[1] : std::string("/tmp/koios_serve_demo.bin");
  auto saved = io::SaveRepositoryV4(dict, corpus.sets, &model.store(), path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("repository saved: %s (%zu sets, %zu tokens)\n", path.c_str(),
              corpus.sets.size(), dict.size());

  // ---- 2. Load it as an immutable snapshot and start an engine ------------
  auto snapshot = serve::Snapshot::Load(path);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }

  serve::EngineOptions options;
  options.num_threads = 4;            // 4 queries in flight
  options.max_queue = 64;             // 65th concurrent submit is rejected
  serve::QueryEngine engine(snapshot.value(), options);

  core::SearchParams params;
  params.k = 10;
  params.alpha = 0.8;
  const auto deadline = std::chrono::milliseconds(2000);  // per query

  // ---- 3. A batch: submit every query, then wait for all of them ----------
  // Queries that share tokens share the cursors the first of them builds.
  std::vector<std::future<serve::QueryEngine::Result>> batch;
  for (SetId id = 0; id < 8; ++id) {
    const auto tokens = snapshot.value()->sets().Tokens(id * 97 % 1500);
    batch.push_back(
        engine.Submit({tokens.begin(), tokens.end()}, params, deadline));
  }
  size_t batch_ok = 0;
  for (auto& future : batch) batch_ok += future.get().ok() ? 1 : 0;
  std::printf("batch: %zu/%zu queries answered\n", batch_ok, batch.size());

  // ---- 4. Concurrent clients through Submit -------------------------------
  constexpr size_t kClients = 4, kPerClient = 25;
  std::vector<std::thread> clients;
  std::atomic<size_t> answered{0}, rejected{0};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const SetId qid = static_cast<SetId>((c * kPerClient + i * 31) % 1500);
        const auto tokens = snapshot.value()->sets().Tokens(qid);
        auto result =
            engine.Submit({tokens.begin(), tokens.end()}, params, deadline)
                .get();
        if (result.ok()) {
          ++answered;
        } else {
          ++rejected;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // ---- 5. Serving stats ---------------------------------------------------
  const serve::EngineCounters counters = engine.counters();
  std::printf("clients done: %zu answered, %zu rejected\n", answered.load(),
              rejected.load());
  std::printf("engine: submitted=%llu completed=%llu queue_full=%llu "
              "deadline=%llu\n",
              static_cast<unsigned long long>(counters.submitted),
              static_cast<unsigned long long>(counters.completed),
              static_cast<unsigned long long>(counters.rejected_queue_full),
              static_cast<unsigned long long>(counters.deadline_exceeded));
  std::printf("latency: n=%llu p50=%.2fms p99=%.2fms\n",
              static_cast<unsigned long long>(engine.latency().Count()),
              engine.latency().Percentile(50) * 1e3,
              engine.latency().Percentile(99) * 1e3);
  const auto* cache_owner = dynamic_cast<const sim::BatchedNeighborIndex*>(
      snapshot.value()->index());
  if (cache_owner != nullptr) {
    const sim::CursorCacheStats cache = cache_owner->cursor_cache_stats();
    std::printf("cursor cache: %llu hits / %llu misses (cross-query reuse)\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses));
  }
  if (argc <= 1) std::remove(path.c_str());
  return 0;
}
