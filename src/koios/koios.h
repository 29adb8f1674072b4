// Koios — top-k semantic overlap set search (ICDE 2023 reproduction).
//
// Umbrella header: pulls in the public API.
//
//   using namespace koios;
//   data::Corpus corpus = data::GenerateCorpus(data::OpenDataSpec(0.05));
//   embedding::SyntheticEmbeddingModel model({...});
//   sim::CosineEmbeddingSimilarity sim(&model.store());
//   sim::ExactKnnIndex index(corpus.vocabulary, &sim);
//   core::KoiosSearcher searcher(&corpus.sets, &index);
//   core::SearchParams params;           // k = 10, alpha = 0.8
//   auto result = searcher.Search(query_tokens, params);
//
// See examples/quickstart.cpp for a complete program.
#ifndef KOIOS_KOIOS_H_
#define KOIOS_KOIOS_H_

#include "koios/baselines/brute_force.h"
#include "koios/baselines/silkmoth.h"
#include "koios/baselines/vanilla_topk.h"
#include "koios/core/search_types.h"
#include "koios/core/searcher.h"
#include "koios/data/corpus.h"
#include "koios/data/query_benchmark.h"
#include "koios/embedding/synthetic_model.h"
#include "koios/embedding/vec_loader.h"
#include "koios/index/inverted_index.h"
#include "koios/io/repository_v4.h"
#include "koios/io/serialization.h"
#include "koios/index/set_collection.h"
#include "koios/matching/semantic_overlap.h"
#include "koios/serve/query_engine.h"
#include "koios/serve/snapshot.h"
#include "koios/sim/cosine_similarity.h"
#include "koios/sim/exact_knn_index.h"
#include "koios/sim/jaccard_qgram_similarity.h"
#include "koios/sim/token_stream.h"
#include "koios/text/dictionary.h"
#include "koios/text/qgram.h"
#include "koios/text/tokenizer.h"

#endif  // KOIOS_KOIOS_H_
