// The offline half of each workload, called through the library's public
// APIs with one span around every call into a layer: set-up (corpus and
// keyword vectors, or the streamed embedding corpus) and the refresh that
// turns it into a serving snapshot.

#ifndef SUBREC_PERFBENCH_SRC_PIPELINE_H_
#define SUBREC_PERFBENCH_SRC_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "datagen/corpus_generator.h"
#include "datagen/streaming.h"
#include "graph/academic_graph.h"
#include "rec/nprec.h"
#include "rec/recommender.h"
#include "serve/snapshot.h"
#include "text/hashed_ngram_encoder.h"
#include "text/word2vec.h"

namespace perfbench {

namespace sr = subrec;

/// Scopus-like corpus plus the keyword word2vec standing in for the
/// pretrained word vectors the expert rules consume.
struct CorpusInputs {
  sr::datagen::GeneratedDataset dataset;
  std::unique_ptr<sr::text::HashedNgramEncoder> encoder;
  std::unique_ptr<sr::text::Word2Vec> keyword_vectors;
};

std::unique_ptr<CorpusInputs> SetupCorpus(
    const sr::datagen::CorpusGeneratorOptions& options);

/// The live model of one retrain and everything it points into.
struct TrainedModel {
  sr::graph::GraphIndex graph;
  sr::rec::SubspaceEmbeddings subspace;
  std::vector<std::vector<double>> text;
  sr::rec::RecContext ctx;
  std::unique_ptr<sr::rec::NPRec> model;
};

constexpr int kSplitYear = 2014;

/// labeler train -> labeling -> rule features -> graph -> SEM fit/embed ->
/// NPRec fit, with Tab. IV's NPRec options. `tiny` shrinks triplet mining
/// and training to one short epoch each, for the benchmark's self-test.
std::unique_ptr<TrainedModel> Retrain(const CorpusInputs& inputs, bool tiny);

/// Streamed embedding corpus plus the serving users built over it.
struct StreamInputs {
  std::vector<sr::datagen::StreamedPaper> papers;
  int32_t split_year = 0;
  /// One profile per user: pre-split papers of 1-2 topics, most recent
  /// first.
  std::vector<std::vector<int32_t>> profiles;
};

std::unique_ptr<StreamInputs> SetupStream(
    const sr::datagen::StreamingCorpusOptions& options, size_t num_users,
    size_t profile_papers, uint64_t seed);

/// Packs the streamed vectors, attributes and profiles into SnapshotData
/// and embeds an HNSW index over the new-paper influence vectors, as
/// serve::FreezeNPRec does for a trained model.
sr::serve::SnapshotData FreezeStream(const StreamInputs& inputs);

}  // namespace perfbench

#endif  // SUBREC_PERFBENCH_SRC_PIPELINE_H_
