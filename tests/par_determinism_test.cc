// Bit-exactness gate for the shared parallel runtime: every parallelized
// fit must produce byte-identical results for SUBREC_NUM_THREADS in
// {1, 2, 4}. The deterministic-chunking contract (fixed chunk grids,
// ordered reductions, chunk-sharded SGD) makes this an equality test, not
// a tolerance test.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ann/hnsw_index.h"
#include "datagen/streaming.h"
#include "cluster/gmm.h"
#include "cluster/lof.h"
#include "cluster/tsne.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/corpus_generator.h"
#include "datagen/datasets.h"
#include "datagen/split.h"
#include "graph/academic_graph.h"
#include "la/matrix.h"
#include "par/parallel.h"
#include "rec/candidate_sets.h"
#include "rec/nprec.h"
#include "rules/expert_rules.h"
#include "subspace/trainer.h"
#include "subspace/twin_network.h"
#include "text/doc2vec.h"
#include "text/hashed_ngram_encoder.h"
#include "text/word2vec.h"

namespace subrec {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4};

void ExpectBitEqual(const la::Matrix& a, const la::Matrix& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " at flat index " << i;
}

void ExpectBitEqual(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " at index " << i;
}

// --- Golden values -----------------------------------------------------
//
// The model and graph suites below also compare against values recorded
// on an x86-64 host (AVX-512, GCC 12) when the closure-era tape, the
// pre-arena HNSW build and the arena paths still ran side by side and
// agreed bit for bit. They pin the arithmetic those deleted paths used to
// cross-check. A platform that yields other bits fails here, by design:
// there is no tolerance. Re-record them only with a deliberate change to
// the training schedule, and list the old and new values in CHANGES.md.

/// FNV-1a over the raw bytes of `values`: the digest the goldens record.
uint64_t DigestDoubles(const std::vector<double>& values) {
  return Fnv1aHash(
      std::string_view(reinterpret_cast<const char*>(values.data()),
                       values.size() * sizeof(double)));
}

std::string HexDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string HexWord(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void ExpectGolden(const std::vector<double>& got,
                  const std::vector<double>& golden, const std::string& what) {
  ASSERT_EQ(got.size(), golden.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]) << what << "[" << i << "] is "
                                 << HexDouble(got[i]) << ", golden "
                                 << HexDouble(golden[i]);
  }
}

void ExpectGolden(uint64_t got, uint64_t golden, const std::string& what) {
  EXPECT_EQ(got, golden) << what << " is " << HexWord(got) << ", golden "
                         << HexWord(golden);
}

la::Matrix GaussianData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  la::Matrix data(n, d);
  for (size_t i = 0; i < data.size(); ++i) data[i] = rng.Gaussian();
  return data;
}

TEST(ParDeterminism, GmmFitBitIdenticalAcrossThreadCounts) {
  const la::Matrix data = GaussianData(150, 6, 31);
  struct Out {
    la::Matrix means, variances, proba;
    std::vector<double> weights;
    double ll = 0.0;
  };
  std::vector<Out> outs;
  for (size_t threads : kThreadCounts) {
    par::ScopedNumThreads scoped(threads);
    cluster::GaussianMixture gmm(
        cluster::GmmOptions{.num_components = 3, .max_iterations = 25});
    ASSERT_TRUE(gmm.Fit(data).ok());
    outs.push_back(Out{gmm.means(), gmm.variances(), gmm.PredictProba(data),
                       gmm.weights(), gmm.LogLikelihood(data)});
  }
  for (size_t i = 1; i < outs.size(); ++i) {
    ExpectBitEqual(outs[0].means, outs[i].means, "gmm means");
    ExpectBitEqual(outs[0].variances, outs[i].variances, "gmm variances");
    ExpectBitEqual(outs[0].proba, outs[i].proba, "gmm responsibilities");
    ExpectBitEqual(outs[0].weights, outs[i].weights, "gmm weights");
    ASSERT_EQ(outs[0].ll, outs[i].ll) << "gmm log-likelihood";
  }
}

TEST(ParDeterminism, LofBitIdenticalAcrossThreadCounts) {
  const la::Matrix data = GaussianData(160, 8, 33);
  std::vector<std::vector<double>> outs;
  for (size_t threads : kThreadCounts) {
    par::ScopedNumThreads scoped(threads);
    auto lof = cluster::LocalOutlierFactor(data, 9);
    ASSERT_TRUE(lof.ok());
    outs.push_back(std::move(lof).value());
  }
  for (size_t i = 1; i < outs.size(); ++i)
    ExpectBitEqual(outs[0], outs[i], "lof scores");
}

TEST(ParDeterminism, TsneBitIdenticalAcrossThreadCounts) {
  const la::Matrix data = GaussianData(48, 6, 35);
  cluster::TsneOptions options;
  options.iterations = 40;
  options.exaggeration_iters = 10;
  std::vector<la::Matrix> outs;
  for (size_t threads : kThreadCounts) {
    par::ScopedNumThreads scoped(threads);
    auto y = cluster::Tsne(data, options);
    ASSERT_TRUE(y.ok());
    outs.push_back(std::move(y).value());
  }
  for (size_t i = 1; i < outs.size(); ++i)
    ExpectBitEqual(outs[0], outs[i], "tsne embedding");
}

std::vector<std::vector<std::string>> SyntheticSentences() {
  // Enough repeated structure for a stable vocabulary, enough sentences to
  // span several SGD chunks per epoch once tokens accumulate.
  const std::vector<std::string> topics = {
      "graph", "embedding", "subspace", "recommendation", "citation",
      "attention", "network", "cluster", "outlier", "paper"};
  Rng rng(71);
  std::vector<std::vector<std::string>> sentences(60);
  for (auto& s : sentences) {
    const size_t len = 6 + rng.UniformInt(6);
    for (size_t i = 0; i < len; ++i)
      s.push_back(topics[rng.UniformInt(topics.size())]);
  }
  return sentences;
}

TEST(ParDeterminism, Word2VecBitIdenticalAcrossThreadCounts) {
  const auto sentences = SyntheticSentences();
  text::Word2VecOptions options;
  options.dim = 16;
  options.epochs = 2;
  std::vector<std::vector<double>> outs;
  for (size_t threads : kThreadCounts) {
    par::ScopedNumThreads scoped(threads);
    text::Word2Vec w2v(options);
    ASSERT_TRUE(w2v.Train(sentences).ok());
    std::vector<double> flat;
    for (const char* word : {"graph", "subspace", "outlier", "paper"}) {
      const auto v = w2v.Embedding(word);
      flat.insert(flat.end(), v.begin(), v.end());
    }
    outs.push_back(std::move(flat));
  }
  for (size_t i = 1; i < outs.size(); ++i)
    ExpectBitEqual(outs[0], outs[i], "word2vec embeddings");
}

TEST(ParDeterminism, Doc2VecBitIdenticalAcrossThreadCounts) {
  const auto documents = SyntheticSentences();
  text::Doc2VecOptions options;
  options.dim = 16;
  options.epochs = 2;
  std::vector<std::vector<double>> outs;
  for (size_t threads : kThreadCounts) {
    par::ScopedNumThreads scoped(threads);
    text::Doc2Vec d2v(options);
    ASSERT_TRUE(d2v.Train(documents).ok());
    std::vector<double> flat;
    for (size_t doc : {size_t{0}, size_t{17}, size_t{59}}) {
      const auto v = d2v.DocumentVector(doc);
      flat.insert(flat.end(), v.begin(), v.end());
    }
    outs.push_back(std::move(flat));
  }
  for (size_t i = 1; i < outs.size(); ++i)
    ExpectBitEqual(outs[0], outs[i], "doc2vec document vectors");
}

/// Shared tiny worlds for the model-level fits (mirrors the
/// subspace_test / rec_test fixtures; built once per suite).
class ParModelWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = datagen::GenerateCorpus(
        datagen::ScopusLikeOptions(datagen::DatasetScale::kTiny, 4242));
    SUBREC_CHECK(result.ok());
    dataset_ = new datagen::GeneratedDataset(std::move(result).value());

    text::HashedNgramEncoderOptions enc_options;
    enc_options.dim = 24;
    encoder_ = new text::HashedNgramEncoder(enc_options);
    engine_ =
        new rules::ExpertRuleEngine(&dataset_->ccs, encoder_, nullptr);
    features_ = new std::vector<rules::PaperContentFeatures>();
    for (const auto& p : dataset_->corpus.papers) {
      std::vector<int> roles;
      for (const auto& s : p.abstract_sentences) roles.push_back(s.role);
      features_->push_back(engine_->ComputeFeatures(p, roles));
    }

    const auto split = datagen::SplitByYear(dataset_->corpus, 2014);
    graph::GraphBuildOptions graph_options;
    graph_options.citation_year_cutoff = 2014;
    index_ = new graph::GraphIndex(
        graph::BuildAcademicGraph(dataset_->corpus, graph_options));

    subspace_ = new rec::SubspaceEmbeddings();
    text_ = new std::vector<std::vector<double>>();
    for (const auto& p : dataset_->corpus.papers) {
      std::vector<std::vector<double>> subs(3, std::vector<double>(24, 0.0));
      std::vector<int> counts(3, 0);
      for (const auto& s : p.abstract_sentences) {
        const auto v = encoder_->Encode(s.text);
        for (size_t j = 0; j < v.size(); ++j)
          subs[static_cast<size_t>(s.role)][j] += v[j];
        ++counts[static_cast<size_t>(s.role)];
      }
      std::vector<double> fused(24, 0.0);
      for (int k = 0; k < 3; ++k) {
        if (counts[static_cast<size_t>(k)] > 0)
          for (double& x : subs[static_cast<size_t>(k)])
            x /= counts[static_cast<size_t>(k)];
        for (size_t j = 0; j < 24; ++j)
          fused[j] += subs[static_cast<size_t>(k)][j] / 3.0;
      }
      subspace_->push_back(std::move(subs));
      text_->push_back(std::move(fused));
    }

    ctx_ = new rec::RecContext();
    ctx_->corpus = &dataset_->corpus;
    ctx_->graph = index_;
    ctx_->split_year = 2014;
    ctx_->train_papers = split.train;
    ctx_->test_papers = split.test;
    ctx_->paper_text = text_;

    users_ = new std::vector<corpus::AuthorId>(
        datagen::SelectUsers(dataset_->corpus, 2014, 2));
    SUBREC_CHECK(!users_->empty());
    Rng rng(1);
    sets_ = new std::vector<rec::CandidateSet>();
    for (corpus::AuthorId u : *users_)
      sets_->push_back(rec::BuildCandidateSet(*ctx_, u, 20, rng));
  }

  static datagen::GeneratedDataset* dataset_;
  static text::HashedNgramEncoder* encoder_;
  static rules::ExpertRuleEngine* engine_;
  static std::vector<rules::PaperContentFeatures>* features_;
  static graph::GraphIndex* index_;
  static rec::SubspaceEmbeddings* subspace_;
  static std::vector<std::vector<double>>* text_;
  static rec::RecContext* ctx_;
  static std::vector<corpus::AuthorId>* users_;
  static std::vector<rec::CandidateSet>* sets_;
};

datagen::GeneratedDataset* ParModelWorld::dataset_ = nullptr;
text::HashedNgramEncoder* ParModelWorld::encoder_ = nullptr;
rules::ExpertRuleEngine* ParModelWorld::engine_ = nullptr;
std::vector<rules::PaperContentFeatures>* ParModelWorld::features_ = nullptr;
graph::GraphIndex* ParModelWorld::index_ = nullptr;
rec::SubspaceEmbeddings* ParModelWorld::subspace_ = nullptr;
std::vector<std::vector<double>>* ParModelWorld::text_ = nullptr;
rec::RecContext* ParModelWorld::ctx_ = nullptr;
std::vector<corpus::AuthorId>* ParModelWorld::users_ = nullptr;
std::vector<rec::CandidateSet>* ParModelWorld::sets_ = nullptr;

TEST_F(ParModelWorld, SemTrainerBitIdenticalAcrossThreadCounts) {
  subspace::SubspaceEncoderOptions enc;
  enc.input_dim = 24;
  enc.hidden_dim = 8;
  enc.residual = false;
  enc.attention_dim = 6;
  enc.mlp_layers = 2;

  std::vector<subspace::Triplet> triplets;
  const int n = static_cast<int>(features_->size());
  ASSERT_GE(n, 3);
  for (int i = 0; i < 24; ++i) {
    subspace::Triplet t;
    t.anchor = i % n;
    t.positive = (i + 1) % n;
    t.negative = (i + 2) % n;
    t.subspace = i % 3;
    t.gap = 1.0;
    triplets.push_back(t);
  }
  subspace::SemTrainerOptions options;
  options.epochs = 2;
  options.batch_size = 5;  // deliberately not a divisor: partial batches

  struct Out {
    std::vector<la::Matrix> params;
    std::vector<double> epoch_loss;
    double order_accuracy = 0.0;
  };
  std::vector<Out> outs;
  for (size_t threads : kThreadCounts) {
    par::ScopedNumThreads scoped(threads);
    subspace::TwinNetwork net(enc, 7);
    auto stats = TrainTwinNetwork(*features_, triplets, options, &net);
    ASSERT_TRUE(stats.ok());
    Out out;
    for (nn::Parameter* p : net.store()->params())
      out.params.push_back(p->value);
    out.epoch_loss = stats.value().epoch_loss;
    out.order_accuracy = stats.value().final_order_accuracy;
    outs.push_back(std::move(out));
  }
  for (size_t i = 1; i < outs.size(); ++i) {
    ASSERT_EQ(outs[0].params.size(), outs[i].params.size());
    for (size_t pidx = 0; pidx < outs[0].params.size(); ++pidx)
      ExpectBitEqual(outs[0].params[pidx], outs[i].params[pidx],
                     "sem param " + std::to_string(pidx));
    ExpectBitEqual(outs[0].epoch_loss, outs[i].epoch_loss, "sem epoch loss");
    ASSERT_EQ(outs[0].order_accuracy, outs[i].order_accuracy);
  }
  std::vector<double> params;
  for (const la::Matrix& m : outs[0].params)
    params.insert(params.end(), m.data(), m.data() + m.size());
  ExpectGolden(outs[0].epoch_loss, {0x1.5385aa6a0d83dp-3, 0x1.ff39106d49dcp-4},
               "sem epoch loss");
  ExpectGolden(DigestDoubles(params), 0x11b88e6ede6876eaULL,
               "sem parameter digest");
}

TEST_F(ParModelWorld, NPRecAndEvalBitIdenticalAcrossThreadCounts) {
  // The raw text channel reads NPRec's per-batch normalized-text cache;
  // the plain configuration reads only the per-Fit subspace cache.
  struct Golden {
    bool raw_text_channel;
    double epoch_loss;
    uint64_t vector_digest;
  };
  for (const Golden& golden :
       {Golden{false, 0x1.3297c079a57fep-1, 0x9371357b9eb6872cULL},
        Golden{true, 0x1.22d9bfb52f8e2p-1, 0xee7148ddd581529bULL}}) {
    SCOPED_TRACE(golden.raw_text_channel ? "raw text channel on"
                                         : "raw text channel off");
    rec::NPRecOptions options;
    options.embed_dim = 12;
    options.neighbor_samples = 4;
    options.epochs = 1;
    options.sampler.max_positives = 150;
    options.sampler.negatives_per_positive = 3;
    options.use_raw_text_channel = golden.raw_text_channel;

    struct Out {
      std::vector<double> vectors;
      std::vector<double> epoch_loss;
      double ndcg = 0.0, mrr = 0.0, map = 0.0;
    };
    std::vector<Out> outs;
    for (size_t threads : kThreadCounts) {
      par::ScopedNumThreads scoped(threads);
      rec::NPRec model(options, subspace_);
      ASSERT_TRUE(model.Fit(*ctx_).ok());
      Out out;
      for (size_t p = 0; p < ctx_->corpus->papers.size(); p += 7) {
        const auto& vi =
            model.PaperInterestVector(static_cast<corpus::PaperId>(p));
        const auto& vf =
            model.PaperInfluenceVector(static_cast<corpus::PaperId>(p));
        out.vectors.insert(out.vectors.end(), vi.begin(), vi.end());
        out.vectors.insert(out.vectors.end(), vf.begin(), vf.end());
      }
      out.epoch_loss = model.train_stats().epoch_loss;
      const rec::RecEvalResult eval =
          rec::EvaluateRecommender(*ctx_, model, *sets_, 20);
      out.ndcg = eval.ndcg;
      out.mrr = eval.mrr;
      out.map = eval.map;
      outs.push_back(std::move(out));
    }
    for (size_t i = 1; i < outs.size(); ++i) {
      ExpectBitEqual(outs[0].vectors, outs[i].vectors, "nprec paper vectors");
      ExpectBitEqual(outs[0].epoch_loss, outs[i].epoch_loss,
                     "nprec epoch loss");
      ASSERT_EQ(outs[0].ndcg, outs[i].ndcg) << "eval ndcg";
      ASSERT_EQ(outs[0].mrr, outs[i].mrr) << "eval mrr";
      ASSERT_EQ(outs[0].map, outs[i].map) << "eval map";
    }
    ExpectGolden(outs[0].epoch_loss, {golden.epoch_loss}, "nprec epoch loss");
    ExpectGolden(DigestDoubles(outs[0].vectors), golden.vector_digest,
                 "nprec vector digest");
  }
}

TEST(ParDeterminism, HnswBuildBitIdenticalAcrossThreadCounts) {
  // The ANN graph ships inside snapshots, so its build must satisfy the
  // same contract as every fit here: Serialize() is a pure function of
  // (ids, vectors, options), for any SUBREC_NUM_THREADS. The size spans
  // several doubling batches so parallel plan/commit really kicks in.
  constexpr size_t kN = 700;
  constexpr size_t kDim = 6;
  Rng rng(77);
  std::vector<int32_t> ids;
  std::vector<double> vectors;
  for (size_t i = 0; i < kN; ++i) {
    ids.push_back(static_cast<int32_t>(i));
    for (size_t d = 0; d < kDim; ++d)
      vectors.push_back(rng.Gaussian(0.0, 1.0));
  }
  std::vector<std::string> serialized;
  for (size_t threads : kThreadCounts) {
    par::ScopedNumThreads scoped(threads);
    auto built = ann::HnswIndex::Build(ids, vectors, kDim, {});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    serialized.push_back(built.value()->Serialize());
  }
  for (size_t i = 1; i < serialized.size(); ++i)
    ASSERT_EQ(serialized[0], serialized[i])
        << "hnsw graph differs at " << kThreadCounts[i] << " threads";

  // And across two builds at the same thread count (no hidden state).
  auto rebuilt = ann::HnswIndex::Build(ids, vectors, kDim, {});
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_EQ(rebuilt.value()->Serialize(), serialized[0]);
}

TEST(ParDeterminism, HnswStreamingPresetBitIdenticalAcrossThreadCounts) {
  // Same determinism gate, but over the bench corpus itself: the streaming
  // generator's smoke preset at the bench seed, indexing the new-pool
  // influence vectors exactly as bench/ann_recall does (dim 48, several
  // doubling batches, realistic cluster structure). Set
  // SUBREC_ANN_DETERMINISM_FULL=1 to run the 1e5-paper full preset in a
  // same-host soak; CI stays on smoke.
  const char* env = std::getenv("SUBREC_ANN_DETERMINISM_FULL");
  const bool full = env != nullptr && env[0] == '1';
  auto created = datagen::StreamingCorpusGenerator::Create(
      datagen::AnnRecallPreset(full ? datagen::AnnCorpusScale::kFull
                                    : datagen::AnnCorpusScale::kSmoke,
                               909));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  datagen::StreamingCorpusGenerator gen = std::move(created).value();
  const size_t dim = gen.options().embedding_dim;
  std::vector<int32_t> ids;
  std::vector<double> vectors;
  std::vector<datagen::StreamedPaper> batch;
  while (gen.NextBatch(512, &batch) > 0) {
    for (const datagen::StreamedPaper& paper : batch) {
      if (paper.year <= gen.split_year()) continue;  // new-pool suffix only
      ids.push_back(paper.id);
      vectors.insert(vectors.end(), paper.influence.begin(),
                     paper.influence.end());
    }
  }
  ASSERT_GT(ids.size(), 1000u);

  std::vector<std::string> serialized;
  for (size_t threads : kThreadCounts) {
    par::ScopedNumThreads scoped(threads);
    auto built = ann::HnswIndex::Build(ids, vectors, dim, {});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    serialized.push_back(built.value()->Serialize());
  }
  for (size_t i = 1; i < serialized.size(); ++i)
    ASSERT_EQ(serialized[0], serialized[i])
        << "hnsw graph differs at " << kThreadCounts[i] << " threads";

  // Golden graph bytes. The 240-point fixture in ann_test commits at most
  // 112 nodes per batch; this preset's last batch commits 976, so the
  // batched back-link replay is pinned at scale too. The digest also
  // covers the streamed vectors and the per-node levels, both derived
  // from SplitMix64.
  if (!full) {
    EXPECT_EQ(serialized[0].size(), 853612u);
    ExpectGolden(Fnv1aHash(serialized[0]), 0x54ec69732ea19d30ULL,
                 "hnsw smoke-preset graph digest");
  }
}

}  // namespace
}  // namespace subrec

