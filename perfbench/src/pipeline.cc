#include "pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

#include "ann/hnsw_index.h"
#include "common/check.h"
#include "common/rng.h"
#include "datagen/split.h"
#include "labeling/trainer.h"
#include "rules/expert_rules.h"
#include "spans.h"
#include "subspace/sem_model.h"
#include "text/tokenizer.h"

namespace perfbench {

std::unique_ptr<CorpusInputs> SetupCorpus(
    const sr::datagen::CorpusGeneratorOptions& options) {
  auto inputs = std::make_unique<CorpusInputs>();
  {
    ScopedSpan span("datagen.generate");
    auto generated = sr::datagen::GenerateCorpus(options);
    SUBREC_CHECK(generated.ok()) << generated.status().ToString();
    inputs->dataset = std::move(generated).value();
  }
  sr::text::HashedNgramEncoderOptions encoder_options;
  encoder_options.dim = 128;
  encoder_options.use_bigrams = false;
  encoder_options.seed = 7;
  inputs->encoder =
      std::make_unique<sr::text::HashedNgramEncoder>(encoder_options);

  ScopedSpan span("text.word2vec");
  std::vector<std::vector<std::string>> sentences;
  for (const auto& p : inputs->dataset.corpus.papers) {
    for (const auto& s : p.abstract_sentences)
      sentences.push_back(sr::text::Tokenize(s.text));
    if (!p.keywords.empty()) sentences.push_back(p.keywords);
  }
  sr::text::Word2VecOptions w2v_options;
  w2v_options.dim = 32;
  w2v_options.epochs = 1;
  w2v_options.seed = 8;
  inputs->keyword_vectors = std::make_unique<sr::text::Word2Vec>(w2v_options);
  const sr::Status status = inputs->keyword_vectors->Train(sentences);
  SUBREC_CHECK(status.ok()) << status.ToString();
  return inputs;
}

std::unique_ptr<TrainedModel> Retrain(const CorpusInputs& inputs, bool tiny) {
  const sr::corpus::Corpus& corpus = inputs.dataset.corpus;
  auto out = std::make_unique<TrainedModel>();
  sr::labeling::SentenceLabeler labeler(3);

  {
    // The paper tags 100 abstracts per dataset to train the labeler.
    ScopedSpan span("labeling.train");
    const size_t docs = std::min<size_t>(100, corpus.papers.size() / 2);
    std::vector<std::vector<std::string>> abstracts;
    std::vector<std::vector<int>> roles;
    for (size_t i = 0; i < docs; ++i) {
      std::vector<int> row;
      for (const auto& s : corpus.papers[i].abstract_sentences)
        row.push_back(s.role);
      abstracts.push_back(corpus.AbstractOf(static_cast<int>(i)));
      roles.push_back(std::move(row));
    }
    const sr::Status status = labeler.Train(abstracts, roles);
    SUBREC_CHECK(status.ok()) << status.ToString();
  }

  std::vector<std::vector<int>> predicted_roles;
  {
    ScopedSpan span("labeling.label");
    predicted_roles.reserve(corpus.papers.size());
    for (const auto& p : corpus.papers)
      predicted_roles.push_back(labeler.Label(corpus.AbstractOf(p.id)));
  }

  const sr::rules::ExpertRuleEngine engine(&inputs.dataset.ccs,
                                           inputs.encoder.get(),
                                           inputs.keyword_vectors.get());
  std::vector<sr::rules::PaperContentFeatures> features;
  {
    ScopedSpan span("rules.features");
    features.reserve(corpus.papers.size());
    for (const auto& p : corpus.papers) {
      features.push_back(engine.ComputeFeatures(
          p, predicted_roles[static_cast<size_t>(p.id)]));
    }
  }

  const sr::datagen::YearSplit split =
      sr::datagen::SplitByYear(corpus, kSplitYear);
  {
    ScopedSpan span("graph.build");
    sr::graph::GraphBuildOptions graph_options;
    graph_options.citation_year_cutoff = kSplitYear;
    out->graph = sr::graph::BuildAcademicGraph(corpus, graph_options);
  }

  std::unique_ptr<sr::subspace::SemModel> sem;
  {
    ScopedSpan span("subspace.fit");
    sr::subspace::SemModelOptions options;
    options.encoder.input_dim = inputs.encoder->dim();
    options.encoder.hidden_dim = inputs.encoder->dim();
    options.encoder.attention_dim = 16;
    options.miner.num_candidates = tiny ? 200 : 1200;
    options.trainer.epochs = tiny ? 1 : 2;
    options.seed = 21;
    sem = std::make_unique<sr::subspace::SemModel>(options);
    auto stats = sem->Fit(corpus, split.train, features, engine);
    SUBREC_CHECK(stats.ok()) << stats.status().ToString();
  }

  {
    ScopedSpan span("subspace.embed");
    for (const auto& p : corpus.papers) {
      auto subs = sem->Embed(features[static_cast<size_t>(p.id)]);
      std::vector<double> fused(subs[0].size(), 0.0);
      for (const auto& s : subs)
        for (size_t j = 0; j < s.size(); ++j) fused[j] += s[j] / 3.0;
      out->subspace.push_back(std::move(subs));
      out->text.push_back(std::move(fused));
    }
  }

  out->ctx.corpus = &corpus;
  out->ctx.graph = &out->graph;
  out->ctx.split_year = kSplitYear;
  out->ctx.train_papers = split.train;
  out->ctx.test_papers = split.test;
  out->ctx.paper_text = &out->text;

  {
    ScopedSpan span("rec.fit");
    sr::rec::NPRecOptions options;
    options.sampler.max_positives = tiny ? 200 : 1500;
    if (tiny) options.epochs = 1;
    out->model = std::make_unique<sr::rec::NPRec>(options, &out->subspace);
    const sr::Status status = out->model->Fit(out->ctx);
    SUBREC_CHECK(status.ok()) << status.ToString();
  }
  return out;
}

std::unique_ptr<StreamInputs> SetupStream(
    const sr::datagen::StreamingCorpusOptions& options, size_t num_users,
    size_t profile_papers, uint64_t seed) {
  auto inputs = std::make_unique<StreamInputs>();
  {
    ScopedSpan span("datagen.stream");
    auto created = sr::datagen::StreamingCorpusGenerator::Create(options);
    SUBREC_CHECK(created.ok()) << created.status().ToString();
    sr::datagen::StreamingCorpusGenerator gen = std::move(created).value();
    inputs->split_year = gen.split_year();
    inputs->papers.reserve(gen.num_papers());
    std::vector<sr::datagen::StreamedPaper> batch;
    while (gen.NextBatch(4096, &batch) > 0) {
      for (auto& p : batch) inputs->papers.push_back(std::move(p));
    }
  }

  // History papers by topic; users draw their profiles from 1-2 topics.
  int num_topics = 0;
  for (const auto& p : inputs->papers)
    num_topics = std::max(num_topics, p.topic + 1);
  std::vector<std::vector<int32_t>> history(static_cast<size_t>(num_topics));
  for (const auto& p : inputs->papers) {
    if (p.year <= inputs->split_year)
      history[static_cast<size_t>(p.topic)].push_back(p.id);
  }
  sr::Rng rng(seed);
  inputs->profiles.resize(num_users);
  for (auto& profile : inputs->profiles) {
    const size_t topics = 1 + rng.UniformInt(2);
    std::vector<size_t> chosen;
    for (size_t t = 0; t < topics; ++t)
      chosen.push_back(rng.UniformInt(static_cast<uint64_t>(num_topics)));
    while (profile.size() < profile_papers) {
      const auto& pool = history[chosen[rng.UniformInt(chosen.size())]];
      const int32_t paper = pool[rng.UniformInt(pool.size())];
      if (std::find(profile.begin(), profile.end(), paper) == profile.end())
        profile.push_back(paper);
    }
    // Ids ascend with year, so descending ids are most recent first.
    std::sort(profile.rbegin(), profile.rend());
  }
  return inputs;
}

sr::serve::SnapshotData FreezeStream(const StreamInputs& inputs) {
  sr::serve::SnapshotData data;
  const size_t n = inputs.papers.size();
  const size_t dim = n == 0 ? 0 : inputs.papers.front().interest.size();
  std::vector<int32_t> ann_ids;
  std::vector<double> ann_vectors;
  {
    ScopedSpan span("serve.freeze");
    data.model_name = "stream";
    data.dataset = "streaming";
    data.split_year = inputs.split_year;
    data.interest.ResizeOverwrite(n, dim);
    data.influence.ResizeOverwrite(n, dim);
    for (size_t i = 0; i < n; ++i) {
      const auto& p = inputs.papers[i];
      std::copy(p.interest.begin(), p.interest.end(), data.interest.row_data(i));
      std::copy(p.influence.begin(), p.influence.end(),
                data.influence.row_data(i));
      data.years.push_back(p.year);
      data.disciplines.push_back(p.discipline);
      data.topics.push_back(p.topic);
      if (p.year > inputs.split_year) {
        ann_ids.push_back(p.id);
        ann_vectors.insert(ann_vectors.end(), p.influence.begin(),
                           p.influence.end());
      }
    }
    data.profiles = inputs.profiles;
  }
  std::unique_ptr<sr::ann::HnswIndex> index;
  {
    ScopedSpan span("ann.build");
    auto built = sr::ann::HnswIndex::Build(std::move(ann_ids),
                                           std::move(ann_vectors), dim, {});
    SUBREC_CHECK(built.ok()) << built.status().ToString();
    index = std::move(built).value();
  }
  {
    ScopedSpan span("ann.serialize");
    data.ann_index = index->Serialize();
  }
  return data;
}

}  // namespace perfbench
