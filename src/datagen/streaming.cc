#include "datagen/streaming.h"

#include <cmath>
#include <utility>

#include "common/rng.h"

namespace subrec::datagen {
namespace {

/// Stream seed for paper `i`: a function of (corpus seed, id) only — this
/// is the whole batch-size-independence argument.
uint64_t PaperSeed(uint64_t corpus_seed, size_t i) {
  return SplitMix64(corpus_seed ^ SplitMix64(static_cast<uint64_t>(i)));
}

}  // namespace

StreamingCorpusOptions AnnRecallPreset(AnnCorpusScale scale, uint64_t seed) {
  StreamingCorpusOptions options;
  options.seed = seed;
  switch (scale) {
    case AnnCorpusScale::kSmoke:
      options.papers_per_year = 400;  // 4e3 papers, 2e3 in the new pool.
      break;
    case AnnCorpusScale::kFull:
      options.papers_per_year = 10000;  // 1e5 papers, 5e4 in the new pool.
      break;
    case AnnCorpusScale::kXl:
      options.papers_per_year = 100000;  // 1e6 papers, 5e5 in the new pool.
      break;
  }
  return options;
}

StreamingCorpusGenerator::StreamingCorpusGenerator(
    const StreamingCorpusOptions& options)
    : options_(options) {
  const int years = options_.end_year - options_.start_year + 1;
  num_papers_ = static_cast<size_t>(years) *
                static_cast<size_t>(options_.papers_per_year);
  num_topics_ = options_.num_disciplines * options_.topics_per_discipline;
  const size_t dim = options_.embedding_dim;
  interest_centers_.resize(static_cast<size_t>(num_topics_) * dim);
  influence_centers_.resize(static_cast<size_t>(num_topics_) * dim);
  // Centers drawn once from the corpus seed. Influence centers lean on the
  // interest center of the same topic, so a profile averaged from a
  // topic's interest vectors retrieves that topic's influence vectors —
  // the structure recall@N is measured against.
  Rng rng(options_.seed);
  const double unit = 1.0 / std::sqrt(static_cast<double>(dim));
  for (size_t j = 0; j < interest_centers_.size(); ++j) {
    interest_centers_[j] = rng.Gaussian(0.0, unit);
    influence_centers_[j] =
        interest_centers_[j] + rng.Gaussian(0.0, 0.25 * unit);
  }
}

Result<StreamingCorpusGenerator> StreamingCorpusGenerator::Create(
    const StreamingCorpusOptions& options) {
  if (options.end_year < options.start_year)
    return Status::InvalidArgument("streaming corpus: empty year range");
  if (options.papers_per_year <= 0)
    return Status::InvalidArgument(
        "streaming corpus: papers_per_year must be positive");
  if (options.num_disciplines <= 0 || options.topics_per_discipline <= 0)
    return Status::InvalidArgument(
        "streaming corpus: need at least one discipline and topic");
  if (options.embedding_dim == 0)
    return Status::InvalidArgument("streaming corpus: dim must be positive");
  return StreamingCorpusGenerator(options);
}

StreamedPaper StreamingCorpusGenerator::PaperAt(size_t i) const {
  const size_t dim = options_.embedding_dim;
  StreamedPaper paper;
  paper.id = static_cast<int32_t>(i);
  paper.year = options_.start_year +
               static_cast<int32_t>(i / static_cast<size_t>(
                                            options_.papers_per_year));
  Rng rng(PaperSeed(options_.seed, i));
  paper.topic =
      static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(num_topics_)));
  paper.discipline = paper.topic / options_.topics_per_discipline;
  const double* interest_center =
      interest_centers_.data() + static_cast<size_t>(paper.topic) * dim;
  const double* influence_center =
      influence_centers_.data() + static_cast<size_t>(paper.topic) * dim;
  // Lognormal magnitude on influence only: papers differ in reach, which
  // keeps maximum-inner-product retrieval from degenerating into cosine.
  const double reach = std::exp(rng.Gaussian(0.0, options_.influence_sigma));
  paper.interest.resize(dim);
  paper.influence.resize(dim);
  const double unit = 1.0 / std::sqrt(static_cast<double>(dim));
  for (size_t d = 0; d < dim; ++d) {
    paper.interest[d] =
        interest_center[d] + rng.Gaussian(0.0, options_.topic_spread * unit);
    paper.influence[d] =
        reach * (influence_center[d] +
                 rng.Gaussian(0.0, options_.topic_spread * unit));
  }
  return paper;
}

size_t StreamingCorpusGenerator::NextBatch(size_t max_papers,
                                           std::vector<StreamedPaper>* out) {
  out->clear();
  const size_t count = std::min(max_papers, num_papers_ - next_);
  out->reserve(count);
  for (size_t j = 0; j < count; ++j) out->push_back(PaperAt(next_ + j));
  next_ += count;
  return count;
}

}  // namespace subrec::datagen
