#ifndef SUBREC_TEXT_SENTENCE_ENCODER_H_
#define SUBREC_TEXT_SENTENCE_ENCODER_H_

#include <cstddef>
#include <string>
#include <vector>

namespace subrec::text {

/// Frozen sentence -> vector feature extractor. In the paper this role is
/// played by pretrained BERT-base; here the default implementation is the
/// deterministic HashedNgramEncoder (see DESIGN.md for the substitution
/// rationale). Implementations must be deterministic and thread-compatible
/// for concurrent Encode() calls.
class SentenceEncoder {
 public:
  virtual ~SentenceEncoder() = default;

  /// Output dimensionality d (the paper's 768; ours defaults to 96).
  virtual size_t dim() const = 0;

  /// Embeds one sentence. Must return a vector of exactly dim() entries.
  virtual std::vector<double> Encode(const std::string& sentence) const = 0;
};

}  // namespace subrec::text

#endif  // SUBREC_TEXT_SENTENCE_ENCODER_H_
