#ifndef MIRA_EMBED_ENCODER_H_
#define MIRA_EMBED_ENCODER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "common/threadpool.h"
#include "embed/lexicon.h"
#include "text/tokenizer.h"
#include "vecmath/vector_ops.h"

namespace mira::embed {

/// Unigram probabilities estimated from a corpus, used for SIF pooling
/// weights. Build once, share (read-only) across encoders.
class TokenFrequencies {
 public:
  /// Accumulates counts from a token sequence.
  void Add(const std::vector<std::string>& tokens);
  /// Accumulates counts from raw text (tokenized internally).
  void AddText(std::string_view text);

  /// p(token); unseen tokens get 1/(total+1).
  double Prob(const std::string& token) const;
  int64_t total() const { return total_; }

 private:
  std::unordered_map<std::string, int64_t> counts_;
  int64_t total_ = 0;
};

/// The token vectors of a batch of texts (SemanticEncoder::PrepareBatch):
/// each distinct token once, in first-seen order. The tokens of text t are
/// token_ids[offsets[t] .. offsets[t + 1]), in text order.
struct TokenBatch {
  std::vector<std::string> tokens;
  std::vector<vecmath::Vec> vectors;  ///< One per distinct token.
  std::vector<float> weights;         ///< Pooling weight per distinct token.
  std::vector<uint32_t> token_ids;
  std::vector<size_t> offsets;        ///< texts + 1 entries.
};

/// Configuration of the deterministic semantic encoder.
struct EncoderOptions {
  /// Output embedding dimensionality. The paper uses 768 (all-mpnet-base-v2);
  /// MIRA defaults to 256 for laptop-scale runs — all algorithms are
  /// dimension-agnostic and 768 is fully supported.
  size_t dim = 256;
  /// Character n-gram sizes hashed into the lexical component.
  std::vector<size_t> ngram_sizes = {3, 4};
  /// Blend weight of the concept vector for lexicon surface forms; the
  /// remainder goes to the hashed lexical component. Close to 1 means strong
  /// synonym collapsing (S-BERT-like), 0 disables semantics entirely.
  float concept_blend = 0.88f;
  /// Weight of the shared topic direction inside a concept vector (controls
  /// relatedness of same-topic concepts).
  float topic_share = 0.58f;
  /// Weight of the shared aspect direction inside a concept vector (on top
  /// of the topic share, for concepts that belong to an aspect). Controls
  /// relatedness of same-aspect concepts — the granularity of full
  /// relevance in the evaluation workloads.
  float aspect_share = 0.55f;
  /// Blend weights for numeric tokens: shared "numberness" direction and
  /// log-magnitude bucket direction; remainder is the hashed component.
  float numeric_share = 0.45f;
  float magnitude_share = 0.35f;
  /// Weight applied to stopword tokens when pooling a sentence.
  float stopword_weight = 0.2f;
  /// SIF smoothing constant: with corpus frequencies attached (see
  /// SetTokenFrequencies), a token's pooling weight is a / (a + p(token)),
  /// so ubiquitous words contribute little to a sentence embedding — the
  /// behaviour sentence transformers learn implicitly.
  float sif_a = 5e-3f;
  /// Seed of all pseudo-random directions; two encoders with equal options
  /// and lexicons produce identical embeddings.
  uint64_t seed = 0xC0FFEE;
};

/// Deterministic sentence/cell encoder, MIRA's stand-in for Sentence-BERT.
///
/// Token vectors have three ingredients:
///   1. a *lexical* component: the normalized sum of pseudo-random Gaussian
///      directions of the token's character n-grams (robust to misspellings;
///      unrelated strings are near-orthogonal in high dimension);
///   2. a *concept* component, when the token is a surface form in the
///      Lexicon: a direction shared by all synonyms of the concept and
///      partially shared (via the topic direction) by sibling concepts;
///   3. a *numeric* component, when the token parses as a number: a shared
///      numberness direction plus a log-magnitude bucket direction, so
///      "1995" and "1997" are close while "1995" and "3.5e9" are not —
///      mirroring the paper's point that mpnet distinguishes numbers by
///      context and magnitude (§5 Model Specifications).
///
/// A text is encoded as the weighted mean of its token vectors (stopwords
/// down-weighted), L2-normalized — the standard mean-pooling recipe of
/// sentence transformers. Thread-safe; token vectors are memoized.
///
/// Queries and corpus builds share the token recipe and the pooling: a query
/// draws the directions a token needs on the spot, while a corpus build
/// (PrepareBatch) draws every distinct direction of the batch once and
/// composes from those.
class SemanticEncoder {
 public:
  SemanticEncoder(EncoderOptions options, std::shared_ptr<const Lexicon> lexicon);

  /// Embeds an attribute value or a query string: semImg(v) in the paper.
  vecmath::Vec EncodeText(std::string_view text) const;

  /// Embeds a pre-tokenized sequence.
  vecmath::Vec EncodeTokens(const std::vector<std::string>& tokens) const;

  /// Embeds a single token (memoized).
  vecmath::Vec EncodeToken(const std::string& token) const;

  /// The batch path of a corpus build, in three steps that give each text
  /// exactly EncodeText's vector. PrepareBatch tokenizes every text, draws
  /// each distinct pseudo-random direction once and composes each distinct
  /// token vector once, on `pool` (inline when null) and without a lock.
  TokenBatch PrepareBatch(const std::vector<std::string_view>& texts,
                          ThreadPool* pool) const;
  /// Pools text `t` of `batch` into `out` (dim() floats).
  void PoolBatchText(const TokenBatch& batch, size_t t, float* out) const;
  /// Moves the batch's token vectors into the token cache in one locked
  /// insert, so queries over corpus tokens find them there.
  void CacheTokens(TokenBatch batch) const;

  size_t dim() const { return options_.dim; }
  const EncoderOptions& options() const { return options_; }
  const Lexicon& lexicon() const { return *lexicon_; }

  /// Attaches corpus unigram statistics enabling SIF pooling weights
  /// (a / (a + p)). Without frequencies only the stopword down-weighting
  /// applies. Token vectors are unaffected (the cache stays valid).
  void SetTokenFrequencies(std::shared_ptr<const TokenFrequencies> frequencies) {
    frequencies_ = std::move(frequencies);
  }
  const TokenFrequencies* token_frequencies() const {
    return frequencies_.get();
  }

  /// The unit direction assigned to a concept (exposed for tests and for the
  /// datagen module, which plants query-table semantic structure).
  vecmath::Vec ConceptDirection(int32_t concept_id) const;

  /// The unit direction assigned to a topic.
  vecmath::Vec TopicDirection(int32_t topic_id) const;

  /// The unit direction assigned to an aspect.
  vecmath::Vec AspectDirection(int32_t aspect_id) const;

 private:
  struct TokenRecipe;

  /// The cached vector of `token`, computed and cached on a miss. Cache
  /// entries are never erased or changed and unordered_map nodes never move,
  /// so the reference stays valid with the lock released.
  const vecmath::Vec& CachedTokenVector(const std::string& token) const;
  /// Which directions make the token's vector, and how they blend.
  TokenRecipe PlanToken(const std::string& token) const;
  /// The one token-vector recipe: composes `recipe` into `out` (dim()
  /// floats) from `direction(seed)`, a pointer to that seed's unit direction
  /// that need stay valid only until the next call.
  template <typename Directions>
  void ComposeToken(const TokenRecipe& recipe, const Directions& direction,
                    float* out) const;
  template <typename Directions>
  void ComposeConcept(const TokenRecipe& recipe, const Directions& direction,
                      float* out) const;
  /// The one pooling routine: the weighted mean of `token_at(i)`'s
  /// {vector, weight} over i < num_tokens, L2-normalized, into `out`.
  template <typename TokenAt>
  void PoolTokens(size_t num_tokens, const TokenAt& token_at,
                  float* out) const;
  float TokenWeight(const std::string& token) const;
  /// Draws the unit direction of `seed` into `out` (dim() floats).
  void DrawDirection(uint64_t seed, float* out) const;
  /// Draws into `scratch` and returns its data: the query path's source.
  const float* DrawInto(uint64_t seed, vecmath::Vec* scratch) const;
  vecmath::Vec GaussianDirection(uint64_t seed) const;

  EncoderOptions options_;
  std::shared_ptr<const Lexicon> lexicon_;
  std::shared_ptr<const TokenFrequencies> frequencies_;
  text::Tokenizer tokenizer_;

  mutable Mutex cache_mutex_;
  mutable std::unordered_map<std::string, vecmath::Vec> token_cache_
      MIRA_GUARDED_BY(cache_mutex_);
};

}  // namespace mira::embed

#endif  // MIRA_EMBED_ENCODER_H_
