#include "embed/encoder.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mira::embed {

namespace {

// Salt values keep the seed streams of the different direction families
// disjoint.
constexpr uint64_t kTopicSalt = 0x70F1C'5A17ULL;
constexpr uint64_t kAspectSalt = 0xA59EC7'5A17ULL;
constexpr uint64_t kConceptSalt = 0xC0'9CE7'5A17ULL;
constexpr uint64_t kNgramSalt = 0x96'7A3'5A17ULL;
constexpr uint64_t kNumberSalt = 0x9B'3E2'5A17ULL;
constexpr uint64_t kBucketSalt = 0xB0C'4E7'5A17ULL;

uint64_t TopicSeed(int32_t topic_id) {
  return kTopicSalt + static_cast<uint64_t>(topic_id) * 2654435761ULL;
}

uint64_t AspectSeed(int32_t aspect_id) {
  return kAspectSalt + static_cast<uint64_t>(aspect_id) * 48271ULL;
}

}  // namespace

void TokenFrequencies::Add(const std::vector<std::string>& tokens) {
  for (const auto& token : tokens) {
    ++counts_[token];
    ++total_;
  }
}

void TokenFrequencies::AddText(std::string_view text) {
  text::Tokenizer tokenizer;
  Add(tokenizer.Tokenize(text));
}

double TokenFrequencies::Prob(const std::string& token) const {
  auto it = counts_.find(token);
  double total = static_cast<double>(total_) + 1.0;
  // Unseen tokens get half the mass of a hapax so they rank strictly rarer.
  return it == counts_.end() ? 0.5 / total
                             : static_cast<double>(it->second) / total;
}

SemanticEncoder::SemanticEncoder(EncoderOptions options,
                                 std::shared_ptr<const Lexicon> lexicon)
    : options_(std::move(options)), lexicon_(std::move(lexicon)) {
  MIRA_CHECK(options_.dim > 0);
  MIRA_CHECK(lexicon_ != nullptr);
}

void SemanticEncoder::DrawDirection(uint64_t seed, float* out) const {
  Rng rng(SplitMix64(options_.seed ^ seed));
  for (size_t j = 0; j < options_.dim; ++j) {
    out[j] = static_cast<float>(rng.NextGaussian());
  }
  vecmath::NormalizeInPlace(out, options_.dim);
}

const float* SemanticEncoder::DrawInto(uint64_t seed,
                                       vecmath::Vec* scratch) const {
  DrawDirection(seed, scratch->data());
  return scratch->data();
}

vecmath::Vec SemanticEncoder::GaussianDirection(uint64_t seed) const {
  vecmath::Vec v(options_.dim);
  DrawDirection(seed, v.data());
  return v;
}

vecmath::Vec SemanticEncoder::TopicDirection(int32_t topic_id) const {
  return GaussianDirection(TopicSeed(topic_id));
}

vecmath::Vec SemanticEncoder::AspectDirection(int32_t aspect_id) const {
  return GaussianDirection(AspectSeed(aspect_id));
}

// The seeds of a token vector's pseudo-random directions and how they blend:
// the lexical component, then an optional numeric or concept blend on top.
struct SemanticEncoder::TokenRecipe {
  enum class Blend : uint8_t { kNone, kNumeric, kConcept };

  /// One seed per character n-gram, summed and normalized; or, for a token
  /// without n-grams, the whole token's seed, used as it is.
  std::vector<uint64_t> lexical;
  bool sum_lexical = true;
  Blend blend = Blend::kNone;
  /// kNumeric: {number, bucket}. kConcept: {topic, aspect, unique}, or
  /// {topic, unique} for a concept without an aspect.
  uint64_t blend_seeds[3] = {};
  size_t num_blend_seeds = 0;
};

namespace {

// Fills `seeds` with a concept's {topic, [aspect,] unique} seeds; returns
// how many.
size_t ConceptSeeds(const Lexicon& lexicon, int32_t concept_id,
                    uint64_t* seeds) {
  size_t n = 0;
  seeds[n++] = TopicSeed(lexicon.TopicOf(concept_id));
  const int32_t aspect = lexicon.AspectOfConcept(concept_id);
  if (aspect != kNoAspect) seeds[n++] = AspectSeed(aspect);
  seeds[n++] = kConceptSalt + static_cast<uint64_t>(concept_id) * 976369ULL;
  return n;
}

}  // namespace

SemanticEncoder::TokenRecipe SemanticEncoder::PlanToken(
    const std::string& token) const {
  TokenRecipe recipe;
  for (size_t n : options_.ngram_sizes) {
    for (const auto& gram : text::CharNgrams(token, n)) {
      recipe.lexical.push_back(Fnv1a64(gram) ^ kNgramSalt);
    }
  }
  if (recipe.lexical.empty()) {
    // Degenerate token (should not happen after tokenization); fall back to
    // hashing the whole token.
    recipe.lexical.push_back(Fnv1a64(token) ^ kNgramSalt);
    recipe.sum_lexical = false;
  }

  // Numeric tokens: blend the shared numberness direction and a coarse
  // log-magnitude bucket so numerically-near values embed near each other.
  if (LooksNumeric(token)) {
    double value = std::atof(token.c_str());
    double magnitude = std::log10(std::abs(value) + 1.0);
    int64_t bucket = static_cast<int64_t>(std::floor(magnitude * 2.0));
    recipe.blend = TokenRecipe::Blend::kNumeric;
    recipe.blend_seeds[0] = kNumberSalt;
    recipe.blend_seeds[1] =
        kBucketSalt + static_cast<uint64_t>(bucket + 64) * 40503ULL;
    recipe.num_blend_seeds = 2;
    return recipe;
  }

  // Surface form of a known concept: mostly the concept direction, with a
  // lexical residue so distinct synonyms are near-identical but not equal.
  int32_t concept_id = lexicon_->ConceptOf(token);
  if (concept_id != kNoConcept) {
    recipe.blend = TokenRecipe::Blend::kConcept;
    recipe.num_blend_seeds =
        ConceptSeeds(*lexicon_, concept_id, recipe.blend_seeds);
  }
  return recipe;
}

template <typename Directions>
void SemanticEncoder::ComposeConcept(const TokenRecipe& recipe,
                                     const Directions& direction,
                                     float* out) const {
  // Concept = topic_share * topic + aspect_share * aspect (when the concept
  // has one) + remainder * unique. The resulting cosine ladder — same
  // concept > same aspect > same topic > unrelated — is the geometry
  // sentence encoders give real-world synonym/theme structure.
  const size_t dim = options_.dim;
  const bool has_aspect = recipe.num_blend_seeds == 3;
  float wt = options_.topic_share;
  float wa = has_aspect ? options_.aspect_share : 0.f;
  float wu = std::sqrt(std::max(0.f, 1.f - wt * wt - wa * wa));
  std::fill(out, out + dim, 0.f);
  vecmath::AxpyInPlace(out, direction(recipe.blend_seeds[0]), wt, dim);
  if (has_aspect) {
    vecmath::AxpyInPlace(out, direction(recipe.blend_seeds[1]), wa, dim);
  }
  vecmath::AxpyInPlace(
      out, direction(recipe.blend_seeds[recipe.num_blend_seeds - 1]), wu, dim);
  vecmath::NormalizeInPlace(out, dim);
}

template <typename Directions>
void SemanticEncoder::ComposeToken(const TokenRecipe& recipe,
                                   const Directions& direction,
                                   float* out) const {
  using Blend = TokenRecipe::Blend;
  const size_t dim = options_.dim;
  vecmath::Vec lexical(dim, 0.f);
  if (recipe.sum_lexical) {
    for (uint64_t seed : recipe.lexical) {
      vecmath::AxpyInPlace(lexical.data(), direction(seed), 1.0f, dim);
    }
    vecmath::NormalizeInPlace(&lexical);
  } else {
    const float* whole = direction(recipe.lexical.front());
    std::copy(whole, whole + dim, lexical.begin());
  }
  if (recipe.blend == Blend::kNone) {
    std::copy(lexical.begin(), lexical.end(), out);
    return;
  }

  float wb = 0.f;  // weight of the lexical component
  std::fill(out, out + dim, 0.f);
  if (recipe.blend == Blend::kNumeric) {
    float wn = options_.numeric_share;
    float wm = options_.magnitude_share;
    wb = std::max(0.f, 1.f - wn - wm);
    vecmath::AxpyInPlace(out, direction(recipe.blend_seeds[0]), wn, dim);
    vecmath::AxpyInPlace(out, direction(recipe.blend_seeds[1]), wm, dim);
  } else {
    vecmath::Vec concept_dir(dim);
    ComposeConcept(recipe, direction, concept_dir.data());
    float wc = options_.concept_blend;
    wb = std::sqrt(std::max(0.f, 1.f - wc * wc));
    vecmath::AxpyInPlace(out, concept_dir.data(), wc, dim);
  }
  vecmath::AxpyInPlace(out, lexical.data(), wb, dim);
  vecmath::NormalizeInPlace(out, dim);
}

vecmath::Vec SemanticEncoder::ConceptDirection(int32_t concept_id) const {
  TokenRecipe recipe;
  recipe.num_blend_seeds =
      ConceptSeeds(*lexicon_, concept_id, recipe.blend_seeds);
  vecmath::Vec scratch(options_.dim);
  vecmath::Vec out(options_.dim);
  ComposeConcept(
      recipe, [&](uint64_t seed) { return DrawInto(seed, &scratch); },
      out.data());
  return out;
}

const vecmath::Vec& SemanticEncoder::CachedTokenVector(
    const std::string& token) const {
  {
    MutexLock lock(cache_mutex_);
    auto it = token_cache_.find(token);
    if (it != token_cache_.end()) return it->second;
  }
  vecmath::Vec scratch(options_.dim);
  vecmath::Vec v(options_.dim);
  ComposeToken(
      PlanToken(token),
      [&](uint64_t seed) { return DrawInto(seed, &scratch); }, v.data());
  MutexLock lock(cache_mutex_);
  return token_cache_.emplace(token, std::move(v)).first->second;
}

vecmath::Vec SemanticEncoder::EncodeToken(const std::string& token) const {
  return CachedTokenVector(token);
}

float SemanticEncoder::TokenWeight(const std::string& token) const {
  float w = text::Tokenizer::IsStopword(token) ? options_.stopword_weight : 1.0f;
  if (frequencies_ != nullptr) {
    double p = frequencies_->Prob(token);
    w *= static_cast<float>(options_.sif_a / (options_.sif_a + p));
  }
  return w;
}

template <typename TokenAt>
void SemanticEncoder::PoolTokens(size_t num_tokens, const TokenAt& token_at,
                                 float* out) const {
  // Registry counters only — no spans: the faithful ExS path calls the
  // encoder once per cell, and a span per cell would blow up the trace.
  if constexpr (obs::kObsEnabled) {
    static obs::Counter& calls_metric =
        obs::MetricRegistry::Global().GetCounter("mira.embed.encode_calls");
    static obs::Counter& tokens_metric =
        obs::MetricRegistry::Global().GetCounter("mira.embed.tokens_encoded");
    calls_metric.Increment();
    tokens_metric.Add(num_tokens);
  }
  const size_t dim = options_.dim;
  std::fill(out, out + dim, 0.f);
  if (num_tokens == 0) return;
  float total_weight = 0.f;
  for (size_t i = 0; i < num_tokens; ++i) {
    const auto [vector, weight] = token_at(i);
    vecmath::AxpyInPlace(out, vector, weight, dim);
    total_weight += weight;
  }
  if (total_weight > 0.f) vecmath::ScaleInPlace(out, 1.0f / total_weight, dim);
  vecmath::NormalizeInPlace(out, dim);
}

vecmath::Vec SemanticEncoder::EncodeTokens(
    const std::vector<std::string>& tokens) const {
  vecmath::Vec out(options_.dim);
  PoolTokens(
      tokens.size(),
      [&](size_t i) {
        const float weight = TokenWeight(tokens[i]);
        return std::pair(CachedTokenVector(tokens[i]).data(), weight);
      },
      out.data());
  return out;
}

vecmath::Vec SemanticEncoder::EncodeText(std::string_view text) const {
  return EncodeTokens(tokenizer_.Tokenize(text));
}

TokenBatch SemanticEncoder::PrepareBatch(
    const std::vector<std::string_view>& texts, ThreadPool* pool) const {
  const size_t dim = options_.dim;
  TokenBatch batch;
  batch.offsets.reserve(texts.size() + 1);
  batch.offsets.push_back(0);
  {
    // Tokenize each text once, then number the distinct tokens.
    std::vector<std::vector<std::string>> text_tokens(texts.size());
    ParallelFor(pool, 0, texts.size(), [&](size_t t) {
      text_tokens[t] = tokenizer_.Tokenize(texts[t]);
    });
    std::unordered_map<std::string_view, uint32_t> ids;
    for (const auto& tokens : text_tokens) {
      for (const std::string& token : tokens) {
        auto [it, inserted] =
            ids.try_emplace(token, static_cast<uint32_t>(batch.tokens.size()));
        if (inserted) batch.tokens.push_back(token);
        batch.token_ids.push_back(it->second);
      }
      batch.offsets.push_back(batch.token_ids.size());
    }
  }
  const size_t num_tokens = batch.tokens.size();
  std::vector<TokenRecipe> recipes(num_tokens);
  ParallelFor(pool, 0, num_tokens,
              [&](size_t i) { recipes[i] = PlanToken(batch.tokens[i]); });

  // Each distinct seed gets a table row and is drawn once, up front.
  std::unordered_map<uint64_t, uint32_t> rows;
  std::vector<uint64_t> seeds;
  const auto add_seed = [&](uint64_t seed) {
    if (rows.try_emplace(seed, static_cast<uint32_t>(seeds.size())).second) {
      seeds.push_back(seed);
    }
  };
  for (const TokenRecipe& recipe : recipes) {
    for (uint64_t seed : recipe.lexical) add_seed(seed);
    for (size_t i = 0; i < recipe.num_blend_seeds; ++i) {
      add_seed(recipe.blend_seeds[i]);
    }
  }
  std::vector<float> table(seeds.size() * dim);
  ParallelFor(pool, 0, seeds.size(), [&](size_t r) {
    DrawDirection(seeds[r], table.data() + r * dim);
  });

  // Compose each distinct token vector; the table and the seed index are
  // only read here, so no lock is needed.
  batch.vectors.resize(num_tokens);
  batch.weights.resize(num_tokens);
  const auto direction = [&](uint64_t seed) -> const float* {
    return table.data() + size_t{rows.find(seed)->second} * dim;
  };
  ParallelFor(pool, 0, num_tokens, [&](size_t i) {
    batch.vectors[i].resize(dim);
    ComposeToken(recipes[i], direction, batch.vectors[i].data());
    batch.weights[i] = TokenWeight(batch.tokens[i]);
  });
  return batch;
}

void SemanticEncoder::PoolBatchText(const TokenBatch& batch, size_t t,
                                    float* out) const {
  const size_t begin = batch.offsets[t];
  PoolTokens(
      batch.offsets[t + 1] - begin,
      [&](size_t i) {
        const uint32_t id = batch.token_ids[begin + i];
        return std::pair(batch.vectors[id].data(), batch.weights[id]);
      },
      out);
}

void SemanticEncoder::CacheTokens(TokenBatch batch) const {
  MutexLock lock(cache_mutex_);
  token_cache_.reserve(token_cache_.size() + batch.tokens.size());
  for (size_t i = 0; i < batch.tokens.size(); ++i) {
    token_cache_.try_emplace(std::move(batch.tokens[i]),
                             std::move(batch.vectors[i]));
  }
}

}  // namespace mira::embed
