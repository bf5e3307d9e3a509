#include "discovery/types.h"

namespace mira::discovery {

void ApplyThresholdAndTopK(Ranking* ranking, const DiscoveryOptions& options) {
  SortTopK(ranking, options.top_k);
  size_t keep = 0;
  for (const DiscoveryHit& hit : *ranking) {
    if (hit.score < options.threshold) break;
    ++keep;
  }
  ranking->resize(keep);
}

}  // namespace mira::discovery
