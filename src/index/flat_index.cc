#include "index/flat_index.h"

#include <algorithm>

#include "common/string_util.h"

namespace mira::index {

FlatIndex::FlatIndex(vecmath::Metric metric) : metric_(metric) {}

Status FlatIndex::Add(uint64_t id, const vecmath::Vec& vector) {
  if (built_) return Status::FailedPrecondition("flat: index already built");
  if (!vectors_.empty() && vector.size() != vectors_.cols()) {
    return Status::InvalidArgument(
        StrFormat("flat: dim mismatch (%zu vs %zu)", vector.size(),
                  vectors_.cols()));
  }
  if (metric_ == vecmath::Metric::kCosine) {
    vectors_.AppendRow(vecmath::Normalized(vector));
  } else {
    vectors_.AppendRow(vector);
  }
  ids_.push_back(id);
  return Status::OK();
}

void FlatIndex::Reserve(size_t expected_rows) {
  vectors_.Reserve(expected_rows);
  ids_.reserve(expected_rows);
}

Status FlatIndex::Build() {
  if (built_) return Status::FailedPrecondition("flat: Build called twice");
  built_ = true;
  return Status::OK();
}

Result<std::vector<vecmath::ScoredId>> FlatIndex::Search(
    const vecmath::Vec& query, const SearchParams& params) const {
  if (!built_) return Status::FailedPrecondition("flat: Build() not called");
  if (query.size() != vectors_.cols() && !vectors_.empty()) {
    return Status::InvalidArgument("flat: query dim mismatch");
  }
  vecmath::Vec q = metric_ == vecmath::Metric::kCosine
                       ? vecmath::Normalized(query)
                       : query;
  vecmath::TopK top(params.k);
  MIRA_RETURN_NOT_OK(ScanRows(
      q.data(), vectors_.data().data(), ids_.size(), vectors_.cols(), metric_,
      params.control,
      [&](size_t row, float score) { top.Push(ids_[row], score); }));
  return top.Take();
}

MemoryStats FlatIndex::MemoryUsage() const {
  MemoryStats stats;
  stats.vectors_bytes = vectors_.data().size() * sizeof(float);
  stats.ids_bytes = ids_.size() * sizeof(uint64_t);
  return stats;
}

}  // namespace mira::index
