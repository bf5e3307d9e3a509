#include "index/payload.h"

namespace mira::index {

const PayloadValue* Payload::Get(std::string_view key) const {
  auto it = fields_.find(std::string(key));
  return it == fields_.end() ? nullptr : &it->second;
}

std::optional<std::string> Payload::GetString(std::string_view key) const {
  const PayloadValue* v = Get(key);
  if (v == nullptr) return std::nullopt;
  if (const auto* s = std::get_if<std::string>(v)) return *s;
  return std::nullopt;
}

std::optional<int64_t> Payload::GetInt(std::string_view key) const {
  const PayloadValue* v = Get(key);
  if (v == nullptr) return std::nullopt;
  if (const auto* i = std::get_if<int64_t>(v)) return *i;
  return std::nullopt;
}

std::optional<double> Payload::GetDouble(std::string_view key) const {
  const PayloadValue* v = Get(key);
  if (v == nullptr) return std::nullopt;
  if (const auto* d = std::get_if<double>(v)) return *d;
  return std::nullopt;
}

Condition Condition::Equals(std::string field, PayloadValue value) {
  Condition c;
  c.field = std::move(field);
  c.kind = Kind::kEquals;
  c.equals_value = std::move(value);
  return c;
}

Condition Condition::IntIn(std::string field, std::vector<int64_t> values) {
  Condition c;
  c.field = std::move(field);
  c.kind = Kind::kIntIn;
  c.int_set.insert(values.begin(), values.end());
  return c;
}

Condition Condition::IntRange(std::string field, int64_t min, int64_t max) {
  Condition c;
  c.field = std::move(field);
  c.kind = Kind::kIntRange;
  c.range_min = min;
  c.range_max = max;
  return c;
}

bool Condition::Matches(const Payload& payload) const {
  const PayloadValue* value = payload.Get(field);
  if (value == nullptr) return false;
  switch (kind) {
    case Kind::kEquals:
      return *value == equals_value;
    case Kind::kIntIn: {
      const auto* i = std::get_if<int64_t>(value);
      return i != nullptr && int_set.count(*i) > 0;
    }
    case Kind::kIntRange: {
      const auto* i = std::get_if<int64_t>(value);
      return i != nullptr && *i >= range_min && *i <= range_max;
    }
  }
  return false;
}

}  // namespace mira::index
