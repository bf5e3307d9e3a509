#ifndef MIRA_INDEX_PAYLOAD_H_
#define MIRA_INDEX_PAYLOAD_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <variant>
#include <vector>

namespace mira::index {

/// A payload field value: string, integer or double.
using PayloadValue = std::variant<std::string, int64_t, double>;

/// Structured metadata for a stored vector, in Qdrant's payload model
/// (Algorithm 2 stores "relation ID, attribute name, etc." with each
/// vector). The served paths key vectors by cell index instead, so nothing
/// in `discovery` attaches one.
class Payload {
 public:
  void Set(std::string key, PayloadValue value) {
    fields_[std::move(key)] = std::move(value);
  }
  void SetString(std::string key, std::string value) {
    Set(std::move(key), PayloadValue(std::move(value)));
  }
  void SetInt(std::string key, int64_t value) {
    Set(std::move(key), PayloadValue(value));
  }
  void SetDouble(std::string key, double value) {
    Set(std::move(key), PayloadValue(value));
  }

  /// Typed getters; empty when missing or differently typed.
  std::optional<std::string> GetString(std::string_view key) const;
  std::optional<int64_t> GetInt(std::string_view key) const;
  std::optional<double> GetDouble(std::string_view key) const;

  bool Has(std::string_view key) const {
    return fields_.find(std::string(key)) != fields_.end();
  }
  const PayloadValue* Get(std::string_view key) const;

  size_t size() const { return fields_.size(); }
  auto begin() const { return fields_.begin(); }
  auto end() const { return fields_.end(); }

 private:
  std::map<std::string, PayloadValue> fields_;
};

/// One predicate on a payload field.
struct Condition {
  enum class Kind { kEquals, kIntIn, kIntRange };

  std::string field;
  Kind kind = Kind::kEquals;

  /// kEquals: the value to match exactly.
  PayloadValue equals_value;
  /// kIntIn: accepted integer values.
  std::unordered_set<int64_t> int_set;
  /// kIntRange: inclusive bounds.
  int64_t range_min = 0;
  int64_t range_max = 0;

  static Condition Equals(std::string field, PayloadValue value);
  static Condition IntIn(std::string field, std::vector<int64_t> values);
  static Condition IntRange(std::string field, int64_t min, int64_t max);

  bool Matches(const Payload& payload) const;
};

/// Conjunction of conditions (Qdrant's `must` clause). An empty filter
/// matches everything.
struct Filter {
  std::vector<Condition> must;

  bool Matches(const Payload& payload) const {
    for (const auto& cond : must) {
      if (!cond.Matches(payload)) return false;
    }
    return true;
  }
  bool empty() const { return must.empty(); }
};

}  // namespace mira::index

#endif  // MIRA_INDEX_PAYLOAD_H_
