#include "exec/join.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "storage/encoding.h"

namespace fabric::exec {

using storage::DataType;
using storage::FloatDisplayKey;
using storage::Lanes;
using storage::LaneRows;

namespace {

constexpr uint32_t kNone = UINT32_MAX;

// Matching (left row, right row) pairs in output order.
struct Pairs {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;
};

// Hash join on keys of type Key: the right side builds per-key chains in
// arrival order, the left side probes in order.
template <typename Key, typename LeftKey, typename RightKey>
void Match(const Lanes& l, const Lanes& r, LeftKey&& left_key,
           RightKey&& right_key, Pairs* out) {
  std::unordered_map<Key, uint32_t> head;
  head.reserve(r.size());
  std::vector<uint32_t> next(r.size(), kNone);
  for (size_t i = r.size(); i-- > 0;) {
    if (r.IsNull(i)) continue;
    const uint32_t row = static_cast<uint32_t>(i);
    auto [it, inserted] = head.try_emplace(right_key(i), row);
    if (!inserted) {
      next[i] = it->second;
      it->second = row;
    }
  }
  for (size_t i = 0; i < l.size(); ++i) {
    if (l.IsNull(i)) continue;
    auto it = head.find(left_key(i));
    if (it == head.end()) continue;
    for (uint32_t j = it->second; j != kNone; j = next[j]) {
      out->left.push_back(static_cast<uint32_t>(i));
      out->right.push_back(j);
    }
  }
}

// Display strings of every non-null row (the mixed-type key).
std::vector<std::string> DisplayKeys(const Lanes& lane) {
  std::vector<std::string> keys(lane.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!lane.IsNull(i)) lane.AppendDisplay(i, &keys[i]);
  }
  return keys;
}

Pairs MatchKeys(const Lanes& l, const Lanes& r) {
  Pairs pairs;
  if (!l.is_boxed() && !r.is_boxed() && l.type == r.type) {
    switch (l.type) {
      case DataType::kBool:
        Match<uint8_t>(
            l, r, [&](size_t i) { return l.values.bools[i]; },
            [&](size_t i) { return r.values.bools[i]; }, &pairs);
        return pairs;
      case DataType::kInt64:
        Match<int64_t>(
            l, r, [&](size_t i) { return l.values.ints[i]; },
            [&](size_t i) { return r.values.ints[i]; }, &pairs);
        return pairs;
      case DataType::kFloat64:
        Match<uint64_t>(
            l, r,
            [&](size_t i) { return FloatDisplayKey(l.values.doubles[i]); },
            [&](size_t i) { return FloatDisplayKey(r.values.doubles[i]); },
            &pairs);
        return pairs;
      case DataType::kVarchar:
        Match<std::string_view>(
            l, r,
            [&](size_t i) { return std::string_view(l.values.strings[i]); },
            [&](size_t i) { return std::string_view(r.values.strings[i]); },
            &pairs);
        return pairs;
    }
  }
  const std::vector<std::string> lkeys = DisplayKeys(l);
  const std::vector<std::string> rkeys = DisplayKeys(r);
  Match<std::string_view>(
      l, r, [&](size_t i) { return std::string_view(lkeys[i]); },
      [&](size_t i) { return std::string_view(rkeys[i]); }, &pairs);
  return pairs;
}

}  // namespace

LaneRows EquiJoin(const LaneRows& left, int left_key,
                  const std::vector<int>& left_out, const LaneRows& right,
                  int right_key, const std::vector<int>& right_out) {
  const Pairs pairs =
      MatchKeys(left.columns[left_key], right.columns[right_key]);
  LaneRows out;
  out.num_rows = pairs.left.size();
  out.columns.reserve(left_out.size() + right_out.size());
  for (int c : left_out) {
    out.columns.emplace_back(left.columns[c].type);
    out.columns.back().AppendTaken(left.columns[c], pairs.left);
  }
  for (int c : right_out) {
    out.columns.emplace_back(right.columns[c].type);
    out.columns.back().AppendTaken(right.columns[c], pairs.right);
  }
  return out;
}

}  // namespace fabric::exec
