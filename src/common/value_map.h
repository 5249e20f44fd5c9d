// Flat sorted map from an id type to an accumulated value.
//
// The inner loop of every aggregation path in netFilter is "merge my
// <id, value> pairs with my children's and add values for equal ids". A
// sorted vector with a two-pointer merge is both faster and far more
// memory-frugal than a node-based map at the sizes the simulator reaches
// (10^7 instances across 10^3 peers), and it gives deterministic iteration
// order for free — which keeps runs bit-reproducible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"

namespace nf {

template <typename Id, typename Value = std::uint64_t>
class ValueMap {
 public:
  using value_type = std::pair<Id, Value>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  ValueMap() = default;

  /// Builds from unsorted pairs, combining duplicates by summing.
  static ValueMap from_unsorted(std::vector<value_type> pairs) {
    std::sort(pairs.begin(), pairs.end(),
              [](const value_type& a, const value_type& b) {
                return a.first < b.first;
              });
    ValueMap out;
    out.entries_.reserve(pairs.size());
    for (const auto& [id, v] : pairs) {
      if (!out.entries_.empty() && out.entries_.back().first == id) {
        out.entries_.back().second += v;
      } else {
        out.entries_.emplace_back(id, v);
      }
    }
    return out;
  }

  /// Builds from pairs already sorted by id with no duplicates — e.g. the
  /// arena-backed Phase-2 candidate rows, which are written in the sorted
  /// order of the source map they filter. Skips the sort entirely.
  static ValueMap from_sorted(std::span<const value_type> pairs) {
    ValueMap out;
    out.entries_.assign(pairs.begin(), pairs.end());
    ensure(std::is_sorted(out.entries_.begin(), out.entries_.end(),
                          [](const value_type& a, const value_type& b) {
                            return a.first < b.first;
                          }),
           "from_sorted input must be sorted by id");
    return out;
  }

  /// Adds `v` to the value of `id` (inserting if absent). O(1) when `id`
  /// is past every key, so ascending ids build the map in order; otherwise
  /// O(log n) lookup and O(n) insert — use `from_unsorted` or `merge_add`
  /// for bulk building from unordered input.
  void add(Id id, Value v) {
    if (entries_.empty() || entries_.back().first < id) {
      entries_.emplace_back(id, v);
      return;
    }
    auto it = lower_bound(id);
    if (it != entries_.end() && it->first == id) {
      it->second += v;
    } else {
      entries_.emplace(it, id, v);
    }
  }

  /// Merges `other` into this map, summing values of equal ids.
  /// Linear two-pointer merge: O(|this| + |other|).
  void merge_add(const ValueMap& other) {
    std::vector<value_type> merged;
    merged.reserve(entries_.size() + other.entries_.size());
    auto a = entries_.cbegin();
    auto b = other.entries_.cbegin();
    while (a != entries_.cend() && b != other.entries_.cend()) {
      if (a->first < b->first) {
        merged.push_back(*a++);
      } else if (b->first < a->first) {
        merged.push_back(*b++);
      } else {
        merged.emplace_back(a->first, a->second + b->second);
        ++a;
        ++b;
      }
    }
    merged.insert(merged.end(), a, entries_.cend());
    merged.insert(merged.end(), b, other.entries_.cend());
    entries_ = std::move(merged);
  }

  [[nodiscard]] Value value_of(Id id) const {
    auto it = lower_bound(id);
    return (it != entries_.end() && it->first == id) ? it->second : Value{};
  }

  [[nodiscard]] bool contains(Id id) const {
    auto it = lower_bound(id);
    return it != entries_.end() && it->first == id;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const_iterator begin() const { return entries_.cbegin(); }
  [[nodiscard]] const_iterator end() const { return entries_.cend(); }

  /// Sum of all values.
  [[nodiscard]] Value total() const {
    Value t{};
    for (const auto& [id, v] : entries_) t += v;
    return t;
  }

  /// Removes every entry for which `pred(id, value)` is false.
  template <typename Pred>
  void retain(Pred pred) {
    std::erase_if(entries_, [&](const value_type& e) {
      return !pred(e.first, e.second);
    });
  }

  void reserve(std::size_t n) { entries_.reserve(n); }
  void clear() { entries_.clear(); }

  friend bool operator==(const ValueMap&, const ValueMap&) = default;

 private:
  [[nodiscard]] auto lower_bound(Id id) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const value_type& e, Id key) { return e.first < key; });
  }
  [[nodiscard]] auto lower_bound(Id id) const {
    return std::lower_bound(
        entries_.cbegin(), entries_.cend(), id,
        [](const value_type& e, Id key) { return e.first < key; });
  }

  std::vector<value_type> entries_;
};

}  // namespace nf
