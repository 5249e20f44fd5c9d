// Flat sorted map from an id type to an accumulated value.
//
// The inner loop of every aggregation path in netFilter is "merge my
// <id, value> pairs with my children's and add values for equal ids". A
// sorted vector with a linear merge is both faster and far more
// memory-frugal than a node-based map at the sizes the simulator reaches
// (10^7 instances across 10^3 peers), and it gives deterministic iteration
// order for free — which keeps runs bit-reproducible. The merge itself
// (`merged`, which `merge_add` wraps) is branch-free and runs from both
// ends of its output at once; see its comment.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/uninit_allocator.h"

namespace nf {

template <typename Id, typename Value = std::uint64_t>
class ValueMap {
 public:
  using value_type = std::pair<Id, Value>;

 private:
  using Storage = std::vector<value_type, detail::UninitAllocator<value_type>>;

 public:
  using const_iterator = typename Storage::const_iterator;

  ValueMap() = default;

  /// Builds from unsorted pairs, combining duplicates by summing. The
  /// duplicates are summed in place, so the map holds exactly its distinct
  /// ids however many pairs repeat them.
  static ValueMap from_unsorted(std::vector<value_type> pairs) {
    std::sort(pairs.begin(), pairs.end(),
              [](const value_type& a, const value_type& b) {
                return a.first < b.first;
              });
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (distinct > 0 && pairs[distinct - 1].first == pairs[i].first) {
        pairs[distinct - 1].second += pairs[i].second;
      } else {
        pairs[distinct++] = pairs[i];
      }
    }
    ValueMap out;
    out.entries_.assign(pairs.begin(),
                        pairs.begin() + static_cast<std::ptrdiff_t>(distinct));
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

  /// Merges `other` into this map, summing values of equal ids: `merged`
  /// into a fresh buffer that then replaces this map's.
  void merge_add(const ValueMap& other) {
    if (other.empty()) return;
    *this = merged(*this, other);
  }

  /// The merge of `lhs` and `rhs`, summing values of equal ids; neither
  /// input changes, and both may be one map. O(|lhs| + |rhs|), and
  /// branch-free where it matters: two merge chains run in one loop, the
  /// front one writing ascending ids from the start of the output, the back
  /// one descending ids from its end. Each
  /// chain picks its next pair and sums equal ids with 0/1 predicates, so
  /// no step depends on a data-dependent branch, and the two independent
  /// chains halve the load→compare→advance dependency per output pair.
  /// The loop runs in batches of min(remaining in either input) / 2 steps:
  /// a step takes at most one pair from each end of each input, so both
  /// chains always read distinct pairs and no bound is checked per step.
  /// When fewer than two pairs remain on one side, a scalar pass merges
  /// what is left onto the front output and the back output is moved down
  /// behind it.
  [[nodiscard]] static ValueMap merged(const ValueMap& lhs,
                                       const ValueMap& rhs) {
    const std::size_t n = lhs.entries_.size();
    const std::size_t m = rhs.entries_.size();
    if (m == 0) return lhs;
    if (n == 0) return rhs;
    ValueMap result;
    Storage& merged = result.entries_;
    merged.resize(n + m);  // uninitialized: every kept slot is written
    value_type* const out = merged.data();
    value_type* front = out;
    value_type* back = out + n + m;  // one past the next back write
    const value_type* a = lhs.entries_.data();
    const value_type* a_end = a + n;  // one past A's last unmerged pair
    const value_type* b = rhs.entries_.data();
    const value_type* b_end = b + m;
    for (;;) {
      const std::size_t steps =
          static_cast<std::size_t>(std::min(a_end - a, b_end - b)) / 2;
      if (steps == 0) break;
      for (std::size_t i = 0; i < steps; ++i) {
        // Front chain: the smaller head, or both heads on equal ids.
        const Key fka = a->first.value();
        const Key fkb = b->first.value();
        const bool fa = fka <= fkb;
        const bool fb = fkb <= fka;
        *front++ = value_type(Id(select(fa, fka, fkb)),
                              combine(a->second, b->second, fa, fb));
        // Back chain: the larger tail, or both tails on equal ids.
        const Key bka = a_end[-1].first.value();
        const Key bkb = b_end[-1].first.value();
        const bool ba = bka >= bkb;
        const bool bb = bkb >= bka;
        *--back = value_type(
            Id(select(ba, bka, bkb)),
            combine(a_end[-1].second, b_end[-1].second, ba, bb));
        a += fa;
        b += fb;
        a_end -= ba;
        b_end -= bb;
      }
    }
    while (a != a_end && b != b_end) {
      if (a->first < b->first) {
        *front++ = *a++;
      } else if (b->first < a->first) {
        *front++ = *b++;
      } else {
        *front++ = value_type(a->first, a->second + b->second);
        ++a;
        ++b;
      }
    }
    front = std::copy(a, a_end, front);
    front = std::copy(b, b_end, front);
    const auto back_size = static_cast<std::size_t>(out + n + m - back);
    if (front != back) std::copy(back, out + n + m, front);
    merged.resize(static_cast<std::size_t>(front - out) + back_size);
    return result;
  }

  /// Merges a stream of `count` pairs into this map, summing values of
  /// equal ids: `next()` yields them one at a time in strictly ascending id
  /// order (the caller's invariant). This is `merge_add` for a source that
  /// is read once and front to back, such as a decoder over wire bytes, so
  /// the source never becomes a map of its own. The merge writes into a
  /// fresh buffer and swaps it in only after the last pair, so if `next()`
  /// throws the map is unchanged.
  template <typename Next>
  void merge_add_sorted(std::size_t count, Next next) {
    if (count == 0) return;
    const std::size_t n = entries_.size();
    Storage merged;
    merged.resize(n + count);  // uninitialized: every kept slot is written
    value_type* out = merged.data();
    const value_type* a = entries_.data();
    const value_type* const a_end = a + n;
    for (std::size_t i = 0; i < count; ++i) {
      const value_type b = next();
      while (a != a_end && a->first < b.first) *out++ = *a++;
      if (a != a_end && a->first == b.first) {
        *out++ = value_type(b.first, a->second + b.second);
        ++a;
      } else {
        *out++ = b;
      }
    }
    out = std::copy(a, a_end, out);
    merged.resize(static_cast<std::size_t>(out - merged.data()));
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

  /// The raw key ids compare and select as: ids wrap an unsigned integer.
  using Key = decltype(std::declval<const Id&>().value());
  static_assert(std::is_unsigned_v<Key>, "ValueMap ids wrap unsigned keys");

  /// Values are counts: masks and sums below assume unsigned wraparound.
  static_assert(std::is_unsigned_v<Value> && std::is_integral_v<Value>,
                "ValueMap values are unsigned integers");

  /// `c ? x : y` by masking the bits, so it compiles to no branch.
  template <typename T>
  [[nodiscard]] static T select(bool c, T x, T y) {
    return y ^ ((x ^ y) & (T{0} - static_cast<T>(c)));
  }

  /// The value of one merge step's output: `va + vb` when both inputs
  /// hold its id, else whichever one does (a masked-out side adds 0).
  [[nodiscard]] static Value combine(Value va, Value vb, bool ta, bool tb) {
    return (va & (Value{0} - static_cast<Value>(ta))) +
           (vb & (Value{0} - static_cast<Value>(tb)));
  }

  Storage entries_;
};

}  // namespace nf
