#include "workload/workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/error.h"
#include "common/hashing.h"

namespace nf::wl {

void WorkloadConfig::validate() const {
  require(num_peers >= 1, "need at least one peer");
  require(num_items >= 1, "need at least one item");
  require(instances_per_item > 0.0, "instances_per_item must be positive");
  require(alpha >= 0.0, "alpha must be non-negative");
}

namespace {

/// Widest radix digit: a pass's 2^11 counters (16 KB) fit in L1.
constexpr unsigned kMaxDigitBits = 11;

/// Stable LSD radix sort of the `size` elements at `data` by the low `bits`
/// bits of `key(element)`, in the fewest passes of at most kMaxDigitBits
/// equal-width digits. One counting pass fills every digit's histogram
/// (reused across calls in `hist`). `tmp` must hold `size` elements;
/// returns whichever of the two buffers holds the sorted output.
template <typename T, typename Key>
T* radix_sort(T* data, T* tmp, std::size_t size, unsigned bits, Key key,
              std::vector<std::size_t>& hist) {
  if (bits == 0 || size < 2) return data;
  const unsigned passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned digit = (bits + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << digit;
  const std::uint64_t mask = radix - 1;
  hist.assign(passes * radix, 0);
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint64_t k = key(data[i]);
    for (unsigned pass = 0; pass < passes; ++pass) {
      ++hist[pass * radix + ((k >> (pass * digit)) & mask)];
    }
  }
  for (unsigned pass = 0; pass < passes; ++pass) {
    std::size_t* const count = hist.data() + pass * radix;
    const unsigned shift = pass * digit;
    std::size_t offset = 0;
    for (std::size_t d = 0; d < radix; ++d) {
      const std::size_t c = count[d];
      count[d] = offset;
      offset += c;
    }
    for (std::size_t i = 0; i < size; ++i) {
      tmp[count[(key(data[i]) >> shift) & mask]++] = data[i];
    }
    std::swap(data, tmp);
  }
  return data;
}

}  // namespace

ItemId item_id_for_rank(std::uint64_t rank, std::uint64_t seed) {
  return ItemId(hash64(rank, seed ^ 0x1D3A5B7C9E0F2468ull));
}

Workload Workload::generate(const WorkloadConfig& config) {
  config.validate();
  Rng rng(config.seed);
  const ZipfDistribution zipf(config.num_items, config.alpha);
  const auto total_instances = static_cast<std::uint64_t>(
      config.instances_per_item * static_cast<double>(config.num_items));

  // Every rank's item id is hashed once, here, and the n (id, rank) pairs
  // are sorted by id once: a rank's slot is its id's position in ascending
  // id order, so sorting a peer's slots sorts its item ids. The ids are
  // distinct because hash64 is a bijection of the rank.
  require(config.num_items <= 0xFFFFFFFFull, "num_items exceeds u32 ranks");
  std::vector<std::size_t> hist;
  std::vector<std::uint64_t> id_of_slot(config.num_items);
  std::vector<std::uint32_t> slot_of_rank(config.num_items);
  {
    using IdRank = std::pair<std::uint64_t, std::uint32_t>;
    std::vector<IdRank> by_id(config.num_items);
    std::vector<IdRank> tmp(config.num_items);
    for (std::uint32_t r = 0; r < config.num_items; ++r) {
      by_id[r] = {item_id_for_rank(r + 1, config.seed).value(), r};
    }
    const IdRank* const sorted =
        radix_sort(by_id.data(), tmp.data(), by_id.size(), 64,
                   [](const IdRank& e) { return e.first; }, hist);
    for (std::uint32_t s = 0; s < config.num_items; ++s) {
      id_of_slot[s] = sorted[s].first;
      slot_of_rank[sorted[s].second] = s;
    }
  }

  // Draw each instance's (rank, peer) and bucket the rank's slot per peer.
  // Slots are 32-bit, so the transient footprint stays at 4 bytes per
  // instance (10^7 instances at n = 10^6).
  std::vector<std::vector<std::uint32_t>> raw(config.num_peers);
  const std::uint64_t expected_per_peer =
      total_instances / config.num_peers + 1;
  for (auto& bucket : raw) bucket.reserve(expected_per_peer);
  std::uint64_t sampled_instances = total_instances;
  if (config.min_one_instance && total_instances >= config.num_items) {
    // One guaranteed instance per item at a random peer, so the data set
    // really contains n distinct items; the rest follow the Zipf shape.
    for (std::uint64_t rank = 1; rank <= config.num_items; ++rank) {
      raw[rng.below(config.num_peers)].push_back(slot_of_rank[rank - 1]);
    }
    sampled_instances -= config.num_items;
  }
  for (std::uint64_t i = 0; i < sampled_instances; ++i) {
    const std::uint64_t rank = zipf(rng);
    const auto peer = static_cast<std::uint32_t>(
        rng.below(config.num_peers));
    raw[peer].push_back(slot_of_rank[rank - 1]);
  }

  // Compaction needs only id_of_slot: free the rank table before the maps
  // grow.
  std::vector<std::uint32_t>().swap(slot_of_rank);

  // Compact each bucket: sort its slots, count each run, and append the
  // runs' (id, count) pairs — already in ascending id order, so the map is
  // built by appends into exactly its size, with no hash and no second
  // sort. Ground truth is a dense count per slot, walked once at the end.
  Workload out;
  out.local_.resize(config.num_peers);
  std::vector<Value> global_by_slot(config.num_items, 0);
  std::vector<std::uint32_t> scratch;
  const auto slot_bits =
      static_cast<unsigned>(std::bit_width(config.num_items - 1));
  for (std::uint32_t p = 0; p < config.num_peers; ++p) {
    auto& bucket = raw[p];
    const std::size_t size = bucket.size();
    if (size > 0) {
      if (scratch.size() < size) scratch.resize(size);
      const std::uint32_t* const slots =
          radix_sort(bucket.data(), scratch.data(), size, slot_bits,
                     [](std::uint32_t s) { return s; }, hist);
      std::size_t distinct = 1;
      for (std::size_t i = 1; i < size; ++i) {
        distinct += slots[i] != slots[i - 1];
      }
      LocalItems& local = out.local_[p];
      local.reserve(distinct);
      for (std::size_t i = 0; i < size;) {
        std::size_t j = i + 1;
        while (j < size && slots[j] == slots[i]) ++j;
        const Value count = j - i;
        global_by_slot[slots[i]] += count;
        local.add(ItemId(id_of_slot[slots[i]]), count);
        i = j;
      }
      out.total_ += size;
    }
    bucket.clear();
    bucket.shrink_to_fit();
  }

  const auto occurring = static_cast<std::size_t>(
      std::count_if(global_by_slot.begin(), global_by_slot.end(),
                    [](Value v) { return v > 0; }));
  out.global_.reserve(occurring);
  for (std::uint32_t s = 0; s < config.num_items; ++s) {
    if (global_by_slot[s] > 0) {
      out.global_.add(ItemId(id_of_slot[s]), global_by_slot[s]);
    }
  }
  ensure(out.total_ == out.global_.total(), "ground truth total mismatch");
  return out;
}

Workload Workload::from_local_sets(std::vector<LocalItems> local_sets) {
  require(!local_sets.empty(), "need at least one peer");
  Workload out;
  out.local_ = std::move(local_sets);
  // One sort of every peer's pairs; sums of equal ids commute, so this is
  // the fold of merge_add over the peers, without its O(N·|global|) cost.
  std::size_t pairs_total = 0;
  for (const auto& local : out.local_) pairs_total += local.size();
  std::vector<std::pair<ItemId, Value>> pairs;
  pairs.reserve(pairs_total);
  for (const auto& local : out.local_) {
    pairs.insert(pairs.end(), local.begin(), local.end());
  }
  out.global_ = ValueMap<ItemId, Value>::from_unsorted(std::move(pairs));
  out.total_ = out.global_.total();
  return out;
}

const LocalItems& Workload::local_items(PeerId p) const {
  require(p.value() < local_.size(), "peer out of range");
  return local_[p.value()];
}

Value Workload::threshold_for(double theta) const {
  require(theta > 0.0 && theta <= 1.0, "theta must be in (0,1]");
  return static_cast<Value>(
      std::ceil(theta * static_cast<double>(total_)));
}

ValueMap<ItemId, Value> Workload::frequent_items(Value threshold) const {
  ValueMap<ItemId, Value> out = global_;
  out.retain([&](ItemId, Value v) { return v >= threshold; });
  return out;
}

double Workload::avg_local_distinct() const {
  double sum = 0.0;
  for (const auto& local : local_) sum += static_cast<double>(local.size());
  return sum / static_cast<double>(local_.size());
}

double Workload::avg_global_value() const {
  if (global_.empty()) return 0.0;
  return static_cast<double>(total_) / static_cast<double>(global_.size());
}

double Workload::avg_light_value(Value threshold) const {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& [id, v] : global_) {
    if (v < threshold) {
      sum += static_cast<double>(v);
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace nf::wl
