// Google-benchmark microbenchmarks for the library's hot paths: the
// per-instance costs that bound how large a simulated system fits in a
// given wall-clock budget.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "agg/flat_phases.h"
#include "agg/hierarchy.h"
#include "agg/hll.h"
#include "common/arena.h"
#include "common/hashing.h"
#include "net/codec.h"
#include "common/value_map.h"
#include "common/zipf.h"
#include "core/naive.h"
#include "core/netfilter.h"
#include "net/engine.h"
#include "net/session.h"
#include "net/topology.h"
#include "obs/context.h"
#include "workload/workload.h"

namespace nf {
namespace {

void BM_ZipfSample(benchmark::State& state) {
  const ZipfDistribution zipf(static_cast<std::uint64_t>(state.range(0)),
                              1.0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_GroupHash(benchmark::State& state) {
  const GroupHash h(7, 100);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.group_of(ItemId(fmix64(++i))));
  }
}
BENCHMARK(BM_GroupHash);

// The batch kernel as netFilter runs it: one 192-id block (a perfbench
// peer's local set) hashed under each of range(0) filters. Items are
// hashes, so ns/item compares with BM_GroupHash.
void BM_FilterBankGroups(benchmark::State& state) {
  const FilterBank bank(7, static_cast<std::uint32_t>(state.range(0)), 100);
  std::vector<std::uint64_t> ids(192);
  for (std::size_t k = 0; k < ids.size(); ++k) ids[k] = fmix64(k + 1);
  std::vector<std::uint32_t> groups(ids.size());
  for (auto _ : state) {
    for (const GroupHash& filter : bank.filters()) {
      filter.group_block(ids, groups);
      benchmark::DoNotOptimize(groups.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ids.size()) *
                          state.range(0));
  state.SetLabel(std::string(group_block_path()));
}
BENCHMARK(BM_FilterBankGroups)->Arg(1)->Arg(3)->Arg(10);

// The pair merge behind every typed aggregation, naive's convergecast
// above all: range(0) pairs merged with range(1) pairs. With range(2) = 1
// both sides draw ids from 2·range(0) values, so many ids repeat and are
// summed in place; with 0 they are spread over the 64-bit space.
void BM_ValueMapMergeAdd(benchmark::State& state) {
  const auto na = static_cast<std::uint64_t>(state.range(0));
  const auto nb = static_cast<std::uint64_t>(state.range(1));
  const std::uint64_t universe = state.range(2) != 0 ? 2 * na : 0;
  const auto id = [universe](std::uint64_t i, std::uint64_t seed) {
    const std::uint64_t h = hash64(i, seed);
    return ItemId(universe != 0 ? h % universe : h);
  };
  std::vector<std::pair<ItemId, Value>> pa, pb;
  for (std::uint64_t i = 0; i < na; ++i) pa.emplace_back(id(i, 1), 1);
  for (std::uint64_t i = 0; i < nb; ++i) pb.emplace_back(id(i, 2), 1);
  const auto a = ValueMap<ItemId, Value>::from_unsorted(pa);
  const auto b = ValueMap<ItemId, Value>::from_unsorted(pb);
  for (auto _ : state) {
    auto merged = a;
    merged.merge_add(b);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_ValueMapMergeAdd)
    ->ArgNames({"a", "b", "dups"})
    ->Args({1000, 1000, 0})
    ->Args({10000, 10000, 0})
    ->Args({100000, 100000, 0})
    ->Args({10000, 100, 0})
    ->Args({10000, 10000, 1});

void BM_HllInsert(benchmark::State& state) {
  agg::HyperLogLog hll(12);
  std::uint64_t i = 0;
  for (auto _ : state) {
    hll.insert(ItemId(++i));
  }
}
BENCHMARK(BM_HllInsert);

void BM_LocalGroupAggregates(benchmark::State& state) {
  wl::WorkloadConfig wc;
  wc.num_peers = 10;
  wc.num_items = 100000;
  const auto workload = wl::Workload::generate(wc);
  core::NetFilterConfig cfg;
  cfg.num_groups = 100;
  cfg.num_filters = static_cast<std::uint32_t>(state.range(0));
  const core::NetFilter nf(cfg);
  const auto& items = workload.local_items(PeerId(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nf.local_group_aggregates(items));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items.size()));
}
BENCHMARK(BM_LocalGroupAggregates)->Arg(1)->Arg(3)->Arg(5);

// Phase-1 group aggregation at its perfbench shape: f = 5, g = 100, local
// sets of ~192 items (4 000 peers, 10^5 items), 64 peers per iteration —
// the per-peer work one query's filtering convergecast does.
void BM_LocalGroupAggregatesQuery(benchmark::State& state) {
  wl::WorkloadConfig wc;
  wc.num_peers = 4000;
  wc.num_items = 100000;
  const auto workload = wl::Workload::generate(wc);
  core::NetFilterConfig cfg;
  cfg.num_groups = 100;
  cfg.num_filters = 5;
  const core::NetFilter nf(cfg);
  std::vector<Value> row(std::size_t{cfg.num_filters} * cfg.num_groups);
  constexpr std::uint32_t kPeers = 64;
  std::int64_t items = 0;
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    items += static_cast<std::int64_t>(workload.local_items(PeerId(p)).size());
  }
  for (auto _ : state) {
    for (std::uint32_t p = 0; p < kPeers; ++p) {
      nf.local_group_aggregates_into(workload.local_items(PeerId(p)), row);
      benchmark::DoNotOptimize(row.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          items);
  state.SetLabel(std::string(group_block_path()));
}
BENCHMARK(BM_LocalGroupAggregatesQuery);

// Phase-2 candidate materialization at its perfbench shape: f = 5, g = 100,
// local sets of ~192 items (4 000 peers, 10^5 items, 10 instances each).
// Arg: percent of each filter's groups that are heavy (perfbench's filters
// keep 16-30 %), drawn at random so the heavy bits carry no pattern.
void BM_MaterializeCandidates(benchmark::State& state) {
  wl::WorkloadConfig wc;
  wc.num_peers = 4000;
  wc.num_items = 100000;
  const auto workload = wl::Workload::generate(wc);
  core::NetFilterConfig cfg;
  cfg.num_groups = 100;
  cfg.num_filters = 5;
  const core::NetFilter nf(cfg);
  Rng rng(23);
  core::HeavyGroupSet heavy(cfg.num_filters, cfg.num_groups);
  for (std::uint32_t i = 0; i < cfg.num_filters; ++i) {
    for (std::uint32_t j = 0; j < cfg.num_groups; ++j) {
      if (rng.below(100) < static_cast<std::uint64_t>(state.range(0))) {
        heavy.set(i, j);
      }
    }
  }
  constexpr std::uint32_t kPeers = 64;
  std::int64_t items = 0;
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    items += static_cast<std::int64_t>(workload.local_items(PeerId(p)).size());
  }
  for (auto _ : state) {
    for (std::uint32_t p = 0; p < kPeers; ++p) {
      benchmark::DoNotOptimize(
          nf.materialize_candidates(workload.local_items(PeerId(p)), heavy));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          items);
}
BENCHMARK(BM_MaterializeCandidates)->Arg(16)->Arg(30);

// The filtering encode: one f×g row into a warmed slab, as a convergecast
// member sends it. Second arg is the percent of multi-byte lanes: 3 is
// the filtering shape (~97 % of perfbench's lanes are one byte), 100 puts
// every lane on the write_varint path.
void BM_VarintEncodeAggregates(benchmark::State& state) {
  Rng rng(9);
  std::vector<Value> values(static_cast<std::size_t>(state.range(0)));
  const auto multi_pct = static_cast<std::uint64_t>(state.range(1));
  for (auto& v : values) {
    v = rng.below(100) < multi_pct ? 128 + rng.below(100000) : rng.below(128);
  }
  net::SlabArena slab;
  for (auto _ : state) {
    slab.reset();
    net::PayloadWriter w(slab, 0);
    net::encode_aggregates_to(w, values);
    benchmark::DoNotOptimize(w.finish());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_VarintEncodeAggregates)->Args({500, 3})->Args({500, 100});

// The convergecast merge kernel: a held child's encoded aggregate vector
// folded into the parent's scratch row. Second arg caps the values — < 128 keeps every
// varint at one byte (the SWAR fast path in add_aggregates_from), large
// values force the scalar get_varint loop, so the pair bounds the win.
void BM_VarintAddAggregates(benchmark::State& state) {
  Rng rng(9);
  std::vector<Value> values(static_cast<std::size_t>(state.range(0)));
  for (auto& v : values) {
    v = rng.below(static_cast<std::uint64_t>(state.range(1)));
  }
  const net::Bytes encoded = net::encode_aggregates(values);
  std::vector<std::uint64_t> acc(values.size(), 0);
  for (auto _ : state) {
    net::add_aggregates_from(encoded, acc);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_VarintAddAggregates)
    ->Args({300, 100})
    ->Args({300, 1000000})
    ->Args({3000, 100})
    ->Args({3000, 1000000});

// One engine run of netFilter's filtering convergecast at its perfbench
// shape: 4 000 peers on a fanout-3 random tree, f×g = 500 lanes. Each
// iteration runs a fresh phase on a warmed engine, as every query does:
// byte-store reservation, held payloads, one merge per member, the encode.
void BM_FlatAggregateConvergecast(benchmark::State& state) {
  constexpr std::uint32_t kPeers = 4000;
  constexpr std::uint32_t kWidth = 500;
  Rng rng(17);
  net::Overlay overlay(net::random_tree(kPeers, 3, rng));
  net::TrafficMeter meter(overlay.num_peers());
  const agg::Hierarchy hierarchy =
      agg::build_bfs_hierarchy(overlay, PeerId(0));
  net::Engine engine(overlay, meter, {});
  for (auto _ : state) {
    agg::FlatAggregateConvergecastPhase cast(
        hierarchy, net::TrafficCategory::kFiltering, kWidth,
        [](PeerId p, std::span<std::uint64_t> out) {
          for (std::uint32_t j = 0; j < kWidth; ++j) {
            out[j] = (p.value() + j) % 7;
          }
        },
        /*flat_bytes=*/0);
    net::run_phase(engine, cast, net::kStandaloneConvergecast, 100);
    benchmark::DoNotOptimize(cast.result().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPeers);
}
BENCHMARK(BM_FlatAggregateConvergecast)->Unit(benchmark::kMillisecond);

// One NaiveCollector::run at a fifth of the perfbench naive_collect shape:
// 2 000 peers on a fanout-3 random tree, 2·10^5 item instances. A run
// builds its own engine, so this times set-up plus the typed convergecast:
// members' own items read in place, one merged map per internal member.
void BM_NaiveCollect(benchmark::State& state) {
  constexpr std::uint32_t kPeers = 2000;
  wl::WorkloadConfig wc;
  wc.num_peers = kPeers;
  wc.num_items = 20000;
  const wl::Workload workload = wl::Workload::generate(wc);
  Rng rng(19);
  net::Overlay overlay(net::random_tree(kPeers, 3, rng));
  net::TrafficMeter meter(overlay.num_peers());
  const agg::Hierarchy hierarchy =
      agg::build_bfs_hierarchy(overlay, PeerId(0));
  const Value threshold = workload.threshold_for(0.01);
  const core::NaiveCollector naive{WireSizes{}};
  for (auto _ : state) {
    const core::NaiveResult r =
        naive.run(workload, hierarchy, overlay, meter, threshold);
    benchmark::DoNotOptimize(r.frequent.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPeers);
}
BENCHMARK(BM_NaiveCollect)->Unit(benchmark::kMillisecond);

void BM_DeltaEncodePairs(benchmark::State& state) {
  std::vector<std::pair<ItemId, Value>> pairs;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    pairs.emplace_back(ItemId(hash64(static_cast<std::uint64_t>(i), 1)), 3);
  }
  const auto map = ValueMap<ItemId, Value>::from_unsorted(pairs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode_pairs(map));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DeltaEncodePairs)->Arg(1000)->Arg(10000);

void BM_CodecRoundTripPairs(benchmark::State& state) {
  std::vector<std::pair<ItemId, Value>> pairs;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    pairs.emplace_back(ItemId(hash64(static_cast<std::uint64_t>(i), 2)), 7);
  }
  const auto map = ValueMap<ItemId, Value>::from_unsorted(pairs);
  const auto encoded = net::encode_pairs(map);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_pairs(encoded));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CodecRoundTripPairs)->Arg(1000)->Arg(10000);

// Args: {N peers, n items}, 10 instances per item. {4000, 10^5} is the
// perfbench lossy_multiquery data set, whose set-up time is mostly this.
void BM_WorkloadGenerate(benchmark::State& state) {
  for (auto _ : state) {
    wl::WorkloadConfig wc;
    wc.num_peers = static_cast<std::uint32_t>(state.range(0));
    wc.num_items = static_cast<std::uint64_t>(state.range(1));
    benchmark::DoNotOptimize(wl::Workload::generate(wc));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1) * 10);
}
BENCHMARK(BM_WorkloadGenerate)
    ->Args({100, 10000})
    ->Args({100, 100000})
    ->Args({4000, 100000})
    ->Unit(benchmark::kMillisecond);

// --- per-peer state fixtures: PeerArena vs the node-based maps it replaced.
// Protocols keep per-peer state for every peer in a fixed [0, N) id space;
// the access pattern that matters is delivery order, which is effectively
// scattered across peers. Each iteration does one read-modify-write per peer
// in a hashed (scattered) order, so the three fixtures differ only in the
// container: dense arena slot vs tree map vs hash map.

void BM_PeerStateArena(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  PeerArena<std::uint64_t> arena(n, 0);
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto p = static_cast<std::uint32_t>(fmix64(i) % n);
      arena[PeerId(p)] += i;
    }
    benchmark::DoNotOptimize(arena.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PeerStateArena)->Arg(1000)->Arg(10000);

void BM_PeerStateTreeMap(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::map<std::uint32_t, std::uint64_t> peers;
  for (std::uint32_t p = 0; p < n; ++p) peers.emplace(p, 0);
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto p = static_cast<std::uint32_t>(fmix64(i) % n);
      peers[p] += i;
    }
    benchmark::DoNotOptimize(peers);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PeerStateTreeMap)->Arg(1000)->Arg(10000);

void BM_PeerStateHashMap(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::unordered_map<std::uint32_t, std::uint64_t> peers;
  peers.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) peers.emplace(p, 0);
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto p = static_cast<std::uint32_t>(fmix64(i) % n);
      peers[p] += i;
    }
    benchmark::DoNotOptimize(peers);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PeerStateHashMap)->Arg(1000)->Arg(10000);

// --- obs fixtures: the cost of instrumentation on hot paths. ---------------
// The disabled variants measure the single-branch tax paid by every
// instrumented site when no obs::Context is attached (the acceptance bar is
// < 5% on protocol hot paths); the enabled variants document what turning
// tracing on costs.

void BM_ObsCounterDisabled(benchmark::State& state) {
  obs::Context* ctx = nullptr;
  benchmark::DoNotOptimize(ctx);  // the null check must really happen
  for (auto _ : state) {
    obs::add_counter(ctx, "bench/counter");
  }
}
BENCHMARK(BM_ObsCounterDisabled);

void BM_ObsCounterEnabled(benchmark::State& state) {
  obs::Context ctx;
  obs::Context* p = &ctx;
  benchmark::DoNotOptimize(p);
  for (auto _ : state) {
    obs::add_counter(p, "bench/counter");  // includes the name lookup
  }
}
BENCHMARK(BM_ObsCounterEnabled);

void BM_ObsCounterHandle(benchmark::State& state) {
  obs::Context ctx;
  obs::Counter& c = ctx.registry.counter("bench/counter");
  for (auto _ : state) {
    c.add(1);  // the cached-handle pattern the Engine constructor sets up
  }
}
BENCHMARK(BM_ObsCounterHandle);

void BM_ObsHistogramEnabled(benchmark::State& state) {
  obs::Context ctx;
  obs::Histogram& h = ctx.registry.histogram("bench/bytes");
  std::uint64_t v = 0;
  for (auto _ : state) {
    h.observe(++v);
  }
}
BENCHMARK(BM_ObsHistogramEnabled);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::Context* ctx = nullptr;
  benchmark::DoNotOptimize(ctx);
  for (auto _ : state) {
    obs::ScopedPhase phase(ctx, "bench.phase");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::Context ctx;
  for (auto _ : state) {
    obs::ScopedPhase phase(&ctx, "bench.phase");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_ObsTraceEvent(benchmark::State& state) {
  obs::Context ctx(/*trace_capacity=*/4096);
  std::uint64_t v = 0;
  for (auto _ : state) {
    ctx.tracer.record(obs::EventKind::kMark, "bench.mark", obs::kNoPeer, ++v);
  }
}
BENCHMARK(BM_ObsTraceEvent);

}  // namespace
}  // namespace nf

BENCHMARK_MAIN();
