// The lossy-link model and its reliability layer (net/engine.h).
#include <gtest/gtest.h>

#include "agg/convergecast.h"
#include "core/netfilter.h"
#include "net/session.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace nf::net {
namespace {

Overlay make_line(std::uint32_t n) {
  Topology t(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  return Overlay(std::move(t));
}

LinkFaultModel lossy(double p, std::uint64_t seed = 7) {
  LinkFaultModel m;
  m.loss_probability = p;
  m.seed = seed;
  return m;
}

TEST(FaultModelTest, ZeroLossKeepsExactByteAccounting) {
  // The reliability layer must stay out of the way when disabled: no ACKs,
  // no retransmissions, byte counts identical to the plain engine.
  Overlay overlay = make_line(5);
  TrafficMeter meter(5);
  Engine engine(overlay, meter, {});
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  agg::ConvergecastPhase<std::uint64_t> cast(
      h, TrafficCategory::kFiltering, [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  run_phase(engine, cast, kStandaloneConvergecast, 100);
  EXPECT_EQ(cast.result(), 5u);
  EXPECT_EQ(meter.total(), 4u * 4);  // 4 messages, nothing else
  EXPECT_EQ(engine.retransmissions(), 0u);
  EXPECT_EQ(engine.lost_transmissions(), 0u);
}

TEST(FaultModelTest, ConvergecastSurvivesHeavyLoss) {
  Rng rng(1);
  Overlay overlay(random_connected(60, 4.0, rng));
  TrafficMeter meter(60);
  Engine engine(overlay, meter, {.fault = lossy(0.3)});
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  agg::ConvergecastPhase<std::uint64_t> cast(
      h, TrafficCategory::kFiltering,
      [](PeerId p) { return std::uint64_t{p.value()} + 1; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  run_phase(engine, cast, kStandaloneConvergecast, 2000);
  ASSERT_TRUE(cast.complete());
  std::uint64_t expect = 0;
  for (std::uint32_t p = 0; p < 60; ++p) expect += p + 1;
  EXPECT_EQ(cast.result(), expect);  // exactly once, despite loss
  EXPECT_GT(engine.lost_transmissions(), 0u);
  EXPECT_GT(engine.retransmissions(), 0u);
}

TEST(FaultModelTest, NetFilterStaysExactOverLossyLinks) {
  wl::WorkloadConfig wc;
  wc.num_peers = 50;
  wc.num_items = 3000;
  wc.seed = 2;
  const wl::Workload workload = wl::Workload::generate(wc);
  Rng rng(3);
  Overlay overlay(random_tree(50, 3, rng));
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  const Value t = workload.threshold_for(0.01);

  core::NetFilterConfig cfg;
  cfg.num_groups = 32;
  cfg.num_filters = 2;
  const core::NetFilter nf(cfg);

  // The driver constructs its own engines internally, so run phases
  // manually over a lossy engine via the phase APIs.
  TrafficMeter meter(50);
  Engine engine(overlay, meter, {.fault = lossy(0.2)});
  // filter_candidates/verify_candidates construct internal engines; to
  // exercise loss end-to-end use the building blocks directly instead.
  agg::ConvergecastPhase<std::vector<Value>> phase1(
      h, TrafficCategory::kFiltering,
      [&](PeerId p) {
        return nf.local_group_aggregates(workload.local_items(p));
      },
      [](std::vector<Value>& a, std::vector<Value>&& b) {
        for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
      },
      [](const std::vector<Value>&) { return std::uint64_t{256}; });
  run_phase(engine, phase1, kStandaloneConvergecast, 5000);
  ASSERT_TRUE(phase1.complete());

  const core::HeavyGroupSet heavy(phase1.result(), 2, 32, t);
  agg::ConvergecastPhase<LocalItems> phase2(
      h, TrafficCategory::kAggregation,
      [&](PeerId p) {
        return nf.materialize_candidates(workload.local_items(p), heavy);
      },
      [](LocalItems& a, LocalItems&& b) { a.merge_add(b); },
      [](const LocalItems& m) { return m.size() * 8; });
  run_phase(engine, phase2, kStandaloneConvergecast, 5000);
  ASSERT_TRUE(phase2.complete());
  LocalItems frequent = phase2.result();
  frequent.retain([&](ItemId, Value v) { return v >= t; });
  EXPECT_EQ(frequent, workload.frequent_items(t));
}

TEST(FaultModelTest, LossCostsBytesAndRounds) {
  auto run_at = [](double p) {
    Rng rng(4);
    Overlay overlay(random_connected(40, 4.0, rng));
    TrafficMeter meter(40);
    Engine engine(overlay, meter,
                  {.fault = p > 0 ? lossy(p) : LinkFaultModel{}});
    const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
    agg::ConvergecastPhase<std::uint64_t> cast(
        h, TrafficCategory::kFiltering,
        [](PeerId) { return std::uint64_t{1}; },
        [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
        [](const std::uint64_t&) { return std::uint64_t{100}; });
    const std::uint64_t rounds =
        run_phase(engine, cast, kStandaloneConvergecast, 5000);
    EXPECT_TRUE(cast.complete());
    return std::pair<std::uint64_t, std::uint64_t>(meter.total(), rounds);
  };
  const auto [clean_bytes, clean_rounds] = run_at(0.0);
  const auto [lossy_bytes, lossy_rounds] = run_at(0.25);
  EXPECT_GT(lossy_bytes, clean_bytes);
  EXPECT_GE(lossy_rounds, clean_rounds);
}

TEST(FaultModelTest, GivesUpOnDeadDestinations) {
  Overlay overlay = make_line(3);
  TrafficMeter meter(3);
  LinkFaultModel m = lossy(0.1);
  m.max_retries = 3;
  m.retransmit_after = 1;
  Engine engine(overlay, meter, {.fault = m});
  overlay.fail(PeerId(2));

  /// One message into the void.
  class SendOnce final : public Protocol {
   public:
    void on_round(Context& ctx) override {
      if (ctx.self() == PeerId(1) && !sent_) {
        sent_ = true;
        ctx.send(PeerId(2), TrafficCategory::kControl, 4, std::any(1));
      }
    }
    bool sent_ = false;
  };
  SendOnce proto;
  const std::uint64_t rounds = engine.run(proto, 1000);
  EXPECT_EQ(engine.given_up(), 1u);
  EXPECT_LT(rounds, 50u);  // terminates, does not spin to max_rounds
}

TEST(FaultModelTest, DeterministicForSeed) {
  auto run_once = [] {
    Rng rng(5);
    Overlay overlay(random_connected(30, 4.0, rng));
    TrafficMeter meter(30);
    Engine engine(overlay, meter, {.fault = lossy(0.2, 99)});
    const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
    agg::ConvergecastPhase<std::uint64_t> cast(
        h, TrafficCategory::kFiltering,
        [](PeerId) { return std::uint64_t{1}; },
        [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
        [](const std::uint64_t&) { return std::uint64_t{4}; });
    run_phase(engine, cast, kStandaloneConvergecast, 5000);
    return std::tuple(meter.total(), engine.retransmissions(),
                      engine.lost_transmissions());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FaultModelTest, InvalidModelRejected) {
  Overlay overlay = make_line(2);
  TrafficMeter meter(2);
  LinkFaultModel bad;
  bad.loss_probability = 1.0;
  EXPECT_THROW(Engine(overlay, meter, {.fault = bad}), InvalidArgument);
  bad.loss_probability = -0.1;
  EXPECT_THROW(Engine(overlay, meter, {.fault = bad}), InvalidArgument);
  LinkFaultModel bad2 = lossy(0.1);
  bad2.retransmit_after = 0;
  EXPECT_THROW(Engine(overlay, meter, {.fault = bad2}), InvalidArgument);
}

}  // namespace
}  // namespace nf::net
