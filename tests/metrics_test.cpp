#include "net/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"

namespace nf::net {
namespace {

TEST(TrafficMeterTest, StartsAtZero) {
  const TrafficMeter m(4);
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.num_messages(), 0u);
  EXPECT_EQ(m.per_peer(), 0.0);
  EXPECT_EQ(m.max_peer_total(), 0u);
}

TEST(TrafficMeterTest, RecordsPerCategoryAndPeer) {
  TrafficMeter m(4);
  m.record(PeerId(0), TrafficCategory::kFiltering, 100);
  m.record(PeerId(1), TrafficCategory::kFiltering, 50);
  m.record(PeerId(1), TrafficCategory::kAggregation, 25);
  EXPECT_EQ(m.total(TrafficCategory::kFiltering), 150u);
  EXPECT_EQ(m.total(TrafficCategory::kAggregation), 25u);
  EXPECT_EQ(m.total(), 175u);
  EXPECT_EQ(m.peer_total(PeerId(1)), 75u);
  EXPECT_EQ(m.peer_total(PeerId(2)), 0u);
  EXPECT_EQ(m.num_messages(), 3u);
}

TEST(TrafficMeterTest, PerPeerIsAverageOverAllPeers) {
  TrafficMeter m(4);
  m.record(PeerId(0), TrafficCategory::kNaive, 100);
  EXPECT_DOUBLE_EQ(m.per_peer(TrafficCategory::kNaive), 25.0);
  EXPECT_DOUBLE_EQ(m.per_peer(), 25.0);
}

TEST(TrafficMeterTest, MaxPeerTotalFindsBottleneck) {
  TrafficMeter m(3);
  m.record(PeerId(0), TrafficCategory::kControl, 10);
  m.record(PeerId(2), TrafficCategory::kControl, 10);
  m.record(PeerId(2), TrafficCategory::kGossip, 15);
  EXPECT_EQ(m.max_peer_total(), 25u);
}

TEST(TrafficMeterTest, ResetClearsEverything) {
  TrafficMeter m(2);
  m.record(PeerId(0), TrafficCategory::kControl, 10);
  m.reset();
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.num_messages(), 0u);
  EXPECT_EQ(m.peer_total(PeerId(0)), 0u);
}

TEST(TrafficMeterTest, OutOfRangeSenderThrows) {
  TrafficMeter m(2);
  EXPECT_THROW(m.record(PeerId(2), TrafficCategory::kControl, 1),
               InvalidArgument);
}

TEST(TrafficMeterTest, PerPeerBreakdownIndexesByCategory) {
  TrafficMeter m(3);
  m.record(PeerId(1), TrafficCategory::kFiltering, 100);
  m.record(PeerId(1), TrafficCategory::kGossip, 7);
  const auto& row = m.per_peer_breakdown(PeerId(1));
  EXPECT_EQ(row[static_cast<std::size_t>(TrafficCategory::kFiltering)], 100u);
  EXPECT_EQ(row[static_cast<std::size_t>(TrafficCategory::kGossip)], 7u);
  EXPECT_EQ(row[static_cast<std::size_t>(TrafficCategory::kNaive)], 0u);
  // Untouched peers have an all-zero row.
  for (const std::uint64_t bytes : m.per_peer_breakdown(PeerId(0))) {
    EXPECT_EQ(bytes, 0u);
  }
  EXPECT_THROW((void)m.per_peer_breakdown(PeerId(3)), InvalidArgument);
}

TEST(TrafficMeterTest, WriteCsvEmitsPerPeerRowsAndTotals) {
  TrafficMeter m(2);
  m.record(PeerId(0), TrafficCategory::kFiltering, 10);
  m.record(PeerId(1), TrafficCategory::kAggregation, 5);
  std::ostringstream os;
  m.write_csv(os);

  std::vector<std::string> lines;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  // Header + one row per peer + totals footer.
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0],
            "peer,filtering,dissemination,aggregation,naive,gossip,"
            "sampling,control,host-report,approx,total");
  EXPECT_EQ(lines[1], "0,10,0,0,0,0,0,0,0,0,10");
  EXPECT_EQ(lines[2], "1,0,0,5,0,0,0,0,0,0,5");
  EXPECT_EQ(lines[3], "total,10,0,5,0,0,0,0,0,0,15");
}

TEST(TrafficCategoryTest, NamesAreStable) {
  EXPECT_EQ(to_string(TrafficCategory::kFiltering), "filtering");
  EXPECT_EQ(to_string(TrafficCategory::kDissemination), "dissemination");
  EXPECT_EQ(to_string(TrafficCategory::kAggregation), "aggregation");
  EXPECT_EQ(to_string(TrafficCategory::kNaive), "naive");
  EXPECT_EQ(to_string(TrafficCategory::kApprox), "approx");
}

}  // namespace
}  // namespace nf::net
