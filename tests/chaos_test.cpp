// End-to-end chaos: multi-site gossip over the simulated network under
// loss, duplication, reordering, partitions, crash-recovery, and payload
// corruption. The acceptance bar is the seed sweep: every run must
// converge with zero invariant violations.
#include <gtest/gtest.h>

#include <string>

#include "simnet/chaos.hpp"

namespace icecube {
namespace {

ChaosSpec hostile_spec(std::uint64_t seed) {
  ChaosSpec spec;
  spec.seed = seed;
  spec.sites = 4 + seed % 5;  // 4..8 sites
  spec.actions_per_site = 4;
  spec.gossip_interval = 4;
  spec.fault_horizon = 300;
  spec.step_budget = 60000;
  spec.faults.lose = 0.10;
  spec.faults.corrupt = 0.05;
  spec.faults.truncate = 0.05;
  spec.faults.duplicate = 0.10;
  spec.faults.reorder = 0.15;
  spec.faults.reorder_max = 4;
  spec.faults.delay_max = 3;
  spec.faults.partition = 0.05;
  spec.faults.site_down = 0.05;
  spec.partition_window = 16;
  spec.crash_length = 24;
  return spec;
}

std::string failure_detail(const ChaosReport& report) {
  std::string out = "seed " + std::to_string(report.seed) + ": converged=" +
                    (report.converged ? "yes" : "no") +
                    " steps=" + std::to_string(report.steps);
  for (const Violation& v : report.violations) {
    out += "\n  " + v.message();
  }
  out += "\n  replay: tools/chaos --seed " + std::to_string(report.seed) +
         " --trace";
  return out;
}

// The hostile sweep over seeds 1-200, split into 8 shards of 25 seeds so
// that ctest -j runs them side by side. The union of the shards is exactly
// seeds 1-200.
constexpr std::uint64_t kSweepSeeds = 200;
constexpr std::uint64_t kSweepShard = 25;

class HostileSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HostileSweep, EverySeedConverges) {
  // Speed: the deep replay invariant re-executes every history from
  // genesis on each commit; the sweep keeps it off and a dedicated
  // deep-replay sweep below turns it on for a smaller seed range.
  const std::uint64_t first = GetParam();
  std::uint64_t converged = 0;
  for (std::uint64_t seed = first; seed < first + kSweepShard; ++seed) {
    ChaosSpec spec = hostile_spec(seed);
    spec.deep_replay = false;
    spec.keep_trace = false;
    const ChaosReport report = run_chaos(spec);
    ASSERT_TRUE(report.ok()) << failure_detail(report);
    ++converged;
  }
  EXPECT_EQ(converged, kSweepShard);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HostileSweep,
    ::testing::Range<std::uint64_t>(1, kSweepSeeds + 1, kSweepShard),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "seeds_" + std::to_string(info.param) + "_" +
             std::to_string(info.param + kSweepShard - 1);
    });

TEST(Chaos, DeepReplaySweep) {
  for (std::uint64_t seed = 500; seed < 530; ++seed) {
    ChaosSpec spec = hostile_spec(seed);
    spec.deep_replay = true;
    spec.keep_trace = false;
    const ChaosReport report = run_chaos(spec);
    ASSERT_TRUE(report.ok()) << failure_detail(report);
  }
}

TEST(Chaos, SameSeedReplaysIdenticalEventSequence) {
  // A failing seed must be debuggable: the whole run — every delivery,
  // drop, crash, and decision — replays bit-identically.
  const ChaosReport first = run_chaos(hostile_spec(77));
  const ChaosReport second = run_chaos(hostile_spec(77));
  EXPECT_EQ(first.trace_crc, second.trace_crc);
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_EQ(first.final_fingerprint, second.final_fingerprint);
  EXPECT_EQ(first.trace, second.trace);
  ASSERT_FALSE(first.trace.empty());
}

TEST(Chaos, DifferentSeedsTakeDifferentPaths) {
  EXPECT_NE(run_chaos(hostile_spec(1)).trace_crc,
            run_chaos(hostile_spec(2)).trace_crc);
}

TEST(Chaos, ScheduledPartitionHealsAndConverges) {
  // Split {s0,s1} | {s2,s3} for a long stretch, then heal: both halves
  // keep committing locally and must still converge globally afterwards.
  ChaosSpec spec;
  spec.seed = 9;
  spec.sites = 4;
  spec.actions_per_site = 5;
  spec.fault_horizon = 0;  // only the scheduled faults below
  spec.partitions.push_back({"s0", "s2", 2, 120});
  spec.partitions.push_back({"s0", "s3", 2, 120});
  spec.partitions.push_back({"s1", "s2", 2, 120});
  spec.partitions.push_back({"s1", "s3", 2, 120});
  const ChaosReport report = run_chaos(spec);
  ASSERT_TRUE(report.ok()) << failure_detail(report);
  EXPECT_GE(report.converged_at, 120u);  // cannot converge before the heal
  EXPECT_GT(report.net.dropped_partition, 0u);
  EXPECT_FALSE(report.final_fingerprint.empty());
}

TEST(Chaos, CrashedSiteRecoversAndCatchesUp) {
  ChaosSpec spec;
  spec.seed = 13;
  spec.sites = 4;
  spec.actions_per_site = 5;
  spec.fault_horizon = 0;
  spec.crashes.push_back({"s2", 5, 90});
  const ChaosReport report = run_chaos(spec);
  ASSERT_TRUE(report.ok()) << failure_detail(report);
  EXPECT_GE(report.converged_at, 90u);
  EXPECT_GT(report.net.dropped_down, 0u);
}

TEST(Chaos, CleanNetworkConvergesQuickly) {
  ChaosSpec spec;
  spec.seed = 3;
  spec.sites = 6;
  spec.actions_per_site = 4;
  spec.fault_horizon = 0;
  const ChaosReport report = run_chaos(spec);
  ASSERT_TRUE(report.ok()) << failure_detail(report);
  EXPECT_EQ(report.violations.size(), 0u);
  EXPECT_EQ(report.net.lost, 0u);
  EXPECT_EQ(report.totals.quarantines, 0u);
  EXPECT_EQ(report.total_actions, 24u);
}

TEST(Chaos, CorruptionQuarantinesButStillConverges) {
  ChaosSpec spec;
  spec.seed = 21;
  spec.sites = 4;
  spec.actions_per_site = 4;
  spec.fault_horizon = 200;
  spec.faults.corrupt = 0.4;
  const ChaosReport report = run_chaos(spec);
  ASSERT_TRUE(report.ok()) << failure_detail(report);
  EXPECT_GT(report.totals.quarantines, 0u);
  EXPECT_GT(report.injected_faults, 0u);
}

TEST(Chaos, ReportJsonCarriesTheVerdict) {
  ChaosSpec spec;
  spec.seed = 5;
  spec.sites = 4;
  spec.actions_per_site = 2;
  spec.fault_horizon = 0;
  const ChaosReport report = run_chaos(spec);
  ASSERT_TRUE(report.ok());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"seed\":5"), std::string::npos);
  EXPECT_NE(json.find("\"converged\":true"), std::string::npos);
  EXPECT_NE(json.find("\"violations\":[]"), std::string::npos);
  ASSERT_FALSE(report.final_fingerprint.empty());
  EXPECT_NE(json.find("\"final_fingerprint\":\""), std::string::npos);
}

TEST(Chaos, BudgetExhaustionReportsNonConvergence) {
  // An impossible budget must come back as a structured non-verdict, not
  // hang or crash.
  ChaosSpec spec;
  spec.seed = 2;
  spec.sites = 4;
  spec.actions_per_site = 4;
  spec.step_budget = 10;
  const ChaosReport report = run_chaos(spec);
  EXPECT_FALSE(report.converged);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace icecube
