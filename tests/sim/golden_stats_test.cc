/**
 * @file
 * Golden-statistics regression test for the detailed and window
 * simulators. The values below were generated from the seed
 * implementation (before the hot-path overhaul: O(1) window removal,
 * producer-wakeup lists, dead-cycle skipping) and pin the exact
 * cycle counts and event statistics for every workload profile under
 * four configurations:
 *
 *   - the baseline detailed-simulator config,
 *   - a "stress" config exercising clusters, limited FU pools, the
 *     data TLB and the fetch buffer at once,
 *   - a width-limited window simulation (W=32, issue 4),
 *   - an unbounded unit-latency window simulation (W=64).
 *
 * Any optimization of the simulator hot paths must keep every one of
 * these numbers bit-identical; a change here is a behavior change,
 * not a speedup.
 */

#include <gtest/gtest.h>

#include "experiments/workbench.hh"
#include "iw/window_sim.hh"

namespace fosm {
namespace {

constexpr std::uint64_t kInsts = 60000;

struct Golden
{
    const char *name;
    // Baseline detailed simulation.
    std::uint64_t cycles;
    std::uint64_t mispredictions;
    std::uint64_t icacheL1Misses;
    std::uint64_t icacheL2Misses;
    std::uint64_t shortLoadMisses;
    std::uint64_t longLoadMisses;
    std::uint64_t windowAtBranchCount;
    double windowAtBranchMean;
    std::uint64_t robAheadCount;
    double robAheadMean;
    std::uint64_t windowAtReturnCount;
    double windowAtReturnMean;
    // Stress config (clusters + FU pools + TLB + fetch buffer).
    std::uint64_t stressCycles;
    std::uint64_t stressDtlbLoadMisses;
    std::uint64_t stressDtlbStoreMisses;
    std::uint64_t stressLongLoadMisses;
    // Window simulations.
    std::uint64_t limitedCycles;
    std::uint64_t unboundedCycles;
};

/** Name the parameter by its profile: the struct's raw bytes hold a
 *  pointer, which would change the test names on every run. */
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.name;
}

const Golden kGolden[] = {
    {"bzip",
     55193, 2112, 7, 7, 309, 181,
     2112, 2.8323863636363615, 181, 34.298342541436469, 181, 10.453038674033158,
     61826, 41, 12, 181,
     15059, 5997},
    {"crafty",
     63416, 1948, 116, 69, 241, 176,
     1948, 2.4733059548254692, 176, 32.465909090909058, 176, 9.2045454545454568,
     67945, 34, 15, 176,
     15009, 5220},
    {"eon",
     39701, 432, 23, 23, 154, 127,
     432, 3.4745370370370385, 127, 63.999999999999979, 127, 10.677165354330706,
     43150, 18, 13, 128,
     15027, 5293},
    {"gap",
     39664, 153, 6, 6, 484, 229,
     153, 3.5424836601307192, 229, 89.375545851528329, 229, 13.724890829694324,
     42561, 75, 27, 229,
     15002, 4301},
    {"gcc",
     71625, 953, 321, 131, 360, 175,
     953, 1.8709338929695702, 175, 60.891428571428548, 175, 12.388571428571426,
     76193, 32, 21, 175,
     15102, 6086},
    {"gzip",
     55402, 2211, 8, 8, 252, 172,
     2211, 2.9565807327001341, 172, 27.616279069767451, 172, 11.686046511627907,
     61815, 55, 21, 172,
     15039, 5583},
    {"mcf",
     107213, 1778, 8, 8, 1673, 1470,
     1778, 5.3357705286839137, 1470, 68.402721088435342, 1470, 15.696598639455773,
     121983, 1332, 370, 1470,
     15001, 3887},
    {"parser",
     62278, 1216, 55, 45, 594, 260,
     1216, 3.3273026315789473, 260, 48.415384615384639, 260, 16.553846153846148,
     69376, 119, 47, 259,
     15131, 6475},
    {"perl",
     61805, 2686, 34, 34, 230, 175,
     2686, 1.9791511541325384, 175, 30.051428571428577, 175, 7.7485714285714264,
     67331, 40, 11, 174,
     15043, 5307},
    {"twolf",
     75400, 741, 5, 5, 936, 615,
     741, 8.6329284750337276, 615, 56.80325203252027, 615, 22.450406504065029,
     85817, 456, 134, 615,
     15069, 6318},
    {"vortex",
     51142, 602, 110, 64, 491, 187,
     602, 1.8438538205980046, 187, 68.604278074866315, 187, 6.1711229946524062,
     52775, 51, 29, 187,
     15001, 2792},
    {"vpr",
     75689, 984, 9, 9, 405, 204,
     984, 7.7134146341463383, 204, 29.941176470588232, 204, 20.004901960784306,
     95961, 63, 27, 204,
     19805, 14946},
};

SimConfig
stressConfig()
{
    SimConfig cfg = Workbench::baselineSimConfig();
    cfg.machine.clusters = 2;
    cfg.machine.interClusterDelay = 2;
    cfg.fuPools.intAlu = {4, true};
    cfg.fuPools.intMul = {1, true};
    cfg.fuPools.intDiv = {1, false};
    cfg.fuPools.fpAlu = {2, true};
    cfg.fuPools.memPort = {2, true};
    cfg.dtlb.enabled = true;
    cfg.options.fetchBufferEntries = 16;
    cfg.options.fetchBandwidth = 8;
    cfg.syncMissDelays();
    return cfg;
}

class GoldenStatsTest : public ::testing::TestWithParam<Golden>
{
};

TEST_P(GoldenStatsTest, BaselineDetailedSim)
{
    const Golden &g = GetParam();
    const Trace trace = generateTrace(profileByName(g.name), kInsts);
    const SimStats s =
        simulateTrace(trace, Workbench::baselineSimConfig());

    EXPECT_EQ(s.cycles, g.cycles);
    EXPECT_EQ(s.mispredictions, g.mispredictions);
    EXPECT_EQ(s.icacheL1Misses, g.icacheL1Misses);
    EXPECT_EQ(s.icacheL2Misses, g.icacheL2Misses);
    EXPECT_EQ(s.shortLoadMisses, g.shortLoadMisses);
    EXPECT_EQ(s.longLoadMisses, g.longLoadMisses);
    EXPECT_EQ(s.windowAtBranchIssue.count(), g.windowAtBranchCount);
    EXPECT_DOUBLE_EQ(s.windowAtBranchIssue.mean(),
                     g.windowAtBranchMean);
    EXPECT_EQ(s.robAheadOfMissedLoad.count(), g.robAheadCount);
    EXPECT_DOUBLE_EQ(s.robAheadOfMissedLoad.mean(), g.robAheadMean);
    EXPECT_EQ(s.windowAtMissReturn.count(), g.windowAtReturnCount);
    EXPECT_DOUBLE_EQ(s.windowAtMissReturn.mean(),
                     g.windowAtReturnMean);
}

TEST_P(GoldenStatsTest, StressDetailedSim)
{
    const Golden &g = GetParam();
    const Trace trace = generateTrace(profileByName(g.name), kInsts);
    const SimStats s = simulateTrace(trace, stressConfig());

    EXPECT_EQ(s.cycles, g.stressCycles);
    EXPECT_EQ(s.dtlbLoadMisses, g.stressDtlbLoadMisses);
    EXPECT_EQ(s.dtlbStoreMisses, g.stressDtlbStoreMisses);
    EXPECT_EQ(s.longLoadMisses, g.stressLongLoadMisses);
}

TEST_P(GoldenStatsTest, WindowSims)
{
    const Golden &g = GetParam();
    const Trace trace = generateTrace(profileByName(g.name), kInsts);

    WindowSimConfig lim;
    lim.windowSize = 32;
    lim.issueWidth = 4;
    EXPECT_EQ(simulateWindow(trace, lim).cycles, g.limitedCycles);

    WindowSimConfig unb;
    unb.windowSize = 64;
    unb.issueWidth = 0;
    unb.unitLatency = true;
    EXPECT_EQ(simulateWindow(trace, unb).cycles, g.unboundedCycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, GoldenStatsTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace fosm
