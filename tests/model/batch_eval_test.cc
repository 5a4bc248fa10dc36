/**
 * @file
 * Bit-identity tests for the batched model path: the SoA kernels
 * (lockstep drain/ramp walks, single-sweep overlap factors) and the
 * full evaluateBatch must reproduce the scalar TransientAnalyzer /
 * FirstOrderModel results exactly — not approximately — because the
 * /v1/batch endpoint shares response-cache entries with /v1/cpi and a
 * single ULP of drift would make the two paths serve different bytes
 * for the same design point.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "analysis/miss_profiler.hh"
#include "experiments/workbench.hh"
#include "model/batch_eval.hh"
#include "model/first_order_model.hh"
#include "model/kernels.hh"
#include "model/transient.hh"

namespace fosm {
namespace {

MachineConfig
baseline()
{
    MachineConfig m;
    m.width = 4;
    m.frontEndDepth = 5;
    m.windowSize = 48;
    m.robSize = 128;
    m.deltaI = 8;
    m.deltaD = 200;
    return m;
}

/** A profile with enough structure to exercise every CPI term. */
MissProfile
syntheticProfile()
{
    MissProfile p;
    p.instructions = 100000;
    p.branches = 20000;
    p.mispredictions = 1000;
    p.icacheL1Misses = 500;
    p.icacheL2Misses = 40;
    p.loads = 25000;
    p.shortLoadMisses = 500;
    p.longLoadMisses = 200;
    // Clustered gaps so overlap factors are nontrivial and depend on
    // the ROB size.
    for (std::uint64_t i = 0; i + 1 < p.longLoadMisses; ++i)
        p.ldmGaps.push_back(i % 3 == 0 ? 20 : 4000);
    p.dtlbLoadMisses = 50;
    for (std::uint64_t i = 0; i + 1 < p.dtlbLoadMisses; ++i)
        p.dtlbGaps.push_back(i % 2 == 0 ? 50 : 9000);
    p.avgLatency = 1.2;
    return p;
}

TEST(Kernels, IssueRateArrayMatchesScalarCalls)
{
    const IWCharacteristic iw(1.1, 0.52, 1.2, 4);
    std::vector<double> w = {0.5, 1.0, 3.7, 16.0, 48.0, 200.0};
    std::vector<double> out(w.size());
    kernels::issueRateArray(iw, w.data(), out.data(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_EQ(out[i], iw.issueRate(w[i])) << "lane " << i;
}

TEST(Kernels, DrainRampBatchMatchesScalarWalksBitwise)
{
    // Lanes with different curves, widths and window sizes — lanes
    // terminate at different iterations, so the lockstep walk must
    // freeze each lane's result independently.
    std::vector<TransientAnalyzer> analyzers;
    for (const auto &[alpha, beta, width, window] :
         {std::tuple{1.0, 0.5, 4u, 48u},
          std::tuple{1.3, 0.45, 8u, 256u},
          std::tuple{0.9, 0.6, 2u, 16u},
          std::tuple{1.0, 0.5, 4u, 48u}, // duplicate of lane 0
          std::tuple{1.1, 0.55, 6u, 128u}}) {
        MachineConfig m = baseline();
        m.width = width;
        m.windowSize = window;
        analyzers.emplace_back(
            IWCharacteristic(alpha, beta, 1.0, width), m);
    }
    std::vector<const TransientAnalyzer *> lanes;
    for (const TransientAnalyzer &a : analyzers)
        lanes.push_back(&a);

    const std::vector<kernels::TransientWalks> walks =
        kernels::drainRampBatch(lanes);
    ASSERT_EQ(walks.size(), lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const DrainResult drain = lanes[i]->windowDrain();
        const RampResult ramp = lanes[i]->rampUp();
        EXPECT_EQ(walks[i].drain.cycles, drain.cycles) << i;
        EXPECT_EQ(walks[i].drain.instructions, drain.instructions)
            << i;
        EXPECT_EQ(walks[i].drain.penalty, drain.penalty) << i;
        EXPECT_EQ(walks[i].drain.residual, drain.residual) << i;
        EXPECT_EQ(walks[i].ramp.cycles, ramp.cycles) << i;
        EXPECT_EQ(walks[i].ramp.instructions, ramp.instructions)
            << i;
        EXPECT_EQ(walks[i].ramp.penalty, ramp.penalty) << i;
    }
}

TEST(Kernels, OverlapFactorBatchMatchesScalarSweep)
{
    const MissProfile p = syntheticProfile();
    const std::vector<std::uint64_t> robs = {16, 64, 128, 512, 4096};
    const std::vector<double> batch = kernels::overlapFactorBatch(
        p.ldmGaps, p.longLoadMisses, robs);
    ASSERT_EQ(batch.size(), robs.size());
    for (std::size_t i = 0; i < robs.size(); ++i) {
        MissProfile scalar = p;
        EXPECT_EQ(batch[i],
                  scalar.ldmOverlapFactor(
                      static_cast<std::uint32_t>(robs[i])))
            << "rob " << robs[i];
    }
}

TEST(Kernels, OverlapFactorBatchNoEventsIsUnity)
{
    const std::vector<double> out = kernels::overlapFactorBatch(
        {}, 0, {64, 128});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 1.0);
    EXPECT_EQ(out[1], 1.0);
}

/** Bit images of every CpiBreakdown field, then total() and ipc(). */
std::array<std::uint64_t, 12>
bitImage(const CpiBreakdown &b)
{
    return {std::bit_cast<std::uint64_t>(b.ideal),
            std::bit_cast<std::uint64_t>(b.brmisp),
            std::bit_cast<std::uint64_t>(b.icacheL1),
            std::bit_cast<std::uint64_t>(b.icacheL2),
            std::bit_cast<std::uint64_t>(b.dcacheLong),
            std::bit_cast<std::uint64_t>(b.dtlb),
            std::bit_cast<std::uint64_t>(b.branchPenaltyPerEvent),
            std::bit_cast<std::uint64_t>(b.icachePenaltyPerEvent),
            std::bit_cast<std::uint64_t>(b.dcachePenaltyPerEvent),
            std::bit_cast<std::uint64_t>(b.ldmOverlapFactor),
            std::bit_cast<std::uint64_t>(b.total()),
            std::bit_cast<std::uint64_t>(b.ipc())};
}

/** evaluateBatch row i must equal the scalar model bit for bit. */
void
expectBatchMatchesScalar(const std::vector<IWCharacteristic> &iws,
                         const std::vector<MachineConfig> &machines,
                         const MissProfile &profile,
                         const ModelOptions &options)
{
    const std::vector<CpiBreakdown> batch =
        evaluateBatch(iws, machines, profile, options);
    ASSERT_EQ(batch.size(), machines.size());
    for (std::size_t i = 0; i < machines.size(); ++i) {
        const CpiBreakdown scalar =
            FirstOrderModel(machines[i], options)
                .evaluate(iws[i], profile);
        EXPECT_EQ(bitImage(batch[i]), bitImage(scalar)) << "row " << i;
    }
}

void
expectBatchMatchesScalar(const std::vector<MachineConfig> &machines,
                         const MissProfile &profile,
                         const ModelOptions &options)
{
    std::vector<IWCharacteristic> iws;
    iws.reserve(machines.size());
    for (const MachineConfig &m : machines)
        iws.emplace_back(1.05, 0.51, profile.avgLatency, m.width);
    expectBatchMatchesScalar(iws, machines, profile, options);
}

std::vector<MachineConfig>
variedMachines()
{
    std::vector<MachineConfig> machines;
    // Rows that share the transient key (vary only deltas / ROB)...
    for (const std::uint32_t deltaD : {100u, 200u, 400u, 800u}) {
        MachineConfig m = baseline();
        m.deltaD = deltaD;
        machines.push_back(m);
    }
    for (const std::uint32_t rob : {32u, 128u, 1024u}) {
        MachineConfig m = baseline();
        m.robSize = rob;
        machines.push_back(m);
    }
    // ...and rows that need their own walk.
    for (const std::uint32_t width : {2u, 6u, 8u}) {
        MachineConfig m = baseline();
        m.width = width;
        m.windowSize = 32 * width;
        machines.push_back(m);
    }
    {
        MachineConfig m = baseline();
        m.clusters = 4;
        m.interClusterDelay = 2;
        machines.push_back(m);
    }
    return machines;
}

TEST(BatchEval, MatchesScalarModelDefaultOptions)
{
    expectBatchMatchesScalar(variedMachines(), syntheticProfile(),
                             ModelOptions{});
}

TEST(BatchEval, MatchesScalarModelWithoutOverlap)
{
    ModelOptions options;
    options.dcacheOverlap = false;
    expectBatchMatchesScalar(variedMachines(), syntheticProfile(),
                             options);
}

TEST(BatchEval, MatchesScalarModelWithOverlapCompensation)
{
    ModelOptions options;
    options.compensateOverlaps = true;
    expectBatchMatchesScalar(variedMachines(), syntheticProfile(),
                             options);
}

TEST(BatchEval, EmptyBatchYieldsNoRows)
{
    EXPECT_TRUE(evaluateBatch({}, {}, syntheticProfile(),
                              ModelOptions{})
                    .empty());
}

/**
 * The 0-ULP kernel gate, run by name in CI: the served /v1/batch
 * inner loop on the Workbench gzip characterization at the default
 * trace length. Row i is the baseline machine with deltaD = 100 + 10i,
 * and every 7th row also gets a 64, 128 or 256-entry ROB.
 */
class BatchEvalGate : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BatchEvalGate, RowsMatchScalarBitForBit)
{
    static Workbench bench;
    const WorkloadData &data = bench.workload("gzip");
    const std::size_t rows = GetParam();
    std::vector<MachineConfig> machines;
    for (std::size_t i = 0; i < rows; ++i) {
        MachineConfig m = Workbench::baselineMachine();
        m.deltaD = static_cast<std::uint32_t>(100 + 10 * i);
        if (i % 7 == 0)
            m.robSize = 64u << (i % 3);
        machines.push_back(m);
    }
    expectBatchMatchesScalar(
        std::vector<IWCharacteristic>(rows, data.iw), machines,
        data.missProfile, ModelOptions{});
}

INSTANTIATE_TEST_SUITE_P(Gzip, BatchEvalGate,
                         ::testing::Values(64, 1024));

} // namespace
} // namespace fosm
