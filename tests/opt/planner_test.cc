/**
 * @file
 * Sweep-planner tests: probe-before-schedule dedupe (with pinned
 * hit/scheduled counts), characterization-key collapsing over the
 * misses only, batch chunking, and the stats the fosm_opt_* metrics
 * report.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "opt/planner.hh"

namespace fosm::opt {
namespace {

/** Every point shares one characterization (one issue width). */
std::uint64_t
width4(std::size_t)
{
    return 4;
}

TEST(Planner, AllMissesChunkedIntoBatches)
{
    const SweepPlan plan = planSweep(
        10, [](std::size_t) { return false; }, width4, 4);
    EXPECT_TRUE(plan.cached.empty());
    ASSERT_EQ(plan.misses.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(plan.misses[i], i);
    ASSERT_EQ(plan.batches.size(), 3u);
    EXPECT_EQ(plan.batches[0].size(), 4u);
    EXPECT_EQ(plan.batches[1].size(), 4u);
    EXPECT_EQ(plan.batches[2].size(), 2u);
    EXPECT_EQ(plan.stats.points, 10u);
    EXPECT_EQ(plan.stats.cacheHits, 0u);
    EXPECT_EQ(plan.stats.scheduled, 10u);
    EXPECT_EQ(plan.stats.batches, 3u);
}

TEST(Planner, ProbeHitsAreNeverScheduled)
{
    // Evens cached: the dedupe-count pin.
    const SweepPlan plan = planSweep(
        9, [](std::size_t i) { return i % 2 == 0; }, width4, 100);
    EXPECT_EQ(plan.cached,
              (std::vector<std::size_t>{0, 2, 4, 6, 8}));
    EXPECT_EQ(plan.misses, (std::vector<std::size_t>{1, 3, 5, 7}));
    EXPECT_EQ(plan.stats.cacheHits, 5u);
    EXPECT_EQ(plan.stats.scheduled, 4u);
    ASSERT_EQ(plan.batches.size(), 1u);
    EXPECT_EQ(plan.batches[0], plan.misses);
}

TEST(Planner, CharacterizationKeysCollapseOverMissesOnly)
{
    // Points alternate widths {2,4}; all width-2 points are cached,
    // so only width 4 needs a characterization.
    const SweepPlan plan = planSweep(
        8, [](std::size_t i) { return i % 2 == 0; },
        [](std::size_t i) { return i % 2 == 0 ? 2u : 4u; }, 64);
    ASSERT_EQ(plan.characterizationKeys.size(), 1u);
    EXPECT_EQ(plan.characterizationKeys[0], 4u);
    EXPECT_EQ(plan.stats.characterizations, 1u);
}

TEST(Planner, CharacterizationKeysFirstSeenOrder)
{
    const std::vector<std::uint64_t> widths = {8, 2, 8, 4, 2, 8};
    const SweepPlan plan = planSweep(
        widths.size(), [](std::size_t) { return false; },
        [&](std::size_t i) { return widths[i]; }, 64);
    EXPECT_EQ(plan.characterizationKeys,
              (std::vector<std::uint64_t>{8, 2, 4}));
    EXPECT_EQ(plan.stats.characterizations, 3u);
}

TEST(Planner, AllCachedSchedulesNothing)
{
    const SweepPlan plan = planSweep(
        5, [](std::size_t) { return true; },
        [](std::size_t) { return 2u; }, 10);
    EXPECT_EQ(plan.cached.size(), 5u);
    EXPECT_TRUE(plan.misses.empty());
    EXPECT_TRUE(plan.batches.empty());
    EXPECT_TRUE(plan.characterizationKeys.empty());
    EXPECT_EQ(plan.stats.cacheHits, 5u);
    EXPECT_EQ(plan.stats.scheduled, 0u);
    EXPECT_EQ(plan.stats.characterizations, 0u);
}

TEST(Planner, EmptySweep)
{
    const SweepPlan plan = planSweep(
        0, [](std::size_t) { return false; }, width4, 4);
    EXPECT_TRUE(plan.cached.empty());
    EXPECT_TRUE(plan.misses.empty());
    EXPECT_TRUE(plan.batches.empty());
    EXPECT_EQ(plan.stats.points, 0u);
}

TEST(Planner, ProbeCalledExactlyOncePerPointInOrder)
{
    std::vector<std::size_t> probed;
    planSweep(
        6,
        [&](std::size_t i) {
            probed.push_back(i);
            return false;
        },
        width4, 2);
    EXPECT_EQ(probed, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

} // namespace
} // namespace fosm::opt
