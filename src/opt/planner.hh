/**
 * @file
 * Sweep planner: turns "evaluate these N design points" into the
 * minimum actual work by (1) probing a caller-supplied cache for
 * every point *before* anything is scheduled, (2) collapsing the
 * survivors onto their distinct characterization keys (for this
 * model, the issue-width fit depends only on (workload, width), so a
 * 10k-point sweep over window/depth/cache axes needs exactly one
 * fit), and (3) chunking the misses into batches sized for the SoA
 * kernels.
 *
 * The planner is deliberately dumb about *what* the computations are
 * — probes and characterization keys are caller lambdas — so
 * /v1/optimize and /v1/batch share it without src/opt depending on
 * the server or store layers.
 */

#ifndef FOSM_OPT_PLANNER_HH
#define FOSM_OPT_PLANNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace fosm::opt {

/** Work accounting for one planned sweep, reported to callers and
 *  surfaced as fosm_opt_* metrics. */
struct PlanStats
{
    /** Points the caller asked for. */
    std::uint64_t points = 0;

    /** Points answered by the probe — deduped, never scheduled. */
    std::uint64_t cacheHits = 0;

    /** Points actually scheduled for evaluation. */
    std::uint64_t scheduled = 0;

    /** Distinct characterization keys across scheduled points. */
    std::uint64_t characterizations = 0;

    /** Evaluation batches the misses were chunked into. */
    std::uint64_t batches = 0;
};

/** A planned sweep over points the caller addresses by index. */
struct SweepPlan
{
    /** Indices the probe answered. */
    std::vector<std::size_t> cached;

    /** Indices that must be evaluated, in input order. */
    std::vector<std::size_t> misses;

    /** `misses` chunked into contiguous batches. */
    std::vector<std::vector<std::size_t>> batches;

    /** Distinct characterization keys over `misses`, first-seen
     *  order (e.g. distinct widths needing an IW fit). */
    std::vector<std::uint64_t> characterizationKeys;

    PlanStats stats;
};

/**
 * Plan a sweep of `points` items.
 *
 * `probe(i)` returns true when point i is already answered (and may
 * side-effect the answer into the caller's result slot). `charKey(i)`
 * maps a point to its characterization equivalence class.
 * `batchRows` (> 0) bounds the size of each evaluation batch.
 */
SweepPlan planSweep(std::size_t points,
                    const std::function<bool(std::size_t)> &probe,
                    const std::function<std::uint64_t(std::size_t)>
                        &charKey,
                    std::size_t batchRows);

} // namespace fosm::opt

#endif // FOSM_OPT_PLANNER_HH
