/**
 * @file
 * Shared experiment harness. Builds each workload once (trace,
 * functional miss profile, fitted IW characteristic) and provides the
 * baseline machine/simulator configurations of Section 1.1, so every
 * bench binary regenerating a paper figure starts from the same
 * environment.
 */

#ifndef FOSM_EXPERIMENTS_WORKBENCH_HH
#define FOSM_EXPERIMENTS_WORKBENCH_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/miss_profiler.hh"
#include "experiments/characterization_store.hh"
#include "common/thread_pool.hh"
#include "iw/iw_characteristic.hh"
#include "model/first_order_model.hh"
#include "sim/detailed_sim.hh"
#include "trace/trace_stats.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace fosm {

/** Everything derived from one workload profile. */
struct WorkloadData
{
    const Profile *profile = nullptr;
    Trace trace;
    TraceStats traceStats;
    MissProfile missProfile;
    /** Unit-latency IW curve points (paper Figure 4). */
    std::vector<IwPoint> iwPoints;
    /** Fitted characteristic specialised to the baseline machine. */
    IWCharacteristic iw;
};

/**
 * Lazily builds and caches WorkloadData per profile. The trace length
 * defaults to 400k instructions and can be overridden with the
 * FOSM_TRACE_INSTS environment variable (the paper used much longer
 * SPEC traces; shapes are stable at this length).
 *
 * Thread-safe: workload() may be called concurrently from pool tasks
 * (one driver task per benchmark); each workload is built exactly
 * once behind a per-entry std::once_flag, and different workloads
 * build concurrently. Builds are deterministic per workload (each
 * one seeds its own generators), so concurrent and serial use return
 * identical data.
 */
class Workbench
{
  public:
    explicit Workbench(std::uint32_t issue_width = 4);

    /** Build (or fetch cached) data for one benchmark. */
    const WorkloadData &workload(const std::string &name);

    /** Build every benchmark's data, fanning out over the global
     *  thread pool. Purely a warm-up: later workload() calls hit the
     *  cache. */
    void buildAll();

    /** All 12 benchmark names in the paper's order. */
    static std::vector<std::string> benchmarks();

    /** Trace length in effect. */
    std::uint64_t traceInstructions() const { return traceInsts_; }

    /** The paper's baseline machine (Section 1.1). */
    static MachineConfig baselineMachine();

    /** The paper's baseline simulator configuration. */
    static SimConfig baselineSimConfig();

    /** The matching functional profiler configuration. */
    static ProfilerConfig baselineProfilerConfig();

    /** Fit an IW characteristic for a machine width. */
    static IWCharacteristic fitIw(const std::vector<IwPoint> &points,
                                  double avg_latency,
                                  std::uint32_t width);

    /**
     * Attach a persistent characterization store. Must be called
     * before the first workload() (it is not synchronized against
     * in-flight builds). With a store attached, buildWorkload loads
     * the miss profile and IW curve by trace digest instead of
     * recomputing them, and saves them after a cold build.
     */
    void setCharacterizationStore(
        std::shared_ptr<CharacterizationStore> store)
    {
        charStore_ = std::move(store);
    }

    /** Characterizations loaded from the store instead of built. */
    std::uint64_t characterizationLoads() const
    {
        return charLoads_;
    }

  private:
    /** One cache slot: built exactly once, then read-only. */
    struct Entry
    {
        std::once_flag once;
        WorkloadData data;
    };

    std::uint32_t issueWidth_;
    std::uint64_t traceInsts_;
    std::shared_ptr<CharacterizationStore> charStore_;
    std::atomic<std::uint64_t> charLoads_{0};
    /** Guards the map structure only; entries are node-stable and
     *  their construction is serialized by Entry::once. */
    std::mutex cacheMutex_;
    std::map<std::string, Entry> cache_;

    void buildWorkload(const std::string &name, WorkloadData &data);
};

/** |a - b| / b, guarding b == 0. */
double relativeError(double a, double b);

/**
 * Run fn(name, workload) for each of the 12 paper benchmarks as
 * concurrent tasks on the global thread pool and return the results
 * in the paper's benchmark order. This is the driver idiom: compute
 * every design point in parallel, then print the collected rows
 * serially so tables are byte-identical to a serial run. fn must not
 * touch shared mutable state (Workbench itself is thread-safe).
 */
template <typename Fn>
auto
mapWorkloads(Workbench &bench, Fn &&fn)
{
    return parallelMap(Workbench::benchmarks(),
                       [&](const std::string &name) {
                           return fn(name, bench.workload(name));
                       });
}

} // namespace fosm

#endif // FOSM_EXPERIMENTS_WORKBENCH_HH
