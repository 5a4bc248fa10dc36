#include "opt/planner.hh"

#include <algorithm>
#include <unordered_set>

#include "common/logging.hh"

namespace fosm::opt {

SweepPlan
planSweep(std::size_t points,
          const std::function<bool(std::size_t)> &probe,
          const std::function<std::uint64_t(std::size_t)> &charKey,
          std::size_t batchRows)
{
    fosm_assert(batchRows > 0, "planSweep needs a batch row bound");
    SweepPlan plan;
    plan.stats.points = points;

    std::unordered_set<std::uint64_t> seenKeys;
    for (std::size_t i = 0; i < points; ++i) {
        if (probe(i)) {
            plan.cached.push_back(i);
            continue;
        }
        plan.misses.push_back(i);
        const std::uint64_t key = charKey(i);
        if (seenKeys.insert(key).second)
            plan.characterizationKeys.push_back(key);
    }

    for (std::size_t at = 0; at < plan.misses.size();
         at += batchRows) {
        const std::size_t n =
            std::min(batchRows, plan.misses.size() - at);
        plan.batches.emplace_back(plan.misses.begin() + at,
                                  plan.misses.begin() + at + n);
    }

    plan.stats.cacheHits = plan.cached.size();
    plan.stats.scheduled = plan.misses.size();
    plan.stats.characterizations = plan.characterizationKeys.size();
    plan.stats.batches = plan.batches.size();
    return plan;
}

} // namespace fosm::opt
