/**
 * @file
 * The model-evaluation service: first-order model queries behind
 * HTTP. The paper's point is that equation (1) answers design
 * questions in microseconds that a detailed simulator needs seconds
 * for — exactly the latency profile worth putting behind a service.
 * Endpoints:
 *
 *   POST /v1/cpi       equation-(1) CPI stack for one machine config
 *                      x workload profile
 *   POST /v1/iw-curve  measured IW curve points + power-law fit
 *   POST /v1/trends    Section 6 pipeline-depth / issue-width sweeps,
 *                      fanned out over the global thread pool
 *   GET  /healthz      liveness
 *   GET  /metrics      Prometheus text metrics
 *
 * Evaluated design points are memoized in a sharded LRU cache keyed
 * by a canonical digest of the request (path + canonicalized JSON
 * body), sitting above the Workbench's per-workload data cache: the
 * Workbench caches the expensive trace/profile/IW characterization,
 * this cache the whole serialized response.
 */

#ifndef FOSM_SERVER_SERVICE_HH
#define FOSM_SERVER_SERVICE_HH

#include <array>
#include <map>
#include <memory>
#include <string>

#include "experiments/workbench.hh"
#include "opt/planner.hh"
#include "server/batch.hh"
#include "server/lru_cache.hh"
#include "server/metrics.hh"
#include "server/persistent_cache.hh"
#include "server/router.hh"

namespace fosm::server {

/** Service tuning knobs. */
struct ServiceConfig
{
    /** Response-cache entries; 0 disables the cache. */
    std::size_t cacheCapacity = 8192;
    std::size_t cacheShards = 8;
    /**
     * In-memory response-cache entry TTL in seconds; 0 keeps the
     * original never-expiring LRU (fosm-serve --cache-ttl-s). The
     * persistent tier is unaffected.
     */
    double cacheTtlS = 0.0;

    /**
     * Directory for the persistent result store (responses +
     * workload characterizations). Empty disables persistence: the
     * server runs memory-only, exactly as before the store existed.
     */
    std::string storeDir;

    /**
     * Largest unfiltered design-space cardinality /v1/optimize will
     * expand; larger spaces are rejected 413 before anything is
     * allocated (fosm-serve --optimize-max-points).
     */
    std::uint64_t optimizeMaxPoints = 65536;

    /**
     * Re-verify the record CRC on every store get (fosm-serve
     * --store-verify-reads). A failed check degrades to a miss,
     * counts store.corruptReads and feeds the scrub/repair channel
     * — it is never a client-visible error.
     */
    bool storeVerifyReads = false;
};

/**
 * Stateless-per-request evaluation service over a shared Workbench.
 * All public methods are thread-safe; handler() may be called from
 * any number of server worker threads.
 */
class ModelService
{
  public:
    ModelService(ServiceConfig config, MetricsRegistry &metrics);

    /**
     * The complete request handler (routing + caching), to be passed
     * to HttpServer.
     */
    HttpServer::Handler handler();

    /** Paths to use as bounded metric labels. */
    std::vector<std::string> metricPaths() const;

    /** Build all 12 workload characterizations up front so the first
     *  queries don't pay the (seconds-long) build. */
    void warmup();

    // Endpoint logic, exposed for direct unit testing. Each throws
    // ServiceError for invalid requests.
    json::Value cpi(const json::Value &request);
    json::Value iwCurve(const json::Value &request);
    json::Value trends(const json::Value &request);
    json::Value storeStats() const;

    /**
     * /v1/batch for a parsed JSON body: many machine configs against
     * one workload, columnar response (server/batch.hh). Invalid
     * rows become per-row error slots; only request-level problems
     * (bad workload, malformed shared blocks, empty or oversized
     * rows) throw ServiceError.
     */
    json::Value batch(const json::Value &request);

    /**
     * The raw /v1/batch HTTP handler: negotiates JSON vs the binary
     * wire format by Content-Type and applies per-chunk deadline
     * shedding from the request's X-Fosm-Deadline-Ms budget.
     */
    HttpResponse batchHttp(const HttpRequest &request);

    /**
     * /v1/optimize for a parsed JSON body: expand a declarative
     * design space, plan the sweep against the response caches,
     * evaluate the misses through the batched kernels, and return
     * the Pareto frontier over the requested objectives
     * (docs/OPTIMIZE.md). Throws ServiceError: 400 malformed spec,
     * 413 cardinality over the row limit, 422 empty or all-
     * infeasible space.
     */
    json::Value optimize(const json::Value &request);

    /**
     * The raw /v1/optimize HTTP handler: adds deadline-aware
     * shedding of the remaining evaluation batches; a shed (partial)
     * frontier returns 206 so only complete responses are memoized.
     */
    HttpResponse optimizeHttp(const HttpRequest &request);

    /**
     * The cache key for a request: schema version + path + canonical
     * JSON body (keys sorted, compact), so semantically equal
     * requests share an entry regardless of member order or
     * whitespace. The version prefix makes persisted entries from an
     * older model vintage invisible instead of silently stale — see
     * common/version.hh.
     */
    static std::string cacheKey(const std::string &path,
                                const json::Value &body);

    Workbench &workbench() { return bench_; }
    const ShardedLruCache<std::string> &cache() const
    {
        return cache_;
    }
    /** Null when persistence is disabled. */
    const PersistentResponseCache *persistentCache() const
    {
        return persistent_.get();
    }
    /** Mutable access for wiring (read-repair hook). */
    PersistentResponseCache *persistentCache()
    {
        return persistent_.get();
    }

    /**
     * Extra document merged into storeStats() under "repl" — wired
     * by fosm-serve to the Replicator's status (ownership split,
     * watermarks, catch-up counters) so GET /v1/store/stats reports
     * replication state per backend. Set before serving traffic.
     */
    void
    setReplStatsProvider(std::function<json::Value()> provider)
    {
        replStats_ = std::move(provider);
    }

    /**
     * Extra document merged into storeStats() under "scrub" — wired
     * by fosm-serve to the Scrubber's counters. Keep it counters
     * only: the gateway sums numeric leaves across backends, and
     * config values would sum into nonsense.
     */
    void
    setScrubStatsProvider(std::function<json::Value()> provider)
    {
        scrubStats_ = std::move(provider);
    }

  private:
    json::Value health() const;

    /**
     * Design points of one workload, addressed by index (batch rows,
     * optimize ordinals), each cached under its /v1/cpi digest.
     */
    struct DesignPoints
    {
        std::string workload;
        const WorkloadData *data = nullptr;
        ModelOptions options;
        std::vector<MachineConfig> machines;
        /** cacheKey("/v1/cpi", the point's single-request body). */
        std::vector<std::string> keys;
        /** ideal, brmisp, icacheL1, icacheL2, dcacheLong, dtlb,
         *  total, ipc — filled by a cache hit or an evaluation. */
        std::vector<std::array<double, 8>> cols;
        /** One IW fit per width the plan schedules. */
        std::map<std::uint32_t, IWCharacteristic> fits;
    };

    /**
     * The two-tier response cache every path reads: the LRU, then the
     * persistent store, refilling the LRU on a store hit. Every LRU
     * miss counts, whatever the capacity.
     */
    bool cacheGet(const std::string &key, std::string &value);

    /** Write-through to both tiers. */
    void cachePut(const std::string &key, const std::string &value);

    /**
     * Plan a sweep over points: probe every point's cached /v1/cpi
     * document (a hit fills its cols), chunk the misses into batches
     * of at most batchRows, and fit one IW characterization per width
     * the misses need.
     */
    opt::SweepPlan planPoints(DesignPoints &points,
                              std::size_t batchRows);

    /**
     * Evaluate one planned batch through the batched kernels, fill
     * its cols, and write each point's /v1/cpi document through both
     * tiers. Distinct batches of one plan may run concurrently.
     */
    void evaluatePoints(DesignPoints &points,
                        const std::vector<std::size_t> &batch);

    /**
     * Shared batch core: validate rows, then plan and evaluate them
     * as design points (planPoints, evaluatePoints). request (when
     * non-null) supplies the deadline checked between evaluation
     * chunks; rows past an expired deadline are shed into error
     * slots instead of evaluated.
     */
    batch::Result batchEvaluate(const json::Value &body,
                                const HttpRequest *request);

    /**
     * Shared /v1/optimize core (server/optimize.cc). request (when
     * non-null) supplies the deadline checked between evaluation
     * waves; the document's "complete" member reports whether any
     * batches were shed.
     */
    json::Value optimizeEvaluate(const json::Value &body,
                                 const HttpRequest *request);

    ServiceConfig config_;
    MetricsRegistry &metrics_;
    Workbench bench_;
    ShardedLruCache<std::string> cache_;
    std::shared_ptr<store::PersistentStore> store_;
    std::unique_ptr<PersistentResponseCache> persistent_;
    Router router_;
    std::function<json::Value()> replStats_;
    std::function<json::Value()> scrubStats_;

    Counter &cacheHits_;
    Counter &cacheMisses_;
    Counter &evaluations_;
    Counter &storeRefills_;
    Counter &deadlineShed_;
    Counter &batchRows_;
    Counter &batchRowErrors_;
    Counter &batchShedRows_;
    Counter &optSpaces_;
    Counter &optPointsPlanned_;
    Counter &optPointsDeduped_;
    Counter &optPointsEvaluated_;
    Counter &optIwFits_;
    Counter &optBatchesShed_;
    Counter &optPointsShed_;
};

} // namespace fosm::server

#endif // FOSM_SERVER_SERVICE_HH
