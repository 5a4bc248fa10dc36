/**
 * @file
 * The L7 gateway: shards model-evaluation requests across a pool of
 * fosm-serve replicas by the same canonical request digest the
 * response cache keys on, so N replicas' caches compose into one
 * large non-overlapping cache. Failed or slow attempts are retried
 * on the next ring replica (bounded, jittered backoff) and tail
 * latency is clipped by hedging: once an attempt outlives the
 * configured latency-percentile budget, a single duplicate goes to
 * the next replica and the first response wins. Model evaluation is
 * pure computation, so duplicates are always safe.
 */

#ifndef FOSM_CLUSTER_GATEWAY_HH
#define FOSM_CLUSTER_GATEWAY_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/hash_ring.hh"
#include "cluster/upstream.hh"
#include "server/http.hh"
#include "server/json.hh"
#include "server/metrics.hh"
#include "tenant/admission.hh"
#include "tenant/registry.hh"

namespace fosm::cluster {

/** Extra request headers forwarded to the upstream replicas. */
using HeaderList =
    std::vector<std::pair<std::string, std::string>>;

/** Gateway tuning knobs. */
struct GatewayConfig
{
    std::vector<BackendAddress> backends;
    /**
     * Tenant registry (docs/TENANCY.md). When set, the proxied
     * endpoints require a tenant bearer token and the gateway
     * enforces each tenant's rate limit and inflight quota; the
     * verified identity is stamped upstream as X-Fosm-Tenant. Null
     * keeps the gateway fully open, exactly as before.
     */
    std::shared_ptr<tenant::Registry> registry;
    /** Virtual nodes per backend on the hash ring. */
    std::size_t vnodes = 128;
    UpstreamConfig upstream;
    /** Extra attempts after the first (connect failure or 5xx). */
    int retries = 2;
    /** Base of the jittered exponential retry backoff. */
    int retryBaseMs = 2;
    /**
     * Hedge when an attempt outlives this quantile of observed
     * upstream latency, clamped to [hedgeMinMs, hedgeMaxMs].
     */
    double hedgeQuantile = 0.95;
    int hedgeMinMs = 1;
    int hedgeMaxMs = 50;
    /** Observations required before the quantile is trusted. */
    std::uint64_t hedgeMinSamples = 100;
    /**
     * Default whole-request deadline when the client sends no
     * X-Fosm-Deadline-Ms; 0 disables the synthetic deadline (each
     * attempt still has requestTimeoutMs).
     */
    int defaultDeadlineMs = 0;
};

/**
 * One immutable routing topology: the hash ring plus the backend
 * pointers its node indices refer to. Membership changes build a new
 * Topology and atomically swap the shared_ptr (RCU-style); requests
 * in flight keep using the snapshot they started with, and a drained
 * Backend is destroyed when the last such request drops its
 * reference.
 */
struct Topology
{
    HashRing ring;
    std::vector<std::shared_ptr<Backend>> backends;

    explicit Topology(std::size_t vnodes) : ring(vnodes) {}
};

/**
 * The gateway application: construct, start() (spawns the health
 * checker), hand handler() to an HttpServer, and stop() on the way
 * down. The handler is thread-safe; each invocation drives its own
 * upstream sockets from a private poll loop, so hedging needs no
 * extra threads.
 */
class Gateway
{
  public:
    Gateway(GatewayConfig config, server::MetricsRegistry *metrics);
    ~Gateway();

    Gateway(const Gateway &) = delete;
    Gateway &operator=(const Gateway &) = delete;

    void start();
    void stop();

    server::HttpServer::Handler handler();

    /** Paths to use as bounded metric labels. */
    std::vector<std::string> metricPaths() const;

    /**
     * The shard digest for a request: the 64-bit hash of the exact
     * cache key the backends use (schema version + path + canonical
     * body), so one backend owns each cache entry. Unparsable bodies
     * hash path + raw body — the owning backend answers 400
     * deterministically.
     */
    std::uint64_t shardDigest(const std::string &path,
                              const std::string &body) const;

    BackendPool &pool() { return *pool_; }
    /** The current topology's ring (a stable snapshot copy). */
    HashRing ring() const { return topology()->ring; }
    /** The current routing topology snapshot. */
    std::shared_ptr<const Topology> topology() const;

    /**
     * Live membership change: join every address in add, drain every
     * label in remove, then publish a rebuilt topology. In-flight
     * requests complete on the snapshot they hold. Returns the new
     * membership summary (the GET /admin/backends body).
     */
    server::HttpResponse
    adminChangeBackends(const std::string &body);
    /** Membership + health + breaker state, as JSON. */
    server::HttpResponse adminListBackends() const;

  private:
    using Clock = std::chrono::steady_clock;

    server::HttpResponse proxy(const server::HttpRequest &request,
                               const HeaderList &tenantHeaders);
    /**
     * /v1/batch: split the client's JSON batch into per-backend row
     * groups by each row's cache digest, send every group upstream
     * as one binary frame, and reassemble the columnar response in
     * the client's row order. A failed group degrades to per-row
     * error slots, never a whole-batch failure.
     */
    server::HttpResponse
    proxyBatch(const server::HttpRequest &request,
               const HeaderList &tenantHeaders);
    /**
     * The shared retry/hedge engine: route digest onto topo's ring
     * and walk the preference order (healthy tier first) with
     * bounded, jittered backoff until a response, the retry budget,
     * or the overall deadline. contentType overrides the JSON
     * default on the upstream wire when non-empty; extraHeaders ride
     * on every upstream attempt (tenant identity).
     */
    server::HttpResponse routedExchange(
        const Topology &topo, std::uint64_t digest,
        const std::string &path, const std::string &body,
        const std::string &contentType,
        const HeaderList &extraHeaders, bool hasOverall,
        Clock::time_point overall);
    /** One attempt (with optional hedge) bounded by deadline. */
    server::HttpResponse exchangeWithHedge(
        Backend &primary, Backend *hedgeTarget,
        const std::string &path, const std::string &body,
        const std::string &contentType,
        const HeaderList &extraHeaders,
        Clock::time_point deadline, bool &transportOk);
    /** Current hedge trigger delay in milliseconds. */
    int hedgeDelayMs() const;
    server::HttpResponse health() const;
    server::HttpResponse aggregateStoreStats();
    /** /admin/scrub fan-out: GET collects every backend's scrub
     *  status; POST forwards the body (force-full-scrub) to all. */
    server::HttpResponse
    adminScrub(const server::HttpRequest &request);
    /** Rebuild + publish the topology from the pool membership. */
    void rebuildTopology();

    GatewayConfig config_;
    server::MetricsRegistry *metrics_;
    std::unique_ptr<BackendPool> pool_;
    /** Null when no tenant registry is configured. */
    std::unique_ptr<tenant::Admission> admission_;

    mutable std::mutex topologyMutex_;
    std::shared_ptr<const Topology> topology_;

    server::Counter *retries_ = nullptr;
    server::Counter *hedges_ = nullptr;
    server::Counter *hedgeWins_ = nullptr;
    server::Counter *deadlineExceeded_ = nullptr;
    server::Counter *retryAfterHonored_ = nullptr;
    server::Counter *breakerRejections_ = nullptr;
    server::Counter *membershipChanges_ = nullptr;
    server::Counter *batchRequests_ = nullptr;
    server::Counter *batchShardCalls_ = nullptr;
    server::Counter *batchRows_ = nullptr;
    server::Counter *batchRowErrors_ = nullptr;
    server::Histogram *upstreamLatency_ = nullptr;
};

} // namespace fosm::cluster

#endif // FOSM_CLUSTER_GATEWAY_HH
