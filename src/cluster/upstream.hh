/**
 * @file
 * Upstream side of the gateway: the backend table (address, health
 * state, pooled keep-alive connections, per-backend counters), an
 * active health checker with ejection and exponential-backoff
 * reinstatement, and UpstreamCall — one asynchronous HTTP exchange
 * whose socket is driven from a caller-owned poll loop, so a worker
 * thread can race a hedged duplicate against a slow primary without
 * spawning threads. Reuses the HTTP wire machinery from src/server/
 * (serializeRequest / parseHttpResponse).
 */

#ifndef FOSM_CLUSTER_UPSTREAM_HH
#define FOSM_CLUSTER_UPSTREAM_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hh"
#include "server/metrics.hh"

namespace fosm::cluster {

/** One backend's location. label is "host:port", the node identity
 *  on the hash ring and in metric labels. */
struct BackendAddress
{
    std::string host;
    std::uint16_t port = 0;
    std::string label;
};

/**
 * Parse "host:port[,host:port...]" into addresses. Returns false
 * with a diagnostic on malformed input (missing port, bad number,
 * empty list).
 */
bool parseBackendList(const std::string &list,
                      std::vector<BackendAddress> &out,
                      std::string &error);

/** Upstream tuning knobs shared by the proxy path and the prober. */
struct UpstreamConfig
{
    /** Non-blocking connect budget per dial. */
    int connectTimeoutMs = 250;
    /** Whole-exchange budget per proxy attempt. */
    int requestTimeoutMs = 5000;
    /** Whole-exchange budget per health probe. */
    int probeTimeoutMs = 500;
    /** Interval between probes of a healthy backend. */
    int healthIntervalMs = 500;
    /** Probe backoff cap while a backend stays ejected. */
    int maxProbeBackoffMs = 8000;
    /** Consecutive failures (probe or proxy) that eject. */
    int ejectAfter = 2;

    // Circuit breaker (live-traffic outcomes only — probes keep
    // their own ejection path, because a backend can accept
    // connections and answer /healthz while timing out real work).
    /** Consecutive proxy failures that open the breaker. */
    int breakerFailures = 5;
    /** Minimum window samples before the error rate can trip. */
    int breakerMinSamples = 20;
    /** Window error fraction that opens the breaker. */
    double breakerErrorRate = 0.5;
    /** Sliding error-rate window length. */
    int breakerWindowMs = 10000;
    /** First open duration; doubles per consecutive reopen. */
    int breakerOpenBaseMs = 1000;
    /** Open-duration cap. */
    int breakerOpenMaxMs = 30000;
};

/** Circuit breaker states (gauge values on /metrics). */
enum class BreakerState
{
    Closed = 0,  ///< normal traffic
    Open = 1,    ///< no traffic until reopenAt
    HalfOpen = 2 ///< one trial request in flight
};

/** A state's metric/display name. */
const char *breakerStateName(BreakerState state);

/**
 * Per-backend circuit breaker driven by live proxy outcomes. Opens
 * on a consecutive-failure streak or a windowed error rate, stays
 * open for a jittered exponentially-growing interval, then admits a
 * single half-open trial whose outcome closes or re-opens it. All
 * methods are thread-safe.
 */
class CircuitBreaker
{
  public:
    using Clock = std::chrono::steady_clock;

    CircuitBreaker(const UpstreamConfig &config, std::uint64_t seed);

    /** Attach /metrics objects (optional; set once at startup). */
    void bindMetrics(server::Gauge *stateGauge,
                     server::Counter *opens,
                     server::Counter *closes);

    BreakerState state() const;

    /**
     * Whether the routing order should consider this backend at all:
     * true unless Open with reinstatement time still in the future.
     * An Open breaker whose backoff has elapsed IS routable — that is
     * how the half-open trial gets scheduled.
     */
    bool routable(Clock::time_point now) const;

    /**
     * Admission check immediately before an exchange. Closed admits;
     * Open transitions to HalfOpen and admits exactly one trial once
     * the backoff elapsed; HalfOpen admits nothing while the trial is
     * in flight (with a timeout so an abandoned trial cannot wedge
     * the breaker half-open forever).
     */
    bool allowRequest(Clock::time_point now);

    /** Record a live-traffic outcome. */
    void onSuccess();
    void onFailure(Clock::time_point now);

  private:
    void openLocked(Clock::time_point now);
    void setStateLocked(BreakerState state);

    const int failures_;
    const int minSamples_;
    const double errorRate_;
    const int windowMs_;
    const int openBaseMs_;
    const int openMaxMs_;

    mutable std::mutex mutex_;
    BreakerState state_ = BreakerState::Closed;
    int streak_ = 0;            ///< consecutive failures
    int windowTotal_ = 0;       ///< outcomes in the current window
    int windowFailures_ = 0;    ///< failures in the current window
    Clock::time_point windowStart_{};
    Clock::time_point reopenAt_{};   ///< when Open admits a trial
    Clock::time_point trialStart_{}; ///< HalfOpen trial admission
    int openMs_ = 0;                 ///< current (undoubled) backoff
    std::minstd_rand rng_;           ///< reopen jitter
    server::Gauge *stateGauge_ = nullptr;
    server::Counter *opens_ = nullptr;
    server::Counter *closes_ = nullptr;
};

/**
 * One backend: health state updated by the prober and by passive
 * proxy outcomes, a pool of idle keep-alive connections, and
 * per-backend metric objects. All methods are thread-safe.
 */
class Backend
{
  public:
    using Clock = std::chrono::steady_clock;

    Backend(BackendAddress address, const UpstreamConfig &config,
            server::MetricsRegistry *metrics);
    ~Backend();

    Backend(const Backend &) = delete;
    Backend &operator=(const Backend &) = delete;

    const BackendAddress &address() const { return address_; }

    bool healthy() const { return healthy_.load(); }

    /** An idle pooled connection, or -1. */
    int checkoutConn();
    /** Return a reusable keep-alive connection to the pool. */
    void checkinConn(int fd);

    /** Probe success: reset streak, reinstate if ejected. */
    void noteProbeSuccess();
    /**
     * Probe failure: count toward the ejection streak (healthy ->
     * false at ejectAfter). Probes never touch the breaker.
     */
    void noteProbeFailure(int ejectAfter);
    /** Live-traffic success: streak reset + breaker success. */
    void noteProxySuccess();
    /** Live-traffic failure: ejection streak + breaker failure. */
    void noteProxyFailure(int ejectAfter);
    /** Force the health bit (initial synchronous probe round). */
    void setHealthy(bool healthy);

    CircuitBreaker &breaker() { return breaker_; }
    const CircuitBreaker &breaker() const { return breaker_; }

    /**
     * Honor an upstream Retry-After: keep proxy traffic off this
     * backend until the moment passes (no breaker/ejection penalty —
     * the backend is alive, just shedding).
     */
    void deferFor(int ms);
    bool deferred(Clock::time_point now) const;

    /**
     * Begin graceful removal: the backend leaves new routing
     * topologies and its idle connections close now; in-flight
     * requests holding a shared_ptr complete normally.
     */
    void drain();
    bool draining() const { return draining_.load(); }

    // Hot-path metric objects; null when metrics are disabled.
    server::Counter *requests = nullptr;
    server::Counter *errors = nullptr;

  private:
    void noteFailure(int ejectAfter);

    BackendAddress address_;
    std::atomic<bool> healthy_{true};
    std::atomic<bool> draining_{false};
    std::atomic<int> failures_{0};
    std::atomic<std::int64_t> deferUntilNs_{0};
    std::mutex poolMutex_;
    std::vector<int> idle_;
    server::Counter *ejections_ = nullptr;
    server::Counter *reinstatements_ = nullptr;
    CircuitBreaker breaker_;
};

/**
 * One asynchronous upstream HTTP exchange. start() dials (or reuses
 * a pooled connection) and sends the request; the caller then polls
 * fd() for readability and calls onReadable() until the state is
 * Done or Failed. finish() recycles the connection; abandon() closes
 * it (hedge losers, timeouts — the response would arrive on a
 * connection whose stream position we no longer trust).
 */
class UpstreamCall
{
  public:
    enum class State
    {
        Unstarted,
        Receiving, ///< sent; awaiting (more of) the response
        Done,      ///< response() is valid
        Failed,    ///< transport failure or malformed response
    };

    UpstreamCall() = default;
    ~UpstreamCall() { abandon(); }

    UpstreamCall(const UpstreamCall &) = delete;
    UpstreamCall &operator=(const UpstreamCall &) = delete;

    /**
     * Checkout a pooled connection (unless forceFresh) or dial a
     * fresh one, then send the serialized request. Returns false —
     * with state() == Failed — on connect or send failure.
     */
    bool start(Backend &backend, const std::string &wire,
               int connectTimeoutMs, bool forceFresh = false);

    State state() const { return state_; }
    int fd() const { return fd_; }
    Backend *backend() const { return backend_; }
    /** Whether start() used a pooled (possibly stale) connection. */
    bool usedPooledConn() const { return pooled_; }
    /** Whether any response bytes arrived (stale-conn detection). */
    bool receivedBytes() const { return !inbuf_.empty(); }

    /** Drive reads after poll() reports fd() readable. */
    State onReadable();

    /** Valid when state() == Done. */
    const server::ClientResponse &response() const
    {
        return response_;
    }

    /** Recycle the connection if reusable, else close. Done only. */
    void finish();
    /** Close the connection unconditionally. Idempotent. */
    void abandon();

  private:
    Backend *backend_ = nullptr;
    int fd_ = -1;
    bool pooled_ = false;
    std::string inbuf_;
    server::ClientResponse response_;
    State state_ = State::Unstarted;
};

/**
 * One blocking exchange on a fresh connection — it tests
 * connectivity, not an idle pooled socket's liveness: send the
 * request, then poll until the response is complete or timeoutMs has
 * passed. True, with out set, on a complete response. Health probes
 * and the gateway's admin fan-outs use it; the proxy path drives
 * UpstreamCall from its own poll loop.
 */
bool blockingExchange(Backend &backend, const std::string &method,
                      const std::string &target,
                      const std::string &body, int connectTimeoutMs,
                      int timeoutMs, server::ClientResponse &out);

/**
 * The live backend set plus its active health checker. Membership is
 * dynamic: add() joins a replica (probing it synchronously first so
 * it starts with accurate health) and remove() drains one without
 * disturbing in-flight requests — callers hold shared_ptrs, so a
 * drained Backend dies when its last request completes. start() runs
 * one synchronous probe round and then probes in a background
 * thread: healthy backends every healthIntervalMs, ejected ones on
 * an exponential backoff capped at maxProbeBackoffMs, reinstating on
 * the first successful probe.
 */
class BackendPool
{
  public:
    BackendPool(std::vector<BackendAddress> addresses,
                UpstreamConfig config,
                server::MetricsRegistry *metrics);
    ~BackendPool();

    BackendPool(const BackendPool &) = delete;
    BackendPool &operator=(const BackendPool &) = delete;

    void start();
    void stop();

    /** The current membership (a stable point-in-time copy). */
    std::vector<std::shared_ptr<Backend>> snapshot() const;

    /** Member with this "host:port" label, or null. */
    std::shared_ptr<Backend> find(const std::string &label) const;

    /**
     * Join a replica. Returns the new (or existing — add is
     * idempotent) member. When the pool is already started the new
     * backend is probed synchronously so it joins with accurate
     * health.
     */
    std::shared_ptr<Backend> add(const BackendAddress &address);

    /**
     * Begin draining the member with this label; it leaves the
     * membership immediately (no new routing) and closes idle
     * connections. Returns false if no such member.
     */
    bool remove(const std::string &label);

    std::size_t size() const;
    /** Member i of the current membership (test convenience). */
    Backend &backend(std::size_t i);
    std::size_t healthyCount() const;

    const UpstreamConfig &config() const { return config_; }

    /** One blocking GET probe of /healthz; true on HTTP 200. */
    bool probe(Backend &backend);

  private:
    void proberMain();

    UpstreamConfig config_;
    server::MetricsRegistry *metrics_;
    mutable std::mutex membershipMutex_;
    std::vector<std::shared_ptr<Backend>> backends_;
    std::thread prober_;
    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopping_ = false;
    std::atomic<bool> started_{false};
};

} // namespace fosm::cluster

#endif // FOSM_CLUSTER_UPSTREAM_HH
