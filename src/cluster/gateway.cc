#include "cluster/gateway.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <random>
#include <thread>

#include <poll.h>

#include "common/hash.hh"
#include "common/logging.hh"
#include "server/service.hh"

namespace fosm::cluster {

namespace {

using Clock = std::chrono::steady_clock;

server::HttpResponse
jsonError(int status, const std::string &message)
{
    json::Value body = json::Value::object();
    body.set("error", message);
    return server::HttpResponse::json(status, body.dump());
}

/** Jitter in [0, limitMs] from a cheap thread-local generator. */
int
jitterMs(int limitMs)
{
    thread_local std::minstd_rand rng(static_cast<unsigned>(
        Clock::now().time_since_epoch().count()));
    if (limitMs <= 0)
        return 0;
    return static_cast<int>(rng() % (limitMs + 1));
}

/** The first Retry-After value on a response, or empty. */
const std::string &
retryAfterOf(const server::ClientResponse &response)
{
    return response.header("retry-after");
}

/**
 * Recursively sum numeric leaves of src into dst (by key path).
 * skipKey names one top-level subtree to leave out: the backends'
 * "repl" block holds per-node state (watermark LSNs, store epochs,
 * the replication factor) whose sum is meaningless.
 */
void
sumNumericLeaves(json::Value &dst, const json::Value &src,
                 const char *skipKey = nullptr)
{
    for (const auto &member : src.members()) {
        if (skipKey && member.first == skipKey)
            continue;
        const json::Value &v = member.second;
        if (v.isNumber()) {
            const json::Value *prev = dst.find(member.first);
            dst.set(member.first,
                    (prev ? prev->asDouble() : 0.0) + v.asDouble());
        } else if (v.isObject()) {
            json::Value *slot =
                const_cast<json::Value *>(dst.find(member.first));
            if (!slot)
                slot = &dst.set(member.first,
                                json::Value::object());
            sumNumericLeaves(*slot, v);
        }
    }
}

// /v1/optimize rides the same digest routing as the point queries:
// its whole-request digest keys the shard, so repeated/overlapping
// space searches land on the replica whose caches and store already
// hold the space's rows.
const char *const kProxyPaths[] = {"/v1/cpi", "/v1/iw-curve",
                                   "/v1/trends", "/v1/optimize"};

bool
isProxyPath(const std::string &path)
{
    for (const char *p : kProxyPaths)
        if (path == p)
            return true;
    return false;
}

} // namespace

Gateway::Gateway(GatewayConfig config,
                 server::MetricsRegistry *metrics)
    : config_(std::move(config)), metrics_(metrics)
{
    fosm_assert(!config_.backends.empty(),
                "gateway needs at least one backend");
    pool_ = std::make_unique<BackendPool>(
        config_.backends, config_.upstream, metrics_);

    // The gateway is where quotas bite: rate limits and inflight
    // caps are enforced here, before any upstream work is spent.
    // The serving nodes re-check only authentication.
    if (config_.registry) {
        tenant::AdmissionOptions options;
        options.enforceRate = true;
        options.enforceInflight = true;
        admission_ = std::make_unique<tenant::Admission>(
            *config_.registry, metrics_, options);
    }

    if (metrics_) {
        retries_ = &metrics_->counter(
            "fosm_gateway_retries_total",
            "Upstream attempts beyond the first per request");
        hedges_ = &metrics_->counter(
            "fosm_gateway_hedges_total",
            "Hedged duplicate requests fired");
        hedgeWins_ = &metrics_->counter(
            "fosm_gateway_hedge_wins_total",
            "Hedged duplicates that answered first");
        deadlineExceeded_ = &metrics_->counter(
            "fosm_deadline_exceeded_total",
            "Requests answered 504 at the gateway because the "
            "client's deadline budget ran out");
        retryAfterHonored_ = &metrics_->counter(
            "fosm_gateway_retry_after_honored_total",
            "503 responses whose Retry-After deferred a backend");
        breakerRejections_ = &metrics_->counter(
            "fosm_gateway_breaker_rejections_total",
            "Proxy attempts not sent because the target's breaker "
            "was open");
        membershipChanges_ = &metrics_->counter(
            "fosm_gateway_membership_changes_total",
            "Topology rebuilds from POST /admin/backends");
        batchRequests_ = &metrics_->counter(
            "fosm_gateway_batch_requests_total",
            "Client /v1/batch requests split across backends");
        batchShardCalls_ = &metrics_->counter(
            "fosm_gateway_batch_shard_calls_total",
            "Per-backend binary batch frames sent upstream");
        batchRows_ = &metrics_->counter(
            "fosm_gateway_batch_rows_total",
            "Design-point rows carried by /v1/batch requests");
        batchRowErrors_ = &metrics_->counter(
            "fosm_gateway_batch_row_errors_total",
            "Batch rows answered with an error slot (invalid row "
            "or failed shard)");
        upstreamLatency_ = &metrics_->histogram(
            "fosm_gateway_upstream_latency_seconds",
            "Latency of winning upstream exchanges");
        metrics_->addCallbackGauge(
            "fosm_gateway_healthy_backends",
            "Backends currently passing health checks",
            [this] {
                return static_cast<double>(pool_->healthyCount());
            });
    }
    rebuildTopology();
}

std::shared_ptr<const Topology>
Gateway::topology() const
{
    std::lock_guard<std::mutex> lock(topologyMutex_);
    return topology_;
}

void
Gateway::rebuildTopology()
{
    auto topo = std::make_shared<Topology>(config_.vnodes);
    // Ring node index i == topology backend index i: both are built
    // from the same membership snapshot in order.
    for (const auto &b : pool_->snapshot()) {
        topo->ring.add(b->address().label);
        topo->backends.push_back(b);
    }
    if (metrics_) {
        const std::vector<double> share =
            topo->ring.keyspaceShare();
        for (std::size_t i = 0; i < share.size(); ++i) {
            metrics_
                ->gauge("fosm_gateway_ring_share_milli",
                        "Keyspace share per backend (x1000)",
                        "backend=\"" + topo->ring.name(i) + "\"")
                .set(static_cast<std::int64_t>(share[i] * 1000.0 +
                                               0.5));
        }
    }
    std::lock_guard<std::mutex> lock(topologyMutex_);
    topology_ = std::move(topo);
}

Gateway::~Gateway()
{
    stop();
}

void
Gateway::start()
{
    pool_->start();
}

void
Gateway::stop()
{
    pool_->stop();
}

std::vector<std::string>
Gateway::metricPaths() const
{
    std::vector<std::string> paths(std::begin(kProxyPaths),
                                   std::end(kProxyPaths));
    paths.emplace_back("/v1/batch");
    paths.emplace_back("/healthz");
    paths.emplace_back("/metrics");
    paths.emplace_back("/v1/store/stats");
    paths.emplace_back("/admin/backends");
    return paths;
}

std::uint64_t
Gateway::shardDigest(const std::string &path,
                     const std::string &body) const
{
    json::Value parsed;
    std::string error;
    if (json::parse(body, parsed, &error))
        return fnv1a64(server::ModelService::cacheKey(path, parsed));
    // Unparsable: still deterministic — the owning backend will
    // answer 400 the same way every time.
    return fnv1a64(path + "\n" + body);
}

int
Gateway::hedgeDelayMs() const
{
    if (!upstreamLatency_ ||
        upstreamLatency_->count() <
            std::max<std::uint64_t>(1, config_.hedgeMinSamples))
        return config_.hedgeMaxMs;
    const double q =
        upstreamLatency_->quantile(config_.hedgeQuantile) * 1000.0;
    return std::clamp(static_cast<int>(q + 0.5), config_.hedgeMinMs,
                      config_.hedgeMaxMs);
}

server::HttpResponse
Gateway::exchangeWithHedge(Backend &primary, Backend *hedgeTarget,
                           const std::string &path,
                           const std::string &body,
                           const std::string &contentType,
                           const HeaderList &extraHeaders,
                           Clock::time_point deadline,
                           bool &transportOk)
{
    transportOk = false;
    const auto start = Clock::now();
    // Propagate the remaining budget so the replica can shed work
    // this gateway has already given up on. The upstream request is
    // built from scratch here: only headers this gateway chooses to
    // forward exist on the wire, so a client-supplied X-Fosm-Tenant
    // can never reach a backend.
    const auto wireFor = [&](const Backend &b) {
        std::vector<std::pair<std::string, std::string>> extra{
            {server::deadlineHeader,
             std::to_string(server::millisLeft(deadline))}};
        if (!contentType.empty())
            extra.emplace_back("Content-Type", contentType);
        for (const auto &header : extraHeaders)
            extra.push_back(header);
        return server::serializeRequest(
            "POST", path, b.address().label, body, extra);
    };

    UpstreamCall calls[2];
    bool refreshed[2] = {false, false};
    Backend *owners[2] = {&primary, hedgeTarget};
    int active = 1;
    bool hedged = false;

    if (primary.requests)
        primary.requests->inc();
    if (!calls[0].start(primary, wireFor(primary),
                        config_.upstream.connectTimeoutMs)) {
        if (primary.errors)
            primary.errors->inc();
        primary.noteProxyFailure(config_.upstream.ejectAfter);
        return server::HttpResponse(502);
    }

    auto hedgeAt =
        start + std::chrono::milliseconds(hedgeDelayMs());

    for (;;) {
        pollfd pfds[2];
        int idx[2];
        int n = 0;
        for (int i = 0; i < active; ++i) {
            if (calls[i].state() ==
                UpstreamCall::State::Receiving) {
                pfds[n] = {calls[i].fd(), POLLIN, 0};
                idx[n] = i;
                ++n;
            }
        }
        if (n == 0) {
            // Every outstanding call failed.
            for (int i = 0; i < active; ++i)
                if (owners[i] && owners[i]->errors)
                    owners[i]->errors->inc();
            primary.noteProxyFailure(config_.upstream.ejectAfter);
            return server::HttpResponse(502);
        }

        auto wakeAt = deadline;
        const bool canHedge = !hedged && hedgeTarget;
        if (canHedge && hedgeAt < wakeAt)
            wakeAt = hedgeAt;
        const int waitMs = server::millisLeft(wakeAt);
        const int ready = ::poll(pfds, n, waitMs);

        if (ready > 0) {
            for (int k = 0; k < n; ++k) {
                if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                const int i = idx[k];
                switch (calls[i].onReadable()) {
                case UpstreamCall::State::Done: {
                    // First complete response wins.
                    transportOk = true;
                    const server::ClientResponse &r =
                        calls[i].response();
                    const std::string &retryAfter =
                        retryAfterOf(r);
                    if (r.status < 500) {
                        owners[i]->noteProxySuccess();
                    } else if (r.status == 503 &&
                               !retryAfter.empty()) {
                        // The replica is alive and shedding with a
                        // hint; honor it instead of punishing the
                        // backend or retrying into the overload.
                        owners[i]->deferFor(
                            std::atoi(retryAfter.c_str()) * 1000);
                        if (retryAfterHonored_)
                            retryAfterHonored_->inc();
                        if (owners[i]->errors)
                            owners[i]->errors->inc();
                    } else {
                        owners[i]->noteProxyFailure(
                            config_.upstream.ejectAfter);
                        if (owners[i]->errors)
                            owners[i]->errors->inc();
                    }
                    if (upstreamLatency_)
                        upstreamLatency_->observe(
                            std::chrono::duration<double>(
                                Clock::now() - start)
                                .count());
                    if (i == 1) {
                        if (hedgeWins_)
                            hedgeWins_->inc();
                        // The primary burned its whole hedge window
                        // without producing a byte before the hedge
                        // finished — slowness, not bad luck. Charge
                        // it, or a consistently hedge-lost backend
                        // never trips its breaker and taxes every
                        // request homed on it with a hedge.
                        if (calls[0].state() ==
                                UpstreamCall::State::Receiving &&
                            !calls[0].receivedBytes()) {
                            if (primary.errors)
                                primary.errors->inc();
                            primary.noteProxyFailure(
                                config_.upstream.ejectAfter);
                        }
                    }
                    server::HttpResponse out(r.status);
                    out.body = r.body;
                    const std::string &ct =
                        r.header("content-type");
                    if (!ct.empty())
                        out.setHeader("Content-Type", ct);
                    if (!retryAfter.empty())
                        out.setHeader("Retry-After", retryAfter);
                    out.setHeader("X-Fosm-Backend",
                                  owners[i]->address().label);
                    calls[i].finish();
                    for (int j = 0; j < active; ++j)
                        if (j != i)
                            calls[j].abandon();
                    return out;
                }
                case UpstreamCall::State::Failed:
                    // A pooled connection may have been closed by
                    // the backend while idle; one fresh re-dial on
                    // the same backend, not counted as a retry.
                    if (calls[i].usedPooledConn() &&
                        !calls[i].receivedBytes() &&
                        !refreshed[i]) {
                        refreshed[i] = true;
                        calls[i].start(
                            *owners[i], wireFor(*owners[i]),
                            config_.upstream.connectTimeoutMs,
                            /*forceFresh=*/true);
                    }
                    break;
                default:
                    break;
                }
            }
            continue;
        }

        // Timeout: fire the (single) hedge, or give up.
        const auto now = Clock::now();
        if (now >= deadline) {
            for (int i = 0; i < active; ++i) {
                calls[i].abandon();
                if (owners[i] && owners[i]->errors)
                    owners[i]->errors->inc();
            }
            primary.noteProxyFailure(config_.upstream.ejectAfter);
            return server::HttpResponse(504);
        }
        if (canHedge && now >= hedgeAt) {
            hedged = true;
            // A deferred or breaker-guarded backend does not get a
            // speculative duplicate (allowRequest consumes the
            // half-open trial only when we really send).
            if (!hedgeTarget->deferred(now) &&
                hedgeTarget->breaker().allowRequest(now)) {
                active = 2;
                if (hedges_)
                    hedges_->inc();
                if (hedgeTarget->requests)
                    hedgeTarget->requests->inc();
                calls[1].start(*hedgeTarget, wireFor(*hedgeTarget),
                               config_.upstream.connectTimeoutMs);
            }
        }
    }
}

server::HttpResponse
Gateway::proxy(const server::HttpRequest &request,
               const HeaderList &tenantHeaders)
{
    const std::string path = request.path();
    const std::string &body = request.body;

    // Overall budget: the client's propagated deadline, or the
    // configured synthetic default. Attempts are clipped to it, and
    // a spent budget answers 504 immediately — wasted upstream work
    // helps nobody.
    const auto entry = Clock::now();
    const bool hasOverall =
        request.hasDeadline() || config_.defaultDeadlineMs > 0;
    const Clock::time_point overall =
        request.hasDeadline()
            ? request.deadline
            : entry + std::chrono::milliseconds(
                          config_.defaultDeadlineMs);
    if (hasOverall && entry >= overall) {
        if (deadlineExceeded_)
            deadlineExceeded_->inc();
        return jsonError(504, "deadline exhausted before proxying");
    }

    // One topology snapshot per request: membership changes swap in
    // a new Topology, but this request completes on the one it
    // started with (the shared_ptrs keep draining backends alive).
    const std::shared_ptr<const Topology> topo = topology();
    if (topo->backends.empty())
        return jsonError(503, "no backends in topology");
    return routedExchange(*topo, shardDigest(path, body), path,
                          body, std::string(), tenantHeaders,
                          hasOverall, overall);
}

server::HttpResponse
Gateway::routedExchange(const Topology &topo, std::uint64_t digest,
                        const std::string &path,
                        const std::string &body,
                        const std::string &contentType,
                        const HeaderList &extraHeaders,
                        bool hasOverall, Clock::time_point overall)
{
    const auto entry = Clock::now();
    // The full ring walk from the key's owner. Its leading
    // `replication` entries are exactly the key's preference list on
    // the replicated store side (docs/REPLICATION.md): when the
    // owner dies, the next healthy backend this loop lands on is the
    // one already holding the shard's replicated entries, so
    // failover stays on the warm cached path with no routing change
    // needed here.
    const std::vector<std::uint32_t> pref =
        topo.ring.route(digest, topo.backends.size());

    // Preference order within each tier: fully routable backends
    // first, then deferred/breaker-open ones, ejected ones last
    // (every backend may be flapping).
    const auto rank = [&](const Backend &b) {
        if (!b.healthy())
            return 2;
        if (b.deferred(entry) || !b.breaker().routable(entry))
            return 1;
        return 0;
    };
    std::vector<std::uint32_t> order;
    order.reserve(pref.size());
    for (int tier = 0; tier <= 2; ++tier)
        for (std::uint32_t i : pref)
            if (rank(*topo.backends[i]) == tier)
                order.push_back(i);

    // The configured retry count is a floor, not a ceiling: while
    // the overall deadline still has budget, transport-level
    // failures keep cycling the preference ring rather than
    // surfacing 502 with time left on the clock. Replica-generated
    // 5xx (other than Retry-After failovers) still stop at the
    // configured count — retrying those amplifies load on a backend
    // that is answering, just badly. The hard cap only guards
    // against a topology where every dial fails instantly.
    const int attempts = 1 + std::max(0, config_.retries);
    const int maxAttempts =
        hasOverall ? std::max(attempts, 32) : attempts;
    server::HttpResponse last5xx(0);
    bool have5xx = false;
    bool skipBackoff = false;

    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        if (attempt > 0) {
            if (retries_)
                retries_->inc();
            // No backoff sleep when nothing was actually sent
            // (breaker rejection) or the backend asked us to fail
            // over (Retry-After) — the next backend is fine now.
            if (!skipBackoff) {
                const int backoff =
                    (config_.retryBaseMs
                     << std::min(attempt - 1, 8)) +
                    jitterMs(config_.retryBaseMs);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoff));
            }
            skipBackoff = false;
        }
        const auto now = Clock::now();
        if (hasOverall && now >= overall) {
            if (deadlineExceeded_)
                deadlineExceeded_->inc();
            return jsonError(504, "deadline exhausted during retry");
        }

        Backend &target =
            *topo.backends[order[static_cast<std::size_t>(
                                     attempt) %
                                 order.size()]];
        if (!target.breaker().allowRequest(now)) {
            if (breakerRejections_)
                breakerRejections_->inc();
            skipBackoff = true;
            continue;
        }
        // The hedge goes to the next distinct backend in preference
        // order, if there is one.
        Backend *hedgeTarget = nullptr;
        if (order.size() > 1)
            hedgeTarget =
                topo.backends[order[(static_cast<std::size_t>(
                                         attempt) +
                                     1) %
                                    order.size()]]
                    .get();

        Clock::time_point attemptDeadline =
            now + std::chrono::milliseconds(
                      config_.upstream.requestTimeoutMs);
        if (hasOverall && overall < attemptDeadline)
            attemptDeadline = overall;

        bool transportOk = false;
        server::HttpResponse response =
            exchangeWithHedge(target, hedgeTarget, path, body,
                              contentType, extraHeaders,
                              attemptDeadline, transportOk);
        if (!transportOk)
            continue;
        if (response.status >= 500) {
            // A shedding replica's Retry-After already deferred it
            // in exchangeWithHedge; fail over to the next ring
            // replica without the backoff sleep.
            if (response.status == 503) {
                for (const auto &h : response.headers)
                    if (h.first == "Retry-After") {
                        skipBackoff = true;
                        break;
                    }
            }
            last5xx = std::move(response);
            have5xx = true;
            // Only transport failures and Retry-After failovers
            // earn deadline-extended attempts; a replica answering
            // plain 5xx gets the configured count and no more.
            if (!skipBackoff && attempt + 1 >= attempts)
                break;
            continue;
        }
        // 2xx–4xx pass through unchanged: a 400 is the client's
        // problem, not the backend's.
        return response;
    }

    if (have5xx)
        return last5xx;
    return jsonError(502, "all upstream attempts failed");
}

server::HttpResponse
Gateway::proxyBatch(const server::HttpRequest &request,
                    const HeaderList &tenantHeaders)
{
    namespace batch = server::batch;

    // The binary frame is a gateway-to-backend wire; clients of the
    // gateway speak JSON on both sides of /v1/batch.
    if (request.header("content-type")
            .rfind(batch::contentType, 0) == 0) {
        return jsonError(415,
                         "the gateway accepts JSON batches; "
                         "application/x-fosm-batch is the upstream "
                         "wire format");
    }

    json::Value parsed;
    std::string error;
    if (!json::parse(request.body, parsed, &error))
        return jsonError(400, "invalid JSON body: " + error);
    batch::Request req;
    try {
        req = batch::parseRequest(parsed);
    } catch (const server::ServiceError &e) {
        return jsonError(e.status(), e.what());
    }

    const auto entry = Clock::now();
    const bool hasOverall =
        request.hasDeadline() || config_.defaultDeadlineMs > 0;
    const Clock::time_point overall =
        request.hasDeadline()
            ? request.deadline
            : entry + std::chrono::milliseconds(
                          config_.defaultDeadlineMs);
    if (hasOverall && entry >= overall) {
        if (deadlineExceeded_)
            deadlineExceeded_->inc();
        return jsonError(504, "deadline exhausted before proxying");
    }

    const std::shared_ptr<const Topology> topo = topology();
    if (topo->backends.empty())
        return jsonError(503, "no backends in topology");

    const std::size_t n = req.rows.size();
    if (batchRequests_)
        batchRequests_->inc();
    if (batchRows_)
        batchRows_->inc(n);

    // Every row starts as an error slot; evaluated rows overwrite
    // theirs when the owning shard's response is scattered back.
    batch::Result result;
    result.workload = req.workload;
    for (std::size_t i = 0; i < n; ++i)
        result.pushError("row not evaluated");

    // Split by the same digest the backends' response caches key on:
    // each row lands on the backend that owns (and has likely
    // cached) the identical single-request /v1/cpi entry.
    struct Group
    {
        std::uint64_t digest = 0;
        std::vector<std::size_t> rows;
    };
    std::map<std::uint32_t, Group> groups;
    for (std::size_t i = 0; i < n; ++i) {
        json::Value merged;
        try {
            merged = batch::mergedRowBody(req, req.rows[i]);
        } catch (const server::ServiceError &e) {
            // Same per-row message the backend's own validation
            // produces; no point shipping the row upstream.
            result.errors[i] = e.what();
            continue;
        }
        const std::uint64_t digest = fnv1a64(
            server::ModelService::cacheKey("/v1/cpi", merged));
        const std::uint32_t owner =
            topo->ring.route(digest, topo->backends.size())[0];
        auto [it, fresh] = groups.try_emplace(owner);
        if (fresh)
            it->second.digest = digest;
        it->second.rows.push_back(i);
    }

    const json::Value *sharedMachine =
        req.sharedMachine.isObject() ? &req.sharedMachine : nullptr;
    const json::Value *sharedOptions =
        req.sharedOptions.isObject() ? &req.sharedOptions : nullptr;

    for (const auto &[owner, group] : groups) {
        if (batchShardCalls_)
            batchShardCalls_->inc();
        std::vector<const json::Value *> rowPtrs;
        rowPtrs.reserve(group.rows.size());
        for (std::size_t i : group.rows)
            rowPtrs.push_back(&req.rows[i]);
        const std::string wire = batch::encodeRequest(
            req.workload, sharedMachine, sharedOptions, rowPtrs);

        // The group digest routes to the shard owner first; retries
        // and hedges walk the same ring order as single requests.
        server::HttpResponse upstream = routedExchange(
            *topo, group.digest, "/v1/batch", wire,
            batch::contentType, tenantHeaders, hasOverall,
            overall);

        batch::Result shard;
        std::string decodeError;
        if (upstream.status == 200 &&
            batch::decodeResponse(upstream.body, shard,
                                  &decodeError) &&
            shard.rows() == group.rows.size()) {
            for (std::size_t j = 0; j < group.rows.size(); ++j) {
                const std::size_t i = group.rows[j];
                result.ideal[i] = shard.ideal[j];
                result.brmisp[i] = shard.brmisp[j];
                result.icacheL1[i] = shard.icacheL1[j];
                result.icacheL2[i] = shard.icacheL2[j];
                result.dcacheLong[i] = shard.dcacheLong[j];
                result.dtlb[i] = shard.dtlb[j];
                result.total[i] = shard.total[j];
                result.ipc[i] = shard.ipc[j];
                result.errors[i] = shard.errors[j];
            }
        } else {
            // A failed shard degrades to error slots for its rows
            // only — the rest of the batch still answers.
            const std::string why =
                upstream.status == 200
                    ? "bad upstream batch frame: " + decodeError
                    : "upstream shard answered " +
                          std::to_string(upstream.status);
            for (std::size_t i : group.rows)
                result.errors[i] = why;
        }
    }

    if (batchRowErrors_) {
        std::uint64_t bad = 0;
        for (const std::string &e : result.errors)
            if (!e.empty())
                ++bad;
        if (bad > 0)
            batchRowErrors_->inc(bad);
    }

    server::HttpResponse out = server::HttpResponse::json(
        200, batch::toJson(result).dump());
    out.setHeader("X-Fosm-Batch-Shards",
                  std::to_string(groups.size()));
    return out;
}

server::HttpResponse
Gateway::health() const
{
    const auto members = pool_->snapshot();
    std::size_t healthy = 0;
    json::Value detail = json::Value::object();
    for (const auto &b : members) {
        if (b->healthy())
            ++healthy;
        detail.set(b->address().label, b->healthy());
    }
    json::Value body = json::Value::object();
    body.set("status", healthy > 0 ? "ok" : "unavailable");
    body.set("backends",
             static_cast<std::uint64_t>(members.size()));
    body.set("healthy", static_cast<std::uint64_t>(healthy));
    body.set("backend_health", std::move(detail));
    return server::HttpResponse::json(healthy > 0 ? 200 : 503,
                                      body.dump());
}

server::HttpResponse
Gateway::aggregateStoreStats()
{
    json::Value aggregate = json::Value::object();
    json::Value perBackend = json::Value::object();
    std::size_t reachable = 0;

    // With replication every entry exists on up to N backends, so a
    // naive sum of liveRecords double-counts. Backends that report a
    // repl.ownership split let us count each entry exactly once (at
    // its ring owner) and expose the replica copies separately.
    double ownedTotal = 0, replicaTotal = 0, foreignTotal = 0;
    std::size_t replReporting = 0;

    // Cluster-level integrity rollup: corruption found/quarantined
    // by each backend's scrubber, standing quarantines, and records
    // re-committed from ring peers.
    double corruptFound = 0, quarantined = 0, quarantineLive = 0;
    double repairedRecords = 0;
    std::size_t scrubReporting = 0;

    for (const auto &member : pool_->snapshot()) {
        Backend &b = *member;
        server::ClientResponse r;
        json::Value stats;
        std::string error;
        if (b.healthy() &&
            blockingExchange(b, "GET", "/v1/store/stats", "",
                             config_.upstream.connectTimeoutMs,
                             config_.upstream.requestTimeoutMs,
                             r) &&
            r.status == 200 &&
            json::parse(r.body, stats, &error)) {
            ++reachable;
            sumNumericLeaves(aggregate, stats, "repl");
            if (const json::Value *repl = stats.find("repl")) {
                if (const json::Value *own =
                        repl->find("ownership")) {
                    ++replReporting;
                    if (const json::Value *v = own->find("owned"))
                        ownedTotal += v->asDouble();
                    if (const json::Value *v = own->find("replica"))
                        replicaTotal += v->asDouble();
                    if (const json::Value *v = own->find("foreign"))
                        foreignTotal += v->asDouble();
                }
                if (const json::Value *counters =
                        repl->find("counters")) {
                    if (const json::Value *v =
                            counters->find("repairSuccess"))
                        repairedRecords += v->asDouble();
                }
            }
            if (const json::Value *scrub = stats.find("scrub")) {
                ++scrubReporting;
                if (const json::Value *v =
                        scrub->find("corruptFound"))
                    corruptFound += v->asDouble();
                if (const json::Value *v =
                        scrub->find("quarantined"))
                    quarantined += v->asDouble();
            }
            if (const json::Value *store = stats.find("store")) {
                if (const json::Value *v =
                        store->find("quarantineLive"))
                    quarantineLive += v->asDouble();
            }
            perBackend.set(b.address().label, std::move(stats));
        } else {
            perBackend.set(b.address().label, json::Value());
        }
    }

    json::Value body = json::Value::object();
    body.set("backends_reporting",
             static_cast<std::uint64_t>(reachable));
    if (replReporting > 0 || scrubReporting > 0) {
        json::Value cluster = json::Value::object();
        if (replReporting > 0) {
            cluster.set("owned_records", ownedTotal);
            cluster.set("replica_records", replicaTotal);
            cluster.set("foreign_records", foreignTotal);
            cluster.set("backends_with_repl",
                        static_cast<std::uint64_t>(replReporting));
            cluster.set("repaired_records", repairedRecords);
        }
        if (scrubReporting > 0) {
            cluster.set("scrub_corrupt_found", corruptFound);
            cluster.set("scrub_quarantined", quarantined);
            cluster.set("quarantine_live", quarantineLive);
            cluster.set("backends_with_scrub",
                        static_cast<std::uint64_t>(scrubReporting));
        }
        body.set("cluster", std::move(cluster));
    }
    body.set("aggregate", std::move(aggregate));
    body.set("per_backend", std::move(perBackend));
    return server::HttpResponse::json(reachable > 0 ? 200 : 502,
                                      body.dump());
}

server::HttpResponse
Gateway::adminScrub(const server::HttpRequest &request)
{
    if (request.method != "GET" && request.method != "POST")
        return jsonError(405, "use GET or POST");
    json::Value perBackend = json::Value::object();
    std::size_t reachable = 0;
    for (const auto &member : pool_->snapshot()) {
        Backend &b = *member;
        server::ClientResponse r;
        json::Value doc;
        std::string error;
        if (b.healthy() &&
            blockingExchange(b, request.method, "/admin/scrub",
                             request.body,
                             config_.upstream.connectTimeoutMs,
                             config_.upstream.requestTimeoutMs,
                             r) &&
            r.status == 200 && json::parse(r.body, doc, &error)) {
            ++reachable;
            perBackend.set(b.address().label, std::move(doc));
        } else {
            perBackend.set(b.address().label, json::Value());
        }
    }
    json::Value body = json::Value::object();
    body.set("backends_reporting",
             static_cast<std::uint64_t>(reachable));
    body.set("per_backend", std::move(perBackend));
    return server::HttpResponse::json(reachable > 0 ? 200 : 502,
                                      body.dump());
}

server::HttpResponse
Gateway::adminListBackends() const
{
    const auto now = Clock::now();
    const auto members = pool_->snapshot();
    const std::shared_ptr<const Topology> topo = topology();
    json::Value list = json::Value::array();
    for (const auto &b : members) {
        json::Value entry = json::Value::object();
        entry.set("backend", b->address().label);
        entry.set("healthy", b->healthy());
        entry.set("breaker",
                  breakerStateName(b->breaker().state()));
        entry.set("deferred", b->deferred(now));
        list.push(std::move(entry));
    }
    json::Value body = json::Value::object();
    body.set("backends", std::move(list));
    body.set("topology_backends",
             static_cast<std::uint64_t>(topo->backends.size()));
    return server::HttpResponse::json(200, body.dump());
}

server::HttpResponse
Gateway::adminChangeBackends(const std::string &body)
{
    json::Value v;
    std::string error;
    if (!json::parse(body, v, &error) || !v.isObject()) {
        return jsonError(400,
                         "body must be a JSON object: " + error);
    }
    for (const auto &member : v.members()) {
        if (member.first != "add" && member.first != "remove") {
            return jsonError(400, "unknown member '" +
                                      member.first +
                                      "' (valid: add, remove)");
        }
    }

    // Validate fully before mutating anything, so a bad request
    // leaves the membership untouched.
    std::vector<BackendAddress> toAdd;
    std::vector<std::string> toRemove;
    if (const json::Value *add = v.find("add")) {
        if (!add->isArray())
            return jsonError(
                400, "'add' must be an array of host:port strings");
        for (const json::Value &item : add->items()) {
            std::vector<BackendAddress> parsed;
            if (!item.isString() ||
                !parseBackendList(item.asString(), parsed, error) ||
                parsed.size() != 1) {
                return jsonError(400, "bad backend in 'add': " +
                                          error);
            }
            toAdd.push_back(std::move(parsed[0]));
        }
    }
    if (const json::Value *remove = v.find("remove")) {
        if (!remove->isArray())
            return jsonError(
                400,
                "'remove' must be an array of host:port labels");
        for (const json::Value &item : remove->items()) {
            if (!item.isString())
                return jsonError(400,
                                 "'remove' entries must be strings");
            if (!pool_->find(item.asString()))
                return jsonError(400, "unknown backend '" +
                                          item.asString() + "'");
            toRemove.push_back(item.asString());
        }
    }
    if (toAdd.empty() && toRemove.empty())
        return jsonError(400, "nothing to do: give add or remove");
    // Refuse a change that would leave no backends at all.
    std::size_t projected = pool_->size() + toAdd.size();
    for (const std::string &label : toRemove) {
        bool alsoAdded = false;
        for (const auto &a : toAdd)
            if (a.label == label)
                alsoAdded = true;
        if (!alsoAdded)
            --projected;
    }
    if (projected == 0)
        return jsonError(400,
                         "refusing to remove the last backend");

    for (const auto &addr : toAdd)
        pool_->add(addr);
    for (const std::string &label : toRemove)
        pool_->remove(label);
    rebuildTopology();
    if (membershipChanges_)
        membershipChanges_->inc();
    fosm::inform("gateway: membership now ", pool_->size(),
                 " backends (+", toAdd.size(), "/-",
                 toRemove.size(), ")");
    return adminListBackends();
}

server::HttpServer::Handler
Gateway::handler()
{
    return [this](const server::HttpRequest &request) {
        const std::string path = request.path();
        if (request.method == "GET" && path == "/healthz")
            return health();
        if (request.method == "GET" && path == "/metrics") {
            return metrics_
                       ? server::HttpResponse::text(
                             200, metrics_->renderPrometheus())
                       : server::HttpResponse::text(404,
                                                    "no metrics\n");
        }
        if (request.method == "GET" && path == "/v1/store/stats")
            return aggregateStoreStats();
        if (path == "/admin/backends") {
            if (request.method == "GET")
                return adminListBackends();
            if (request.method == "POST")
                return adminChangeBackends(request.body);
            return jsonError(405, "use GET or POST");
        }
        if (path == "/admin/scrub")
            return adminScrub(request);
        if (path == "/admin/tenants") {
            if (!config_.registry)
                return jsonError(404,
                                 "no tenant registry configured "
                                 "(start with --tenants-file)");
            return config_.registry->handleAdmin(request);
        }
        if (path == "/v1/batch" || isProxyPath(path)) {
            if (request.method != "POST")
                return jsonError(405, "use POST");
            // Admission (auth + rate + inflight quota) happens once,
            // here, for every proxied endpoint; the verified tenant
            // identity rides upstream on every attempt.
            tenant::AdmitDecision decision;
            HeaderList tenantHeaders;
            if (admission_) {
                decision = admission_->admit(request);
                if (!decision.admitted()) {
                    server::HttpResponse out = jsonError(
                        decision.status, decision.error);
                    if (decision.retryAfterSeconds > 0)
                        out.setHeader(
                            "Retry-After",
                            std::to_string(
                                decision.retryAfterSeconds));
                    return out;
                }
                if (!decision.tenantId.empty()) {
                    // The backend re-verifies the token itself, so a
                    // direct hit on a replica cannot bypass auth;
                    // the stamp carries the identity this gateway
                    // already checked.
                    tenantHeaders.emplace_back(
                        "Authorization",
                        request.header("authorization"));
                    tenantHeaders.emplace_back(
                        "X-Fosm-Tenant", decision.tenantId);
                }
            }
            server::HttpResponse out =
                path == "/v1/batch"
                    ? proxyBatch(request, tenantHeaders)
                    : proxy(request, tenantHeaders);
            if (admission_)
                admission_->release(decision);
            return out;
        }
        return jsonError(404, "unknown path: " + path);
    };
}

} // namespace fosm::cluster
