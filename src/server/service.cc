#include "server/service.hh"

#include <algorithm>
#include <array>

#include "common/fault_injector.hh"
#include "common/thread_pool.hh"
#include "common/version.hh"
#include "experiments/characterization_store.hh"
#include "model/batch_eval.hh"
#include "model/trends.hh"
#include "server/cpi_response.hh"
#include "server/params.hh"

namespace fosm::server {

/**
 * The /v1/cpi response document (cpi_response.hh). Shared by the
 * single-request endpoint, the batch path and /v1/optimize, which
 * cache each row under its /v1/cpi digest: all must produce
 * byte-identical documents for the same design point.
 */
json::Value
cpiResponseJson(const std::string &workload, const WorkloadData &data,
                const MachineConfig &machine,
                const IWCharacteristic &iw, const CpiBreakdown &b)
{
    json::Value out = json::Value::object();
    out.set("workload", workload);
    out.set("instructions", data.missProfile.instructions);
    out.set("machine", machineToJson(machine));

    json::Value fit = json::Value::object();
    fit.set("alpha", iw.alpha());
    fit.set("beta", iw.beta());
    fit.set("avgLatency", iw.avgLatency());
    fit.set("r2", iw.fitR2());
    out.set("iw", std::move(fit));

    json::Value cpi = json::Value::object();
    cpi.set("ideal", b.ideal);
    cpi.set("brmisp", b.brmisp);
    cpi.set("icacheL1", b.icacheL1);
    cpi.set("icacheL2", b.icacheL2);
    cpi.set("dcacheLong", b.dcacheLong);
    cpi.set("dtlb", b.dtlb);
    cpi.set("total", b.total());
    out.set("cpi", std::move(cpi));
    out.set("ipc", b.ipc());

    json::Value penalties = json::Value::object();
    penalties.set("branchPerEvent", b.branchPenaltyPerEvent);
    penalties.set("icachePerEvent", b.icachePenaltyPerEvent);
    penalties.set("dcachePerEvent", b.dcachePenaltyPerEvent);
    penalties.set("ldmOverlapFactor", b.ldmOverlapFactor);
    out.set("penalties", std::move(penalties));
    return out;
}

/** Inverse of the above for cached rows — see cpi_response.hh. */
bool
extractColumns(const std::string &responseText,
               std::array<double, 8> &cols)
{
    json::Value doc;
    if (!json::parse(responseText, doc, nullptr))
        return false;
    const json::Value *cpi = doc.find("cpi");
    const json::Value *ipc = doc.find("ipc");
    if (!cpi || !cpi->isObject() || !ipc || !ipc->isNumber())
        return false;
    static constexpr const char *kNames[] = {
        "ideal",      "brmisp", "icacheL1", "icacheL2",
        "dcacheLong", "dtlb",   "total",
    };
    for (std::size_t i = 0; i < 7; ++i) {
        const json::Value *v = cpi->find(kNames[i]);
        if (!v || !v->isNumber())
            return false;
        cols[i] = v->asDouble();
    }
    cols[7] = ipc->asDouble();
    return true;
}


ModelService::ModelService(ServiceConfig config,
                           MetricsRegistry &metrics)
    : config_(config), metrics_(metrics),
      cache_(config.cacheCapacity, config.cacheShards,
             config.cacheTtlS),
      cacheHits_(metrics.counter("fosm_cache_hits_total",
                                 "Design-point cache hits")),
      cacheMisses_(metrics.counter("fosm_cache_misses_total",
                                   "Design-point cache misses")),
      evaluations_(metrics.counter(
          "fosm_model_evaluations_total",
          "First-order model evaluations performed")),
      storeRefills_(metrics.counter(
          "fosm_store_refills_total",
          "Responses served from the persistent store after an LRU "
          "miss")),
      deadlineShed_(metrics.counter(
          "fosm_deadline_shed_total",
          "Requests answered 504 because their deadline expired "
          "before model evaluation started",
          "stage=\"pre-eval\"")),
      batchRows_(metrics.counter("fosm_batch_rows_total",
                                 "Design points received via "
                                 "/v1/batch")),
      batchRowErrors_(metrics.counter(
          "fosm_batch_row_errors_total",
          "Batch rows answered with a per-row error slot")),
      batchShedRows_(metrics.counter(
          "fosm_batch_shed_rows_total",
          "Batch rows shed unevaluated because the request deadline "
          "expired mid-batch")),
      optSpaces_(metrics.counter("fosm_opt_spaces_total",
                                 "Design spaces evaluated via "
                                 "/v1/optimize")),
      optPointsPlanned_(metrics.counter(
          "fosm_opt_points_planned_total",
          "Feasible design points handed to the sweep planner")),
      optPointsDeduped_(metrics.counter(
          "fosm_opt_points_deduped_total",
          "Planned points answered from the response caches and "
          "never scheduled")),
      optPointsEvaluated_(metrics.counter(
          "fosm_opt_points_evaluated_total",
          "Planned points evaluated through the batched kernels")),
      optIwFits_(metrics.counter(
          "fosm_opt_iw_fits_total",
          "Distinct IW characterizations fit per optimize sweep "
          "(one per distinct width, not per point)")),
      optBatchesShed_(metrics.counter(
          "fosm_opt_batches_shed_total",
          "Optimize evaluation batches shed because the request "
          "deadline expired mid-sweep")),
      optPointsShed_(metrics.counter(
          "fosm_opt_points_shed_total",
          "Design points inside shed optimize batches"))
{
    if (!config_.storeDir.empty()) {
        store::StoreConfig sc;
        sc.dir = config_.storeDir;
        sc.verifyOnRead = config_.storeVerifyReads;
        store_ = std::make_shared<store::PersistentStore>(sc);
        // Startup schema pin: cache keys already carry the schema
        // version, so entries from another vintage can never be
        // *served* — but a version flip would leave every "r/" entry
        // silently unreachable while the store keeps growing. Refuse
        // to open such a store so the operator deletes or migrates it
        // deliberately instead of serving out of an all-miss cache.
        const std::string schemaKey = "m/schemaVersion";
        const std::string current =
            std::to_string(modelSchemaVersion);
        std::string persisted;
        if (store_->get(schemaKey, persisted)) {
            if (persisted != current) {
                throw std::runtime_error(
                    "persistent store '" + config_.storeDir +
                    "' was written under model schema version " +
                    persisted + " but this build is version " +
                    current +
                    "; refusing to serve its stale 'r/' entries — "
                    "remove the store directory (or point at a "
                    "fresh one) to continue");
            }
        } else {
            store_->put(schemaKey, current);
        }
        persistent_ =
            std::make_unique<PersistentResponseCache>(store_);
        bench_.setCharacterizationStore(
            std::make_shared<CharacterizationStore>(store_));

        metrics_.addCallbackGauge(
            "fosm_store_live_records",
            "Live records in the persistent store", [this] {
                return static_cast<double>(
                    store_->stats().liveRecords);
            });
        metrics_.addCallbackGauge(
            "fosm_store_live_bytes",
            "Bytes of live data in the persistent store", [this] {
                return static_cast<double>(store_->stats().liveBytes);
            });
        metrics_.addCallbackGauge(
            "fosm_store_dead_bytes",
            "Bytes awaiting compaction in the persistent store",
            [this] {
                return static_cast<double>(store_->stats().deadBytes);
            });
        metrics_.addCallbackGauge(
            "fosm_store_segments",
            "Segment files in the persistent store", [this] {
                return static_cast<double>(store_->stats().segments);
            });
        metrics_.addCallbackGauge(
            "fosm_store_compactions_total",
            "Compactions performed since this store opened", [this] {
                return static_cast<double>(
                    store_->stats().compactions);
            });
        metrics_.addCallbackGauge(
            "fosm_store_corrupt_reads_total",
            "CRC-failed gets degraded to misses", [this] {
                return static_cast<double>(
                    store_->stats().corruptReads);
            });
        metrics_.addCallbackGauge(
            "fosm_store_quarantine_live",
            "Corrupt records currently quarantined (q/ marks)",
            [this] {
                return static_cast<double>(
                    store_->stats().quarantineLive);
            });
    }

    metrics_.addCallbackGauge(
        "fosm_cache_entries", "Design points currently cached",
        [this] { return static_cast<double>(cache_.size()); });
    metrics_.addCallbackGauge(
        "fosm_cache_hit_rate", "Lifetime cache hit fraction",
        [this] { return cache_.hitRate(); });

    router_.addJson("POST", "/v1/cpi",
                    [this](const json::Value &request) {
                        return cpi(request);
                    });
    router_.addJson("POST", "/v1/iw-curve",
                    [this](const json::Value &request) {
                        return iwCurve(request);
                    });
    router_.addJson("POST", "/v1/trends",
                    [this](const json::Value &request) {
                        return trends(request);
                    });
    // Raw route: /v1/batch negotiates the binary wire format by
    // Content-Type and reads the request deadline, so it needs the
    // HttpRequest, not just a parsed JSON body.
    router_.add("POST", "/v1/batch", [this](const HttpRequest &r) {
        return batchHttp(r);
    });
    // Raw route: /v1/optimize reads the request deadline to shed
    // remaining evaluation waves (partial results go out as 206).
    router_.add("POST", "/v1/optimize",
                [this](const HttpRequest &r) {
                    return optimizeHttp(r);
                });
    router_.add("GET", "/healthz", [this](const HttpRequest &) {
        return HttpResponse::json(200, health().dump());
    });
    router_.add("GET", "/v1/store/stats",
                [this](const HttpRequest &) {
                    return HttpResponse::json(200,
                                              storeStats().dump());
                });
    router_.add("GET", "/metrics", [this](const HttpRequest &) {
        HttpResponse r = HttpResponse::text(
            200, metrics_.renderPrometheus());
        r.headers.clear();
        r.setHeader("Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8");
        return r;
    });
}

std::string
ModelService::cacheKey(const std::string &path,
                       const json::Value &body)
{
    return "v" + std::to_string(modelSchemaVersion) + "\n" + path +
           "\n" + body.canonical();
}

std::vector<std::string>
ModelService::metricPaths() const
{
    return router_.paths();
}

void
ModelService::warmup()
{
    bench_.buildAll();
}

json::Value
ModelService::storeStats() const
{
    json::Value v = json::Value::object();
    v.set("enabled", static_cast<bool>(store_));
    if (!store_)
        return v;
    const store::StoreStats s = store_->stats();
    v.set("dir", config_.storeDir);
    v.set("schemaVersion",
          static_cast<std::uint64_t>(modelSchemaVersion));
    json::Value d = json::Value::object();
    d.set("segments", s.segments);
    d.set("liveRecords", s.liveRecords);
    d.set("deadRecords", s.deadRecords);
    d.set("liveBytes", s.liveBytes);
    d.set("deadBytes", s.deadBytes);
    d.set("totalBytes", s.totalBytes);
    d.set("appends", s.appends);
    d.set("gets", s.gets);
    d.set("hits", s.hits);
    d.set("compactions", s.compactions);
    d.set("truncatedTails", s.truncatedTails);
    d.set("maxLsn", s.maxLsn);
    d.set("corruptReads", s.corruptReads);
    d.set("quarantined", s.quarantined);
    d.set("quarantineLive", s.quarantineLive);
    // Per-segment LSN watermarks and entry counts: the metadata the
    // anti-entropy sweep keys its incremental catch-up on, exposed
    // for fosm-store watermarks and operators chasing replica lag.
    json::Value segments = json::Value::array();
    for (const store::SegmentLsnInfo &info : store_->segmentLsns()) {
        json::Value seg = json::Value::object();
        seg.set("id", info.id);
        seg.set("records", info.records);
        seg.set("liveRecords", info.liveRecords);
        seg.set("bytes", info.bytes);
        seg.set("minLsn", info.minLsn);
        seg.set("maxLsn", info.maxLsn);
        seg.set("sealed", info.sealed);
        segments.push(std::move(seg));
    }
    d.set("segmentLsns", std::move(segments));
    v.set("store", std::move(d));
    v.set("responseRefills", persistent_->storeHits());
    v.set("responseRepairs", persistent_->readRepairs());
    if (replStats_)
        v.set("repl", replStats_());
    if (scrubStats_)
        v.set("scrub", scrubStats_());
    return v;
}

json::Value
ModelService::health() const
{
    json::Value v = json::Value::object();
    v.set("status", "ok");
    v.set("service", "fosm-serve");
    v.set("workloads",
          static_cast<std::uint64_t>(Workbench::benchmarks().size()));
    return v;
}

HttpServer::Handler
ModelService::handler()
{
    return [this](const HttpRequest &request) -> HttpResponse {
        const std::string path = request.path();
        // Chaos hook: lets the fault harness make this replica slow
        // or failing while /healthz stays green — the exact failure
        // mode circuit breakers exist for. /metrics stays exempt too
        // so the harness can keep scraping a faulted replica. faultAt
        // also arms FOSM_FAULTS on first use; guarding the call on
        // active() here would keep the env config unread.
        if (path != "/healthz" && path != "/metrics") {
            const FaultAction fault = faultAt("serve.handler");
            if (fault.kind != FaultKind::None) {
                faultSleep(fault);
                if (fault.kind == FaultKind::Error) {
                    return HttpResponse::json(
                        500, errorJson("injected fault"));
                }
            }
        }
        // Memoize successful POST /v1/* evaluations by canonical
        // request digest. The parse needed for canonicalization is
        // trivial next to the evaluation (and the cache makes even
        // that skippable for the response itself).
        // /v1/batch opts out of whole-request memoization: its body
        // may be binary (not canonicalizable as JSON), and its rows
        // are cached individually under their /v1/cpi digests, which
        // a whole-batch entry would bypass.
        const bool cacheable = request.method == "POST" &&
                               path.rfind("/v1/", 0) == 0 &&
                               path != "/v1/batch";
        if (cacheable) {
            json::Value body = json::Value::object();
            std::string error;
            if (request.body.empty() ||
                json::parse(request.body, body, &error)) {
                const std::string key = cacheKey(path, body);
                std::string cached;
                if (cacheGet(key, cached))
                    return HttpResponse::json(200, cached);
                // Both caches missed, so real evaluation is next.
                // If the budget is already spent the waiter has
                // timed out; don't burn the cycles.
                if (request.deadlineExpired()) {
                    deadlineShed_.inc();
                    return HttpResponse::json(
                        504,
                        errorJson(
                            "deadline exceeded before evaluation"));
                }
                HttpResponse response = router_.route(request);
                if (response.status == 200)
                    cachePut(key, response.body);
                return response;
            }
            // Malformed body: let the router produce the 400.
        }
        return router_.route(request);
    };
}

bool
ModelService::cacheGet(const std::string &key, std::string &value)
{
    if (cache_.get(key, value)) {
        cacheHits_.inc();
        return true;
    }
    cacheMisses_.inc();
    // Second tier: the persistent store. A hit serves the
    // byte-identical response a previous process computed, and
    // repopulates the LRU.
    if (persistent_ && persistent_->get(key, value)) {
        storeRefills_.inc();
        cache_.put(key, value);
        return true;
    }
    return false;
}

void
ModelService::cachePut(const std::string &key, const std::string &value)
{
    cache_.put(key, value);
    if (persistent_)
        persistent_->put(key, value);
}

opt::SweepPlan
ModelService::planPoints(DesignPoints &points, std::size_t batchRows)
{
    points.cols.resize(points.machines.size());
    const opt::SweepPlan plan = opt::planSweep(
        points.machines.size(),
        [&](std::size_t i) {
            std::string text;
            return cacheGet(points.keys[i], text) &&
                   extractColumns(text, points.cols[i]);
        },
        [&](std::size_t i) -> std::uint64_t {
            return points.machines[i].width;
        },
        batchRows);
    // The IW fit depends only on the workload and the width: one fit
    // per distinct width the misses need, shared by every batch.
    for (const std::uint64_t key : plan.characterizationKeys) {
        const auto width = static_cast<std::uint32_t>(key);
        points.fits.emplace(
            width, Workbench::fitIw(points.data->iwPoints,
                                    points.data->missProfile.avgLatency,
                                    width));
    }
    return plan;
}

void
ModelService::evaluatePoints(DesignPoints &points,
                             const std::vector<std::size_t> &batch)
{
    std::vector<IWCharacteristic> iws;
    std::vector<MachineConfig> machines;
    iws.reserve(batch.size());
    machines.reserve(batch.size());
    for (const std::size_t i : batch) {
        machines.push_back(points.machines[i]);
        iws.push_back(points.fits.at(points.machines[i].width));
    }
    const WorkloadData &data = *points.data;
    const std::vector<CpiBreakdown> bs =
        evaluateBatch(iws, machines, data.missProfile, points.options);
    evaluations_.inc(batch.size());
    const bool caching = cache_.capacity() > 0 || persistent_;
    for (std::size_t k = 0; k < batch.size(); ++k) {
        const std::size_t i = batch[k];
        const CpiBreakdown &b = bs[k];
        points.cols[i] = {b.ideal,      b.brmisp, b.icacheL1,
                          b.icacheL2,   b.dcacheLong,
                          b.dtlb,       b.total(), b.ipc()};
        // Write the full single-request response through the caches
        // so a later /v1/cpi for this design point is a
        // byte-identical hit.
        if (caching) {
            cachePut(points.keys[i],
                     cpiResponseJson(points.workload, data,
                                     machines[k], iws[k], b)
                         .dump());
        }
    }
}

json::Value
ModelService::cpi(const json::Value &request)
{
    if (!request.isObject())
        badRequest("request body must be a JSON object");
    requireMembers(request, "request",
                   {"workload", "machine", "options"});
    const std::string workload = workloadMember(request);
    const MachineConfig machine = machineFromJson(request);
    const ModelOptions options = optionsFromJson(request);

    const WorkloadData &data = bench_.workload(workload);
    const IWCharacteristic iw = Workbench::fitIw(
        data.iwPoints, data.missProfile.avgLatency, machine.width);
    const FirstOrderModel model(machine, options);
    const CpiBreakdown b = model.evaluate(iw, data.missProfile);
    evaluations_.inc();
    return cpiResponseJson(workload, data, machine, iw, b);
}

json::Value
ModelService::iwCurve(const json::Value &request)
{
    if (!request.isObject())
        badRequest("request body must be a JSON object");
    requireMembers(request, "request",
                   {"workload", "windows", "width"});
    const std::string workload = workloadMember(request);
    const std::uint32_t width = intMember(request, "width", 4, 0, 64);
    const std::vector<std::uint32_t> windows =
        intArrayMember(request, "windows", {}, 1, 4096, 64);

    const WorkloadData &data = bench_.workload(workload);
    std::vector<IwPoint> points;
    if (windows.empty()) {
        // The standard Figure 4 sweep is part of the cached
        // characterization.
        points = data.iwPoints;
    } else {
        // Custom sweep: re-measure on the cached trace.
        // measureIwCurve fans the window sizes out over the global
        // thread pool internally.
        WindowSimConfig config;
        config.unitLatency = true;
        config.issueWidth = 0;
        points = measureIwCurve(data.trace, windows, config);
    }
    const IWCharacteristic fit = Workbench::fitIw(
        points, data.missProfile.avgLatency, width);

    json::Value out = json::Value::object();
    out.set("workload", workload);
    out.set("width", width);
    out.set("avgLatency", data.missProfile.avgLatency);
    json::Value arr = json::Value::array();
    for (const IwPoint &p : points) {
        json::Value point = json::Value::object();
        point.set("window", p.windowSize);
        point.set("ipc", p.ipc);
        arr.push(std::move(point));
    }
    out.set("points", std::move(arr));
    json::Value f = json::Value::object();
    f.set("alpha", fit.alpha());
    f.set("beta", fit.beta());
    f.set("r2", fit.fitR2());
    out.set("fit", std::move(f));
    return out;
}

json::Value
ModelService::trends(const json::Value &request)
{
    if (!request.isObject())
        badRequest("request body must be a JSON object");
    requireMembers(request, "request",
                   {"study", "widths", "depths", "fractions",
                    "config"});
    const json::Value *studyMember = request.find("study");
    if (!studyMember || !studyMember->isString())
        badRequest("'study' (string) is required: pipeline-depth or "
                   "issue-width");
    const std::string study = studyMember->asString();
    const TrendConfig config = trendConfigFromJson(request);
    const std::vector<std::uint32_t> widths = intArrayMember(
        request, "widths", {2, 4, 6, 8}, 1, 64, 32);

    json::Value out = json::Value::object();
    out.set("study", study);
    json::Value series = json::Value::array();

    // One row per width, computed over the global pool; rows land in
    // input order.
    std::vector<json::Value> rows;
    if (study == "pipeline-depth") {
        std::vector<std::uint32_t> depths =
            intArrayMember(request, "depths", {}, 1, 200, 256);
        if (depths.empty())
            for (std::uint32_t d = 1; d <= 30; ++d)
                depths.push_back(d);
        rows = parallelMap(widths, [&](std::uint32_t width) {
            json::Value entry = json::Value::object();
            entry.set("width", width);
            json::Value points = json::Value::array();
            for (const PipelineDepthPoint &p :
                 pipelineDepthSweep(width, depths, config)) {
                json::Value point = json::Value::object();
                point.set("depth", p.depth);
                point.set("ipc", p.ipc);
                point.set("clockGhz", p.clockGhz);
                point.set("bips", p.bips);
                points.push(std::move(point));
            }
            entry.set("points", std::move(points));
            const PipelineDepthPoint optimal =
                optimalPipelineDepth(width, config);
            json::Value best = json::Value::object();
            best.set("depth", optimal.depth);
            best.set("bips", optimal.bips);
            entry.set("optimal", std::move(best));
            return entry;
        });
    } else if (study == "issue-width") {
        std::vector<double> fractions = {0.5, 0.8, 0.9, 0.95, 0.99};
        if (const json::Value *f = request.find("fractions")) {
            if (!f->isArray() || f->items().empty() ||
                f->items().size() > 32) {
                badRequest("'fractions' must be a non-empty array "
                           "(max 32)");
            }
            fractions.clear();
            for (const json::Value &item : f->items()) {
                if (!item.isNumber() || item.asDouble() <= 0.0 ||
                    item.asDouble() >= 1.0) {
                    badRequest("'fractions' entries must be in "
                               "(0, 1)");
                }
                fractions.push_back(item.asDouble());
            }
        }
        rows = parallelMap(widths, [&](std::uint32_t width) {
            json::Value entry = json::Value::object();
            entry.set("width", width);
            json::Value points = json::Value::array();
            for (const SaturationPoint &p :
                 issueWidthRequirement(width, fractions, config)) {
                json::Value point = json::Value::object();
                point.set("timeFraction", p.timeFraction);
                point.set("instructionsBetween",
                          p.instructionsBetween);
                points.push(std::move(point));
            }
            entry.set("points", std::move(points));
            json::Value ramp = json::Value::array();
            for (const double rate : issueRampSeries(width, config))
                ramp.push(rate);
            entry.set("issueRamp", std::move(ramp));
            return entry;
        });
    } else {
        badRequest("unknown study '" + study +
                   "'; valid: pipeline-depth, issue-width");
    }
    for (json::Value &entry : rows)
        series.push(std::move(entry));
    out.set("series", std::move(series));
    return out;
}

batch::Result
ModelService::batchEvaluate(const json::Value &body,
                            const HttpRequest *request)
{
    const batch::Request req = batch::parseRequest(body);
    DesignPoints points;
    points.workload = req.workload;
    // Shared options are request-level input: malformed options fail
    // the whole batch (every row would carry the same error).
    points.options = optionsFromJson(body);
    // The one characterization lookup the whole batch shares.
    points.data = &bench_.workload(req.workload);

    // Validate every row first. A row that fails becomes an error
    // slot; the rest are design points under their single-request
    // digest, and rowOf maps each point back to its row.
    const std::size_t n = req.rows.size();
    std::vector<std::string> rowError(n);
    std::vector<std::size_t> rowOf;
    for (std::size_t i = 0; i < n; ++i) {
        try {
            const json::Value merged =
                batch::mergedRowBody(req, req.rows[i]);
            points.machines.push_back(machineFromJson(merged));
            points.keys.push_back(cacheKey("/v1/cpi", merged));
            rowOf.push_back(i);
        } catch (const ServiceError &e) {
            rowError[i] = e.what();
        }
    }

    // Evaluate the misses in chunks, in order, so an expired deadline
    // sheds the remaining rows instead of finishing a batch nobody is
    // waiting for.
    constexpr std::size_t kChunk = 64;
    const opt::SweepPlan plan = planPoints(points, kChunk);
    std::size_t evaluated = 0;
    for (const std::vector<std::size_t> &chunk : plan.batches) {
        if (request && request->deadlineExpired())
            break;
        evaluatePoints(points, chunk);
        evaluated += chunk.size();
    }
    for (std::size_t k = evaluated; k < plan.misses.size(); ++k)
        rowError[rowOf[plan.misses[k]]] =
            "deadline exceeded before evaluation";
    batchShedRows_.inc(plan.misses.size() - evaluated);

    batch::Result result;
    result.workload = req.workload;
    for (std::size_t i = 0, p = 0; i < n; ++i) {
        if (!rowError[i].empty()) {
            batchRowErrors_.inc();
            result.pushError(std::move(rowError[i]));
        } else {
            const std::array<double, 8> &c = points.cols[p];
            result.pushRow(c[0], c[1], c[2], c[3], c[4], c[5], c[6],
                           c[7]);
        }
        if (p < rowOf.size() && rowOf[p] == i)
            ++p;
    }
    batchRows_.inc(n);
    return result;
}

json::Value
ModelService::batch(const json::Value &request)
{
    return batch::toJson(batchEvaluate(request, nullptr));
}

HttpResponse
ModelService::batchHttp(const HttpRequest &request)
{
    const std::string &contentType = request.header("content-type");
    const bool binary =
        contentType.rfind(batch::contentType, 0) == 0;
    json::Value body = json::Value::object();
    std::string error;
    if (binary) {
        if (!batch::decodeRequest(request.body, body, &error)) {
            return HttpResponse::json(
                400, errorJson("invalid batch frame: " + error));
        }
    } else if (!request.body.empty() &&
               !json::parse(request.body, body, &error)) {
        return HttpResponse::json(
            400, errorJson("invalid JSON body: " + error));
    }
    try {
        const batch::Result result = batchEvaluate(body, &request);
        if (binary) {
            HttpResponse r(200);
            r.body = batch::encodeResponse(result);
            r.setHeader("Content-Type", batch::contentType);
            return r;
        }
        return HttpResponse::json(200,
                                  batch::toJson(result).dump());
    } catch (const ServiceError &e) {
        return HttpResponse::json(e.status(), errorJson(e.what()));
    }
}

} // namespace fosm::server
