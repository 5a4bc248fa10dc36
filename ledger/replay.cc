/**
 * @file
 * The traced replay of a serving stream. Each replayed request runs
 * twice in this process: once through ModelService::handler(), the
 * black box whose time is server.handler_us, and once through the
 * public functions that handler calls today, in the same order, one
 * span per call. The second copy owns its own LRU and store, primed
 * the same way, so both see the same hits and misses.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <map>

#include "cluster/gateway.hh"
#include "ledger.hh"
#include "model/batch_eval.hh"
#include "server/client.hh"
#include "server/cpi_response.hh"
#include "server/params.hh"
#include "server/service.hh"

namespace ledger {

using namespace fosm;
using server::HttpRequest;
using server::HttpResponse;

namespace {

const std::size_t kMaxBody = server::HttpServerConfig{}.maxBodyBytes;

/** Request idx of the stream as the client sends it. */
std::string
wireFor(const Stream &s, std::uint32_t idx)
{
    return server::serializeRequest("POST", s.path, "127.0.0.1",
                                    s.body[idx]);
}

HttpRequest
parseWire(const std::string &wire)
{
    HttpRequest request;
    std::size_t consumed = 0;
    std::string error;
    server::parseHttpRequest(wire, kMaxBody, request, consumed, error);
    return request;
}

/** ModelService's request path for /v1/cpi and /v1/batch, spanned. */
class Decomposed
{
  public:
    Decomposed(Workbench &bench, const std::string &storeDir)
        : bench_(bench),
          lru_(server::ServiceConfig{}.cacheCapacity,
               server::ServiceConfig{}.cacheShards,
               server::ServiceConfig{}.cacheTtlS),
          persistent_(openStore(storeDir))
    {
    }

    /** Serve one request; returns the response body. */
    std::string
    serve(const std::string &wire, std::uint64_t id, Tracer &t)
    {
        Scoped req(t, "request", Tracer::none, id);
        HttpRequest request;
        {
            Scoped s(t, "server.http_parse", req.id(), id);
            request = parseWire(wire);
        }
        HttpResponse response;
        {
            Scoped h(t, "server.handler", req.id(), id);
            response = request.path() == "/v1/batch"
                           ? batch(request, id, h.id(), t)
                           : cpi(request, id, h.id(), t);
        }
        Scoped s(t, "server.http_write", req.id(), id);
        server::serializeResponse(response, request.keepAlive);
        return response.body;
    }

  private:
    static std::shared_ptr<store::PersistentStore>
    openStore(const std::string &dir)
    {
        store::StoreConfig config;
        config.dir = dir;
        return std::make_shared<store::PersistentStore>(config);
    }

    /** ModelService::handler() for a cacheable POST, then cpi(). */
    HttpResponse
    cpi(const HttpRequest &request, std::uint64_t id, std::uint32_t hid,
        Tracer &t)
    {
        const std::string path = request.path();
        json::Value body = json::Value::object();
        std::string error;
        {
            Scoped s(t, "server.json_parse", hid, id);
            json::parse(request.body, body, &error);
        }
        std::string key;
        {
            Scoped s(t, "server.cache_key", hid, id);
            key = server::ModelService::cacheKey(path, body);
        }
        std::string cached;
        bool hit = false;
        {
            Scoped s(t, "server.lru_get", hid, id);
            hit = lru_.get(key, cached);
        }
        if (!hit) {
            {
                Scoped s(t, "store.get", hid, id);
                hit = persistent_.get(key, cached);
            }
            if (hit) {
                Scoped s(t, "server.lru_put", hid, id);
                lru_.put(key, cached);
            }
        }
        if (hit) {
            Scoped s(t, "server.respond", hid, id);
            return HttpResponse::json(200, cached);
        }

        // Router::addJson parses the body again before calling
        // ModelService::cpi.
        json::Value again = json::Value::object();
        {
            Scoped s(t, "server.json_parse", hid, id);
            json::parse(request.body, again, &error);
        }
        std::string name;
        MachineConfig machine;
        ModelOptions options;
        const WorkloadData *data = nullptr;
        {
            Scoped s(t, "server.params", hid, id);
            server::requireMembers(again, "request",
                                   {"workload", "machine", "options"});
            name = server::workloadMember(again);
            machine = server::machineFromJson(again);
            options = server::optionsFromJson(again);
            data = &bench_.workload(name);
        }
        IWCharacteristic iw;
        {
            Scoped s(t, "iw.fit", hid, id);
            iw = Workbench::fitIw(data->iwPoints,
                                  data->missProfile.avgLatency,
                                  machine.width);
        }
        CpiBreakdown b;
        {
            Scoped s(t, "model.scalar_eval", hid, id);
            const FirstOrderModel model(machine, options);
            b = model.evaluate(iw, data->missProfile);
        }
        std::string text;
        {
            Scoped s(t, "server.cpi_doc", hid, id);
            text =
                server::cpiResponseJson(name, *data, machine, iw, b).dump();
        }
        HttpResponse response;
        {
            Scoped s(t, "server.respond", hid, id);
            response = HttpResponse::json(200, text);
        }
        {
            Scoped s(t, "server.lru_put", hid, id);
            lru_.put(key, response.body);
        }
        Scoped s(t, "store.put", hid, id);
        persistent_.put(key, response.body);
        return response;
    }

    /** ModelService::batchHttp + batchEvaluate for a JSON body. */
    HttpResponse
    batch(const HttpRequest &request, std::uint64_t id, std::uint32_t hid,
          Tracer &t)
    {
        json::Value body = json::Value::object();
        std::string error;
        {
            Scoped s(t, "server.json_parse", hid, id);
            json::parse(request.body, body, &error);
        }
        server::batch::Request req;
        {
            Scoped s(t, "server.batch_rows", hid, id, 0);
            req = server::batch::parseRequest(body);
        }
        ModelOptions options;
        const WorkloadData *data = nullptr;
        {
            Scoped s(t, "server.params", hid, id);
            options = server::optionsFromJson(body);
            data = &bench_.workload(req.workload);
        }

        const std::size_t n = req.rows.size();
        std::vector<std::array<double, 8>> cols(n);
        std::vector<std::size_t> evalRows;
        std::vector<MachineConfig> evalMachines;
        std::vector<std::string> evalKeys;
        for (std::size_t i = 0; i < n; ++i) {
            json::Value merged;
            MachineConfig machine;
            {
                Scoped s(t, "server.batch_rows", hid, id);
                merged = server::batch::mergedRowBody(req, req.rows[i]);
                machine = server::machineFromJson(merged);
            }
            std::string key;
            {
                Scoped s(t, "server.cache_key", hid, id);
                key = server::ModelService::cacheKey("/v1/cpi", merged);
            }
            std::string cached;
            bool hit = false;
            {
                Scoped s(t, "server.lru_get", hid, id);
                hit = lru_.get(key, cached);
            }
            if (!hit) {
                {
                    Scoped s(t, "store.get", hid, id);
                    hit = persistent_.get(key, cached);
                }
                if (hit) {
                    Scoped s(t, "server.lru_put", hid, id);
                    lru_.put(key, cached);
                }
            }
            if (hit) {
                Scoped s(t, "server.extract_columns", hid, id);
                if (server::extractColumns(cached, cols[i]))
                    continue;
            }
            evalRows.push_back(i);
            evalMachines.push_back(machine);
            evalKeys.push_back(std::move(key));
        }

        // ModelService evaluates misses in chunks of 64 rows with one
        // IW fit per distinct width.
        constexpr std::size_t kChunk = 64;
        std::map<std::uint32_t, IWCharacteristic> fitByWidth;
        for (std::size_t base = 0; base < evalRows.size(); base += kChunk) {
            const std::size_t count =
                std::min(kChunk, evalRows.size() - base);
            std::vector<IWCharacteristic> iws;
            iws.reserve(count);
            std::vector<MachineConfig> machines(
                evalMachines.begin() + static_cast<long>(base),
                evalMachines.begin() + static_cast<long>(base + count));
            for (const MachineConfig &machine : machines) {
                auto it = fitByWidth.find(machine.width);
                if (it == fitByWidth.end()) {
                    Scoped s(t, "iw.fit", hid, id);
                    it = fitByWidth
                             .emplace(machine.width,
                                      Workbench::fitIw(
                                          data->iwPoints,
                                          data->missProfile.avgLatency,
                                          machine.width))
                             .first;
                }
                iws.push_back(it->second);
            }
            std::vector<CpiBreakdown> bs;
            {
                Scoped s(t, "model.batch_eval", hid, id, count);
                bs = evaluateBatch(iws, machines, data->missProfile,
                                   options);
            }
            for (std::size_t k = 0; k < count; ++k) {
                const CpiBreakdown &b = bs[k];
                cols[evalRows[base + k]] = {
                    b.ideal,      b.brmisp, b.icacheL1, b.icacheL2,
                    b.dcacheLong, b.dtlb,   b.total(),  b.ipc()};
                std::string text;
                {
                    Scoped s(t, "server.cpi_doc", hid, id);
                    text = server::cpiResponseJson(req.workload, *data,
                                                   machines[k], iws[k], b)
                               .dump();
                }
                {
                    Scoped s(t, "server.lru_put", hid, id);
                    lru_.put(evalKeys[base + k], text);
                }
                Scoped s(t, "store.put", hid, id);
                persistent_.put(evalKeys[base + k], text);
            }
        }

        std::string doc;
        {
            Scoped s(t, "server.batch_doc", hid, id);
            server::batch::Result result;
            result.workload = req.workload;
            for (const auto &c : cols)
                result.pushRow(c[0], c[1], c[2], c[3], c[4], c[5], c[6],
                               c[7]);
            doc = server::batch::toJson(result).dump();
        }
        Scoped s(t, "server.respond", hid, id);
        return HttpResponse::json(200, doc);
    }

    Workbench &bench_;
    server::ShardedLruCache<std::string> lru_;
    server::PersistentResponseCache persistent_;
};

/** Measured duration of an empty span: clock cost inside an interval. */
double
emptySpanNs()
{
    Tracer t;
    for (int i = 0; i < 20000; ++i)
        Scoped s(t, "empty", Tracer::none, 0);
    std::vector<double> d;
    for (const Tracer::Span &s : t.spans())
        d.push_back(static_cast<double>(s.dur()));
    return median(d);
}

/** Gateway::shardDigest and Gateway::handler() against a live backend. */
bool
measureGateway(const Stream &s, std::size_t requests, std::uint16_t port,
               json::Value &metrics)
{
    cluster::GatewayConfig config;
    std::string error;
    if (!cluster::parseBackendList("127.0.0.1:" + std::to_string(port),
                                   config.backends, error))
        return false;
    server::MetricsRegistry registry;
    cluster::Gateway gateway(config, &registry);
    gateway.start();
    const server::HttpServer::Handler handler = gateway.handler();
    server::HttpClient direct("127.0.0.1", port);

    bool ok = true;
    double digestNs = 0.0;
    std::vector<double> proxyNs, directNs;
    const std::size_t n = std::min(requests, s.req.size());
    for (std::size_t r = 0; r < n; ++r) {
        const std::uint32_t idx = s.req[r];
        const HttpRequest request = parseWire(wireFor(s, idx));
        std::int64_t t0 = nowNs();
        gateway.shardDigest(request.path(), request.body);
        digestNs += static_cast<double>(nowNs() - t0);

        // Alternate the order so neither path always finds the
        // backend's LRU warmed by the other.
        for (int pass = 0; pass < 2; ++pass) {
            if ((pass == 0) == (r % 2 == 0)) {
                t0 = nowNs();
                const HttpResponse resp = handler(request);
                proxyNs.push_back(static_cast<double>(nowNs() - t0));
                ok &= resp.status == 200 &&
                      bodyHash(resp.body) == s.expect[idx];
            } else {
                server::ClientResponse resp;
                t0 = nowNs();
                const bool sent =
                    direct.request("POST", s.path, request.body, resp);
                directNs.push_back(static_cast<double>(nowNs() - t0));
                ok &= sent && resp.status == 200 &&
                      bodyHash(resp.body) == s.expect[idx];
            }
        }
    }
    gateway.stop();
    metrics.set("cluster.shard_digest_ns",
                digestNs / static_cast<double>(std::max<std::size_t>(n, 1)));
    metrics.set("cluster.proxy_us", 1e-3 * median(proxyNs));
    metrics.set("cluster.hop_us",
                1e-3 * (median(proxyNs) - median(directNs)));
    return ok;
}

} // namespace

bool
replayTraced(const Stream &s, const ReplayOptions &opt,
             json::Value &metrics, json::Value &record, Tracer &spans)
{
    std::filesystem::create_directories(opt.storeDir);
    server::MetricsRegistry registry;
    server::ServiceConfig config;
    config.storeDir = opt.storeDir + "/service";
    server::ModelService service(config, registry);
    service.warmup();
    const server::HttpServer::Handler handler = service.handler();
    Decomposed decomposed(service.workbench(), opt.storeDir + "/replay");

    // Prime both copies the way the real run was primed.
    bool ok = true;
    Tracer unused;
    for (const std::uint32_t w : s.warmup) {
        const std::string wire = wireFor(s, w);
        ok &= handler(parseWire(wire)).status == 200;
        decomposed.serve(wire, 0, unused);
    }

    const double d0 = emptySpanNs();
    Tracer t;
    std::vector<double> handlerNs, fullNs;
    const std::size_t n = std::min(opt.requests, s.req.size());
    for (std::size_t r = 0; r < n; ++r) {
        const std::uint32_t idx = s.req[r];
        const std::string wire = wireFor(s, idx);
        for (int pass = 0; pass < 2; ++pass) {
            if ((pass == 0) == (r % 2 == 0)) {
                const std::int64_t t0 = nowNs();
                HttpRequest request = parseWire(wire);
                const std::int64_t t1 = nowNs();
                const HttpResponse resp = handler(request);
                const std::int64_t t2 = nowNs();
                server::serializeResponse(resp, request.keepAlive);
                const std::int64_t t3 = nowNs();
                handlerNs.push_back(static_cast<double>(t2 - t1));
                fullNs.push_back(static_cast<double>(t3 - t0));
                ok &= resp.status == 200 &&
                      bodyHash(resp.body) == s.expect[idx];
            } else {
                ok &= bodyHash(decomposed.serve(wire, r, t)) ==
                      s.expect[idx];
            }
        }
    }

    // Mean self time per call (or per item), less the clock cost an
    // empty span measures. Means, so the layers add up to the handler.
    std::map<std::string, double> totalNs;
    std::map<std::string, double> calls, items;
    std::vector<double> layerNs(n, 0.0), tracedNs(n, 0.0);
    for (const Tracer::Span &sp : t.spans()) {
        totalNs[sp.name] +=
            static_cast<double>(sp.self()) - (sp.childNs ? 0.0 : d0);
        calls[sp.name] += 1.0;
        items[sp.name] += static_cast<double>(sp.items);
        if (sp.parent != Tracer::none &&
            std::string_view(t.spans()[sp.parent].name) == "server.handler")
            layerNs[sp.req] += static_cast<double>(sp.dur()) - d0;
        if (std::string_view(sp.name) == "server.handler")
            tracedNs[sp.req] = static_cast<double>(sp.dur());
    }
    // The handler's layers against the black box on the same request.
    // Medians of per-request ratios: a stall in one call moves one
    // sample, not the check.
    double blackBox = 0.0;
    std::size_t within = 0;
    std::vector<double> sumRatio(n), overhead(n);
    for (std::size_t r = 0; r < n; ++r) {
        blackBox += handlerNs[r];
        sumRatio[r] = layerNs[r] / handlerNs[r];
        overhead[r] = tracedNs[r] / handlerNs[r];
        within += std::abs(sumRatio[r] - 1.0) <= 0.1;
    }

    auto per = [&](std::map<std::string, double> &by, const char *name) {
        const double d = by[name];
        return d > 0 ? totalNs[name] / d : 0.0;
    };
    metrics.set("server.handler_us",
                1e-3 * blackBox / static_cast<double>(n));
    metrics.set("server.transport_us",
                1e-3 * (opt.clientP50Ns - median(fullNs)));
    for (const char *name :
         {"server.http_parse", "server.http_write", "server.json_parse",
          "server.cache_key", "server.lru_get", "server.lru_put",
          "server.params", "server.respond", "server.cpi_doc",
          "server.batch_doc", "store.put", "store.get", "iw.fit"})
        metrics.set(std::string(name) + "_ns", per(calls, name));
    metrics.set("server.batch_rows_ns", per(items, "server.batch_rows"));
    metrics.set("model.batch_eval_ns", per(items, "model.batch_eval"));
    if (calls["model.scalar_eval"] > 0)
        metrics.set("model.scalar_eval_ns",
                    per(calls, "model.scalar_eval"));
    metrics.set("iw.fits", calls["iw.fit"]);

    const double ratio = median(sumRatio);
    record.set("replay_requests", static_cast<std::uint64_t>(n));
    record.set("span_clock_ns", d0);
    record.set("layer_sum_over_handler", ratio);
    record.set("requests_within_10pct",
               static_cast<double>(within) / static_cast<double>(n));
    record.set("tracing_overhead_pct", 100.0 * (median(overhead) - 1.0));
    const bool sumOk = ratio >= 0.9 && ratio <= 1.1;
    record.set("layer_sum_check", sumOk);

    if (opt.backendPort)
        ok &= measureGateway(s, std::min<std::size_t>(n, 4000),
                             opt.backendPort, metrics);
    record.set("replay_answers_match", ok);
    spans.append(t);
    return ok && sumOk;
}

} // namespace ledger
