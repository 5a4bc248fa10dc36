/**
 * @file
 * fosm-ledger: the in-process half of the perf ledger. ledger/run.py
 * builds it next to fosm-serve and fosm-gateway, starts the servers
 * and calls one of:
 *
 *   fosm-ledger serve --workload cpi_mix|cpi_gateway|batch_sweep
 *       --seed N --seconds S --port P [--backend-port B]
 *       --trace 0|1 --work-dir D --spans-dir T
 *   fosm-ledger validate --seed N --seconds S --trace 0|1 --root R
 *       --setups K --spans-dir T
 *
 * Each prints one JSON line: the oracle verdict, request counts, the
 * end-to-end numbers this process measures and, traced, the per-layer
 * split. Work per run is fixed (seconds x a nominal rate, see below),
 * so a faster build finishes sooner but never does more work.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "ledger.hh"

namespace {

using namespace ledger;
using fosm::json::Value;

/**
 * Nominal rates on a 4-core host; they fix the work per run:
 * requests (or points) = seconds x rate.
 */
constexpr double kCpiRequestsPerS = 60000.0;
/** cpi_gateway sends a prefix of cpi_mix's stream for the same seed. */
constexpr double kGatewayRequestsPerS = 34000.0;
constexpr double kBatchRequestsPerS = 300.0;
constexpr std::size_t kBatchRows = 256;
constexpr double kValidatePointsPerS = 100.0;
/** Served points checked against the simulator per serving run. */
constexpr std::size_t kServedSample = 240;
/** Requests the traced replay runs through both copies. */
constexpr std::size_t kReplayCpi = 20000;
constexpr std::size_t kReplayBatch = 36;
/** Validate points the traced run repeats with spans on. */
constexpr std::size_t kTracedPoints = 96;

std::map<std::string, std::string>
parseArgs(int argc, char **argv)
{
    std::map<std::string, std::string> a;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0)
            throw std::runtime_error("bad argument " + k);
        a[k.substr(2)] = argv[i + 1];
    }
    return a;
}

std::string
need(const std::map<std::string, std::string> &a, const std::string &k)
{
    const auto it = a.find(k);
    if (it == a.end())
        throw std::runtime_error("missing --" + k);
    return it->second;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

std::size_t
cores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

struct Scrape
{
    double hits = 0, misses = 0, evaluations = 0;
    double storeBytes = 0, storeAppends = 0;
};

Scrape
scrape(std::uint16_t port)
{
    Scrape s;
    const std::string prom = httpGet(port, "/metrics");
    s.hits = promValue(prom, "fosm_cache_hits_total");
    s.misses = promValue(prom, "fosm_cache_misses_total");
    s.evaluations = promValue(prom, "fosm_model_evaluations_total");
    Value stats;
    if (fosm::json::parse(httpGet(port, "/v1/store/stats"), stats,
                          nullptr)) {
        if (const Value *st = stats.find("store")) {
            if (const Value *v = st->find("totalBytes"))
                s.storeBytes = v->asDouble();
            if (const Value *v = st->find("appends"))
                s.storeAppends = v->asDouble();
        }
    }
    return s;
}

/** Spans stay in memory until the run ends; then one TSV per run. */
void
writeSpans(const std::map<std::string, std::string> &a,
           const std::string &workload, std::uint64_t seed, const Tracer &t)
{
    const std::string dir = need(a, "spans-dir");
    std::filesystem::create_directories(dir);
    t.write(dir + "/" + workload + "-seed" + std::to_string(seed) + ".tsv");
}

/** Validation-phase layer metrics shared by every workload. */
void
validationLayers(const Tracer &t, Value &layers)
{
    const auto l = summarize(t);
    const auto &sim = l.at("sim.simulate");
    layers.set("sim.ns_per_inst",
               sim.totalSelfNs / static_cast<double>(sim.items));
    auto mean = [&](const char *name) {
        const LayerStats &s = l.at(name);
        return s.totalSelfNs / static_cast<double>(s.calls);
    };
    if (!layers.find("model.scalar_eval_ns"))
        layers.set("model.scalar_eval_ns", mean("model.scalar_eval"));
    if (!layers.find("iw.fit_ns"))
        layers.set("iw.fit_ns", mean("iw.fit"));
}

void
setValidation(const ValidationResult &v, Value &e2e, Value &record)
{
    e2e.set("sim_minst_per_s", 1e3 * v.simInstsPerNs);
    e2e.set("model_error_pct", v.meanErrorPct);
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(v.digest));
    record.set("sim_points", static_cast<std::uint64_t>(v.pointNs.size()));
    record.set("stats_digest", std::string(digest));
}

int
serveMain(const std::map<std::string, std::string> &a)
{
    const std::string workload = need(a, "workload");
    const std::uint64_t seed = std::stoull(need(a, "seed"));
    const double seconds = std::stod(need(a, "seconds"));
    const auto port = static_cast<std::uint16_t>(std::stoi(need(a, "port")));
    const auto backend = static_cast<std::uint16_t>(
        a.count("backend-port") ? std::stoi(a.at("backend-port")) : 0);
    const bool traced = need(a, "trace") == "1";
    const std::string workDir = need(a, "work-dir");
    const bool isBatch = workload == "batch_sweep";
    if (!isBatch && workload != "cpi_mix" && workload != "cpi_gateway")
        throw std::runtime_error("unknown workload " + workload);

    fosm::Workbench bench;
    bench.buildAll();
    const Stream s =
        isBatch ? batchSweepStream(
                      seed, static_cast<std::size_t>(seconds *
                                                     kBatchRequestsPerS),
                      kBatchRows, bench)
                : cpiMixStream(seed,
                               static_cast<std::size_t>(
                                   seconds * (backend ? kGatewayRequestsPerS
                                                      : kCpiRequestsPerS)),
                               bench);
    const std::size_t conns = std::min<std::size_t>(4, cores());
    const std::uint16_t statsPort = backend ? backend : port;

    Value record = Value::object();
    Value e2e = Value::object();
    // The served points' model answers against fosm::sim. It runs
    // first, so the store's writes from the load cannot slow it.
    Tracer vt;
    const ValidationResult v = validatePoints(
        bench, servedSample(s, seed, kServedSample), traced ? &vt : nullptr);
    setValidation(v, e2e, record);

    bool ok = true;
    const LoadResult warm = runLoad(s, s.warmup, port, conns);
    ok &= warm.failed == 0 && warm.mismatched == 0;
    const Scrape before = scrape(statsPort);
    const LoadResult run = runLoad(s, s.req, port, conns);
    const Scrape after = scrape(statsPort);
    ok &= run.mismatched == 0;

    const double answered =
        static_cast<double>(run.attempted - run.failed) *
        static_cast<double>(s.pointsPerRequest);
    e2e.set("points_per_s", medianSliceRate(run.doneNs, run.wallS) *
                                static_cast<double>(s.pointsPerRequest));
    record.set("points_per_s_whole_run", answered / run.wallS);
    const double p50 = percentile(run.latencyNs, 0.5);
    e2e.set("p50_us", 1e-3 * p50);
    e2e.set("p99_us", 1e-3 * percentile(run.latencyNs, 0.99));
    record.set("latency_samples", static_cast<std::uint64_t>(run.attempted));
    record.set("warmup_requests", static_cast<std::uint64_t>(warm.attempted));
    record.set("connections", static_cast<std::uint64_t>(conns));
    record.set("timed_wall_s", run.wallS);
    record.set("mismatched", run.mismatched);

    Value layers = Value::object();
    if (traced) {
        const double lookups = (after.hits - before.hits) +
                               (after.misses - before.misses);
        layers.set("server.lru_hit_ratio",
                   lookups > 0 ? (after.hits - before.hits) / lookups : 0.0);
        const double appends = after.storeAppends - before.storeAppends;
        layers.set("store.bytes_per_point",
                   appends > 0
                       ? (after.storeBytes - before.storeBytes) / appends
                       : 0.0);
        layers.set("model.evaluations",
                   after.evaluations - before.evaluations);
        layers.set("client.cpu_share",
                   run.cpuS / (run.wallS * static_cast<double>(cores())));

        ReplayOptions opt;
        opt.storeDir = workDir + "/replay-store";
        opt.requests = isBatch ? kReplayBatch : kReplayCpi;
        opt.backendPort = workload == "cpi_gateway" ? backend : 0;
        opt.clientP50Ns = p50;
        Tracer spans;
        ok &= replayTraced(s, opt, layers, record, spans);
        validationLayers(vt, layers);
        traceSetup(layers, spans);
        spans.append(vt);
        writeSpans(a, workload, seed, spans);
    }

    Value out = Value::object();
    out.set("ok", ok);
    out.set("attempted", run.attempted);
    out.set("failed", run.failed);
    out.set("e2e", std::move(e2e));
    out.set("layers", std::move(layers));
    out.set("record", std::move(record));
    std::cout << out.dump() << std::endl;
    return 0;
}

int
validateMain(const std::map<std::string, std::string> &a)
{
    const std::uint64_t seed = std::stoull(need(a, "seed"));
    const double seconds = std::stod(need(a, "seconds"));
    const bool traced = need(a, "trace") == "1";
    const std::string root = need(a, "root");
    const std::size_t setupCount = std::stoul(need(a, "setups"));

    // Set-up: a cold characterization of all 12 profiles, repeated.
    std::vector<double> setups;
    std::unique_ptr<fosm::Workbench> bench;
    for (std::size_t i = 0; i < setupCount; ++i) {
        bench.reset();
        const std::int64_t t0 = nowNs();
        bench = std::make_unique<fosm::Workbench>();
        bench->buildAll();
        setups.push_back(1e-9 * static_cast<double>(nowNs() - t0));
    }

    Value record = Value::object();
    std::string diagnostic;
    bool ok = fig15Matches(*bench, root, diagnostic);
    record.set("fig15_rows_match", ok);
    if (!ok)
        record.set("fig15_diagnostic", diagnostic);

    const std::vector<ValidationPoint> pts = validationSample(
        seed, static_cast<std::size_t>(seconds * kValidatePointsPerS));
    const ValidationResult v = validatePoints(*bench, pts, nullptr);

    Value e2e = Value::object();
    e2e.set("setup_s", median(setups));
    e2e.set("points_per_s", medianSliceRate(v.doneNs, v.wallS));
    record.set("points_per_s_whole_run",
               static_cast<double>(pts.size()) / v.wallS);
    e2e.set("p50_us", 1e-3 * percentile(v.pointNs, 0.5));
    e2e.set("p99_us", 1e-3 * percentile(v.pointNs, 0.99));
    record.set("latency_samples", static_cast<std::uint64_t>(pts.size()));
    setValidation(v, e2e, record);

    Value layers = Value::object();
    if (traced) {
        const std::size_t k = std::min(kTracedPoints, pts.size());
        const std::vector<ValidationPoint> head(pts.begin(),
                                                pts.begin() +
                                                    static_cast<long>(k));
        Tracer t;
        const ValidationResult tv = validatePoints(*bench, head, &t);
        ok &= tv.sumCheckFailures == 0;
        record.set("point_sum_check_failures", tv.sumCheckFailures);
        record.set("worst_point_sum_ratio", tv.worstSumRatio);
        const std::vector<double> untracedHead(
            v.pointNs.begin(), v.pointNs.begin() + static_cast<long>(k));
        record.set("tracing_overhead_pct",
                   100.0 * (median(tv.pointNs) / median(untracedHead) - 1.0));
        validationLayers(t, layers);
        // One fit and one evaluation per point, untraced and traced.
        const auto evaluated = static_cast<double>(pts.size() + k);
        layers.set("iw.fits", evaluated);
        layers.set("model.evaluations", evaluated);
        layers.set("client.cpu_share",
                   v.cpuS / (v.wallS * static_cast<double>(cores())));
        traceSetup(layers, t);
        writeSpans(a, "validate", seed, t);
    }
    e2e.set("peak_rss_mb", peakRssMb());

    Value out = Value::object();
    out.set("ok", ok);
    out.set("attempted", static_cast<std::uint64_t>(pts.size()));
    out.set("failed", static_cast<std::uint64_t>(0));
    out.set("e2e", std::move(e2e));
    out.set("layers", std::move(layers));
    out.set("record", std::move(record));
    std::cout << out.dump() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            throw std::runtime_error("usage: fosm-ledger serve|validate "
                                     "--name value ...");
        const std::string cmd = argv[1];
        const auto a = parseArgs(argc, argv);
        if (cmd == "serve")
            return serveMain(a);
        if (cmd == "validate")
            return validateMain(a);
        throw std::runtime_error("unknown subcommand " + cmd);
    } catch (const std::exception &e) {
        std::cerr << "fosm-ledger: " << e.what() << "\n";
        return 2;
    }
}
