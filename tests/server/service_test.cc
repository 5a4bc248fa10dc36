/**
 * @file
 * Model-service tests: endpoint logic, request validation, response
 * caching, and the headline acceptance criterion — CPI numbers served
 * over HTTP are bit-identical to a direct FirstOrderModel call.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "model/trends.hh"
#include "server/client.hh"
#include "server/service.hh"

namespace fosm::server {
namespace {

/**
 * Shared service over a short trace so the whole suite builds each
 * workload characterization once. The env var must be set before the
 * first Workbench is constructed.
 */
MetricsRegistry &
sharedRegistry()
{
    static MetricsRegistry registry;
    return registry;
}

ModelService &
sharedService()
{
    static ModelService *service = [] {
        ::setenv("FOSM_TRACE_INSTS", "5000", 1);
        return new ModelService(ServiceConfig{}, sharedRegistry());
    }();
    return *service;
}

json::Value
cpiRequest(const std::string &workload)
{
    json::Value req = json::Value::object();
    req.set("workload", workload);
    return req;
}

double
member(const json::Value &v, const char *outer, const char *inner)
{
    const json::Value *o = v.find(outer);
    EXPECT_NE(o, nullptr) << outer;
    const json::Value *i = o->find(inner);
    EXPECT_NE(i, nullptr) << inner;
    return i->asDouble();
}

// -- The acceptance criterion --------------------------------------

TEST(Service, CpiBitIdenticalToDirectModelForAllWorkloads)
{
    ModelService &service = sharedService();
    const MachineConfig machine = Workbench::baselineMachine();
    const ModelOptions options;

    for (const std::string &name : Workbench::benchmarks()) {
        // What a direct caller computes from the same Workbench.
        const WorkloadData &data = service.workbench().workload(name);
        const IWCharacteristic iw = Workbench::fitIw(
            data.iwPoints, data.missProfile.avgLatency,
            machine.width);
        const CpiBreakdown direct =
            FirstOrderModel(machine, options)
                .evaluate(iw, data.missProfile);

        // What the service serves — after a full serialize/reparse
        // round trip, i.e. exactly the bytes an HTTP client gets.
        const json::Value served = service.cpi(cpiRequest(name));
        json::Value back;
        std::string error;
        ASSERT_TRUE(json::parse(served.dump(), back, &error))
            << error;

        EXPECT_EQ(member(back, "cpi", "ideal"), direct.ideal) << name;
        EXPECT_EQ(member(back, "cpi", "brmisp"), direct.brmisp)
            << name;
        EXPECT_EQ(member(back, "cpi", "icacheL1"), direct.icacheL1)
            << name;
        EXPECT_EQ(member(back, "cpi", "icacheL2"), direct.icacheL2)
            << name;
        EXPECT_EQ(member(back, "cpi", "dcacheLong"),
                  direct.dcacheLong)
            << name;
        EXPECT_EQ(member(back, "cpi", "dtlb"), direct.dtlb) << name;
        EXPECT_EQ(member(back, "cpi", "total"), direct.total())
            << name;
        const json::Value *ipc = back.find("ipc");
        ASSERT_NE(ipc, nullptr);
        EXPECT_EQ(ipc->asDouble(), direct.ipc()) << name;
        EXPECT_EQ(member(back, "iw", "alpha"), iw.alpha()) << name;
        EXPECT_EQ(member(back, "iw", "beta"), iw.beta()) << name;
    }
}

TEST(Service, CpiHonorsMachineOverrides)
{
    ModelService &service = sharedService();
    json::Value req = cpiRequest("mcf");
    json::Value machineJson = json::Value::object();
    machineJson.set("width", 8);
    machineJson.set("deltaD", 400);
    req.set("machine", std::move(machineJson));
    const json::Value served = service.cpi(req);

    MachineConfig machine = Workbench::baselineMachine();
    machine.width = 8;
    machine.deltaD = 400;
    const WorkloadData &data = service.workbench().workload("mcf");
    const IWCharacteristic iw = Workbench::fitIw(
        data.iwPoints, data.missProfile.avgLatency, machine.width);
    const CpiBreakdown direct =
        FirstOrderModel(machine, ModelOptions{})
            .evaluate(iw, data.missProfile);

    EXPECT_EQ(member(served, "cpi", "total"), direct.total());
    const json::Value *m = served.find("machine");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->find("width")->asInt(), 8);
    EXPECT_EQ(m->find("deltaD")->asInt(), 400);
}

// -- Validation ----------------------------------------------------

int
errorStatus(ModelService &service, const json::Value &request)
{
    try {
        service.cpi(request);
    } catch (const ServiceError &e) {
        return e.status();
    }
    return 0;
}

TEST(Service, RejectsInvalidCpiRequests)
{
    ModelService &service = sharedService();

    // Missing workload.
    EXPECT_EQ(errorStatus(service, json::Value::object()), 400);
    // Unknown workload.
    EXPECT_EQ(errorStatus(service, cpiRequest("nosuch")), 400);
    // Unknown top-level member (typo protection).
    {
        json::Value req = cpiRequest("gzip");
        req.set("wdith", 4);
        EXPECT_EQ(errorStatus(service, req), 400);
    }
    // Width out of range.
    {
        json::Value req = cpiRequest("gzip");
        json::Value m = json::Value::object();
        m.set("width", 1000);
        req.set("machine", std::move(m));
        EXPECT_EQ(errorStatus(service, req), 400);
    }
    // Non-integer width.
    {
        json::Value req = cpiRequest("gzip");
        json::Value m = json::Value::object();
        m.set("width", 2.5);
        req.set("machine", std::move(m));
        EXPECT_EQ(errorStatus(service, req), 400);
    }
    // Cluster divisibility.
    {
        json::Value req = cpiRequest("gzip");
        json::Value m = json::Value::object();
        m.set("width", 4);
        m.set("clusters", 3);
        req.set("machine", std::move(m));
        EXPECT_EQ(errorStatus(service, req), 400);
    }
    // Bad option enum.
    {
        json::Value req = cpiRequest("gzip");
        json::Value o = json::Value::object();
        o.set("branchMode", "bogus");
        req.set("options", std::move(o));
        EXPECT_EQ(errorStatus(service, req), 400);
    }
}

// -- Endpoint logic ------------------------------------------------

TEST(Service, IwCurveServesCachedCharacterization)
{
    ModelService &service = sharedService();
    json::Value req = json::Value::object();
    req.set("workload", "gzip");
    const json::Value out = service.iwCurve(req);

    const WorkloadData &data = service.workbench().workload("gzip");
    const json::Value *points = out.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->items().size(), data.iwPoints.size());
    for (std::size_t i = 0; i < data.iwPoints.size(); ++i) {
        const json::Value &p = points->items()[i];
        EXPECT_EQ(p.find("window")->asInt(),
                  static_cast<std::int64_t>(
                      data.iwPoints[i].windowSize));
        EXPECT_EQ(p.find("ipc")->asDouble(), data.iwPoints[i].ipc);
    }
}

/** Bit image of a double, so EXPECT_EQ means "same bits". */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(Service, TrendsMatchesDirectSweep)
{
    ModelService &service = sharedService();
    const TrendConfig config;
    const std::uint32_t widthList[] = {2, 4};
    json::Value widths = json::Value::array();
    for (const std::uint32_t w : widthList)
        widths.push(w);

    // Pipeline-depth study (Fig. 17): every point and the optimum.
    json::Value req = json::Value::object();
    req.set("study", "pipeline-depth");
    req.set("widths", widths);
    json::Value depths = json::Value::array();
    depths.push(5);
    depths.push(10);
    req.set("depths", std::move(depths));
    const json::Value out = service.trends(req);

    const json::Value *series = out.find("series");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->items().size(), 2u);
    const std::vector<std::uint32_t> depthList = {5, 10};
    for (std::size_t i = 0; i < 2; ++i) {
        const auto direct =
            pipelineDepthSweep(widthList[i], depthList, config);
        const json::Value &entry = series->items()[i];
        EXPECT_EQ(entry.find("width")->asInt(),
                  static_cast<std::int64_t>(widthList[i]));
        const json::Value *points = entry.find("points");
        ASSERT_NE(points, nullptr);
        ASSERT_EQ(points->items().size(), direct.size());
        for (std::size_t j = 0; j < direct.size(); ++j) {
            const json::Value &p = points->items()[j];
            EXPECT_EQ(p.find("depth")->asInt(),
                      static_cast<std::int64_t>(direct[j].depth));
            EXPECT_EQ(bits(p.find("ipc")->asDouble()),
                      bits(direct[j].ipc));
            EXPECT_EQ(bits(p.find("clockGhz")->asDouble()),
                      bits(direct[j].clockGhz));
            EXPECT_EQ(bits(p.find("bips")->asDouble()),
                      bits(direct[j].bips));
        }
        const PipelineDepthPoint optimal =
            optimalPipelineDepth(widthList[i], config);
        const json::Value *best = entry.find("optimal");
        ASSERT_NE(best, nullptr);
        EXPECT_EQ(best->find("depth")->asInt(),
                  static_cast<std::int64_t>(optimal.depth));
        EXPECT_EQ(bits(best->find("bips")->asDouble()),
                  bits(optimal.bips));
    }

    // Issue-width study (Figs. 18-19): saturation points and ramp.
    json::Value widthReq = json::Value::object();
    widthReq.set("study", "issue-width");
    widthReq.set("widths", widths);
    const json::Value widthOut = service.trends(widthReq);
    const json::Value *widthSeries = widthOut.find("series");
    ASSERT_NE(widthSeries, nullptr);
    ASSERT_EQ(widthSeries->items().size(), 2u);
    const std::vector<double> fractions = {0.5, 0.8, 0.9, 0.95, 0.99};
    for (std::size_t i = 0; i < 2; ++i) {
        const json::Value &entry = widthSeries->items()[i];
        EXPECT_EQ(entry.find("width")->asInt(),
                  static_cast<std::int64_t>(widthList[i]));
        const auto saturation =
            issueWidthRequirement(widthList[i], fractions, config);
        const json::Value *points = entry.find("points");
        ASSERT_NE(points, nullptr);
        ASSERT_EQ(points->items().size(), saturation.size());
        for (std::size_t j = 0; j < saturation.size(); ++j) {
            const json::Value &p = points->items()[j];
            EXPECT_EQ(bits(p.find("timeFraction")->asDouble()),
                      bits(saturation[j].timeFraction));
            EXPECT_EQ(bits(p.find("instructionsBetween")->asDouble()),
                      bits(saturation[j].instructionsBetween));
        }
        const std::vector<double> ramp =
            issueRampSeries(widthList[i], config);
        const json::Value *served = entry.find("issueRamp");
        ASSERT_NE(served, nullptr);
        ASSERT_EQ(served->items().size(), ramp.size());
        for (std::size_t j = 0; j < ramp.size(); ++j)
            EXPECT_EQ(bits(served->items()[j].asDouble()),
                      bits(ramp[j]));
    }
}

TEST(Service, CacheKeyIsCanonical)
{
    json::Value a;
    json::Value b;
    std::string error;
    ASSERT_TRUE(json::parse(
        "{\"workload\": \"gzip\", \"machine\": {\"width\": 8}}", a,
        &error));
    ASSERT_TRUE(json::parse(
        "{\"machine\":{\"width\":8},\"workload\":\"gzip\"}", b,
        &error));
    EXPECT_EQ(ModelService::cacheKey("/v1/cpi", a),
              ModelService::cacheKey("/v1/cpi", b));
    EXPECT_NE(ModelService::cacheKey("/v1/cpi", a),
              ModelService::cacheKey("/v1/iw-curve", a));
}

// -- Golden HTTP round trips ---------------------------------------

class LiveServer
{
  public:
    LiveServer()
        : server_(config(), sharedService().handler(),
                  &sharedRegistry()),
          started_(true)
    {
        server_.start();
    }

    ~LiveServer()
    {
        server_.requestStop();
        server_.join();
    }

    std::uint16_t port() { return server_.port(); }

  private:
    static HttpServerConfig
    config()
    {
        HttpServerConfig c;
        c.port = 0;
        c.workers = 2;
        return c;
    }

    HttpServer server_;
    bool started_;
};

TEST(ServiceHttp, HealthzGolden)
{
    LiveServer live;
    HttpClient client("127.0.0.1", live.port());
    ClientResponse resp;
    ASSERT_TRUE(client.request("GET", "/healthz", "", resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.reason, "OK");
    EXPECT_EQ(resp.header("content-type"), "application/json");
    EXPECT_EQ(resp.body,
              "{\"status\":\"ok\",\"service\":\"fosm-serve\","
              "\"workloads\":12}");
}

TEST(ServiceHttp, CpiOverHttpMatchesDirectCallByteForByte)
{
    LiveServer live;
    HttpClient client("127.0.0.1", live.port());
    ClientResponse resp;
    for (const std::string &name : Workbench::benchmarks()) {
        const std::string body = "{\"workload\":\"" + name + "\"}";
        ASSERT_TRUE(client.request("POST", "/v1/cpi", body, resp));
        EXPECT_EQ(resp.status, 200) << name << ": " << resp.body;
        // The wire bytes ARE the direct evaluation, serialized.
        EXPECT_EQ(resp.body,
                  sharedService().cpi(cpiRequest(name)).dump())
            << name;
    }
}

TEST(ServiceHttp, IwCurveAndTrendsOverHttp)
{
    LiveServer live;
    HttpClient client("127.0.0.1", live.port());
    ClientResponse resp;

    ASSERT_TRUE(client.request("POST", "/v1/iw-curve",
                               "{\"workload\":\"vpr\"}", resp));
    EXPECT_EQ(resp.status, 200);
    json::Value curveReq = json::Value::object();
    curveReq.set("workload", "vpr");
    EXPECT_EQ(resp.body, sharedService().iwCurve(curveReq).dump());

    ASSERT_TRUE(client.request(
        "POST", "/v1/trends",
        "{\"study\":\"issue-width\",\"widths\":[4]}", resp));
    EXPECT_EQ(resp.status, 200);
    json::Value trendReq = json::Value::object();
    trendReq.set("study", "issue-width");
    json::Value w = json::Value::array();
    w.push(4);
    trendReq.set("widths", std::move(w));
    EXPECT_EQ(resp.body, sharedService().trends(trendReq).dump());
}

TEST(ServiceHttp, ErrorPathsGolden)
{
    LiveServer live;
    HttpClient client("127.0.0.1", live.port());
    ClientResponse resp;

    // 400: malformed JSON body.
    ASSERT_TRUE(client.request("POST", "/v1/cpi", "{oops", resp));
    EXPECT_EQ(resp.status, 400);
    EXPECT_NE(resp.body.find("\"error\""), std::string::npos);

    // 400: validation failure, exact body.
    ASSERT_TRUE(client.request("POST", "/v1/cpi",
                               "{\"workload\":\"nope\"}", resp));
    EXPECT_EQ(resp.status, 400);
    EXPECT_EQ(resp.body,
              "{\"error\":\"unknown workload 'nope'; valid: bzip, "
              "crafty, eon, gap, gcc, gzip, mcf, parser, perl, "
              "twolf, vortex, vpr\"}");

    // 404: unknown path.
    ASSERT_TRUE(client.request("GET", "/v2/nope", "", resp));
    EXPECT_EQ(resp.status, 404);

    // 405: wrong method, Allow advertised.
    ASSERT_TRUE(client.request("GET", "/v1/cpi", "", resp));
    EXPECT_EQ(resp.status, 405);
    EXPECT_EQ(resp.header("allow"), "POST");

    // /metrics speaks the Prometheus text format.
    ASSERT_TRUE(client.request("GET", "/metrics", "", resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.header("content-type"),
              "text/plain; version=0.0.4; charset=utf-8");
    EXPECT_NE(resp.body.find("# TYPE fosm_http_requests_total"),
              std::string::npos);
}

TEST(ServiceHttp, RepeatedRequestIsServedFromCache)
{
    LiveServer live;
    HttpClient client("127.0.0.1", live.port());
    ClientResponse first;
    ClientResponse second;
    // Unlikely to collide with other tests' bodies: a unique deltaI.
    const std::string body =
        "{\"workload\":\"eon\",\"machine\":{\"deltaI\":13}}";
    const std::uint64_t hitsBefore =
        sharedService().cache().hits();
    ASSERT_TRUE(client.request("POST", "/v1/cpi", body, first));
    // Same design point, different member order and whitespace.
    const std::string reordered =
        "{\"machine\": {\"deltaI\": 13}, \"workload\": \"eon\"}";
    ASSERT_TRUE(client.request("POST", "/v1/cpi", reordered, second));
    EXPECT_EQ(first.status, 200);
    EXPECT_EQ(second.status, 200);
    EXPECT_EQ(first.body, second.body); // byte-identical from cache
    EXPECT_GT(sharedService().cache().hits(), hitsBefore);
}

} // namespace
} // namespace fosm::server
