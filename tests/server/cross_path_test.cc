/**
 * @file
 * Cross-path bit identity: every way the service answers one design
 * point returns the scalar library's bits. Seeded machines over the
 * served ranges (width 2-8, windowSize 16-256, robSize from the window
 * size to 1024, deltaD 50-600, deltaI 4-40) on four profiles go
 * through /v1/cpi, /v1/batch as JSON and as application/x-fosm-batch,
 * and a one-point /v1/optimize space, all via handler(). Each test
 * lets a different path evaluate first, then reads every path warm
 * (LRU hits: the handler's memo for /v1/cpi, the design-point lookup
 * and extractColumns for batch and optimize); the restart test reads
 * every path from a second ModelService on the same store directory
 * with a cold LRU. The reference is Workbench::fitIw plus
 * FirstOrderModel::evaluate on an independent Workbench.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "server/cpi_response.hh"
#include "server/service.hh"

#include "../store/store_test_util.hh"

namespace fosm::server {
namespace {

using Bits = std::array<std::uint64_t, 8>;

/** One seeded design point and what the scalar library says. */
struct Point
{
    std::string workload;
    MachineConfig machine;
    Bits bits{};
    /** cpiResponseJson(...).dump() of the scalar evaluation. */
    std::string document;
};

Bits
bitsOf(const std::array<double, 8> &cols)
{
    Bits out{};
    for (std::size_t i = 0; i < 8; ++i)
        out[i] = std::bit_cast<std::uint64_t>(cols[i]);
    return out;
}

/** Short traces, set before the first Workbench is constructed. */
void
shortTraces()
{
    ::setenv("FOSM_TRACE_INSTS", "5000", 1);
}

const std::vector<Point> &
points()
{
    static const std::vector<Point> all = [] {
        shortTraces();
        Workbench bench;
        Rng rng(20041);
        std::vector<Point> out;
        for (const char *workload : {"gcc", "mcf", "twolf", "vpr"}) {
            for (int k = 0; k < 4; ++k) {
                Point p;
                p.workload = workload;
                p.machine = Workbench::baselineMachine();
                p.machine.width =
                    static_cast<std::uint32_t>(rng.uniformInt(2, 8));
                p.machine.windowSize = static_cast<std::uint32_t>(
                    rng.uniformInt(16, 256));
                p.machine.robSize = static_cast<std::uint32_t>(
                    rng.uniformInt(p.machine.windowSize, 1024));
                p.machine.deltaD = rng.uniformInt(50, 600);
                p.machine.deltaI = rng.uniformInt(4, 40);

                const WorkloadData &data = bench.workload(workload);
                const IWCharacteristic iw = Workbench::fitIw(
                    data.iwPoints, data.missProfile.avgLatency,
                    p.machine.width);
                const CpiBreakdown b =
                    FirstOrderModel(p.machine, ModelOptions{})
                        .evaluate(iw, data.missProfile);
                p.bits = bitsOf({b.ideal, b.brmisp, b.icacheL1,
                                 b.icacheL2, b.dcacheLong, b.dtlb,
                                 b.total(), b.ipc()});
                p.document =
                    cpiResponseJson(workload, data, p.machine, iw, b)
                        .dump();
                out.push_back(std::move(p));
            }
        }
        return out;
    }();
    return all;
}

/** The served members of a point, as a row or machine block. */
json::Value
machineDeltas(const MachineConfig &m)
{
    json::Value v = json::Value::object();
    v.set("width", m.width);
    v.set("windowSize", m.windowSize);
    v.set("robSize", m.robSize);
    v.set("deltaD", static_cast<std::uint64_t>(m.deltaD));
    v.set("deltaI", static_cast<std::uint64_t>(m.deltaI));
    return v;
}

HttpResponse
post(ModelService &service, const std::string &path, std::string body,
     const char *contentType = nullptr)
{
    HttpRequest request;
    request.method = "POST";
    request.target = path;
    request.body = std::move(body);
    if (contentType)
        request.headers.emplace_back("content-type", contentType);
    return service.handler()(request);
}

json::Value
parsed(const HttpResponse &response)
{
    EXPECT_EQ(response.status, 200) << response.body;
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::parse(response.body, v, &error)) << error;
    return v;
}

/** /v1/cpi per point: the whole document must be the library's. */
void
checkCpi(ModelService &service, const char *when)
{
    for (const Point &p : points()) {
        json::Value body = json::Value::object();
        body.set("workload", p.workload);
        body.set("machine", machineDeltas(p.machine));
        const HttpResponse r = post(service, "/v1/cpi", body.dump());
        EXPECT_EQ(r.body, p.document) << when << " " << p.workload;
    }
}

/** One batch per profile, rows in point order. */
void
checkBatch(ModelService &service, bool binary, const char *when)
{
    static constexpr const char *kColumns[] = {
        "ideal", "brmisp", "icacheL1", "icacheL2",
        "dcacheLong", "dtlb", "total"};
    const std::vector<Point> &all = points();
    for (std::size_t at = 0; at < all.size();) {
        const std::string &workload = all[at].workload;
        std::vector<const Point *> group;
        std::vector<json::Value> rows;
        for (; at < all.size() && all[at].workload == workload; ++at) {
            group.push_back(&all[at]);
            rows.push_back(machineDeltas(all[at].machine));
        }

        std::vector<Bits> served;
        if (binary) {
            std::vector<const json::Value *> rowPtrs;
            for (const json::Value &row : rows)
                rowPtrs.push_back(&row);
            const HttpResponse r =
                post(service, "/v1/batch",
                     batch::encodeRequest(workload, nullptr, nullptr,
                                          rowPtrs),
                     batch::contentType);
            ASSERT_EQ(r.status, 200) << r.body;
            batch::Result result;
            std::string error;
            ASSERT_TRUE(batch::decodeResponse(r.body, result, &error))
                << error;
            ASSERT_EQ(result.rows(), group.size()) << when;
            for (std::size_t i = 0; i < result.rows(); ++i) {
                EXPECT_EQ(result.errors[i], "") << when;
                served.push_back(bitsOf(
                    {result.ideal[i], result.brmisp[i],
                     result.icacheL1[i], result.icacheL2[i],
                     result.dcacheLong[i], result.dtlb[i],
                     result.total[i], result.ipc[i]}));
            }
        } else {
            json::Value body = json::Value::object();
            body.set("workload", workload);
            json::Value arr = json::Value::array();
            for (json::Value &row : rows)
                arr.push(std::move(row));
            body.set("rows", std::move(arr));
            const json::Value doc =
                parsed(post(service, "/v1/batch", body.dump()));
            const json::Value *cpi = doc.find("cpi");
            ASSERT_NE(cpi, nullptr) << when;
            const std::vector<json::Value> &errors =
                doc.find("errors")->items();
            ASSERT_EQ(errors.size(), group.size()) << when;
            for (std::size_t i = 0; i < errors.size(); ++i) {
                EXPECT_TRUE(errors[i].isNull()) << when;
                std::array<double, 8> cols{};
                for (std::size_t c = 0; c < 7; ++c)
                    cols[c] =
                        cpi->find(kColumns[c])->items()[i].asDouble();
                cols[7] = doc.find("ipc")->items()[i].asDouble();
                served.push_back(bitsOf(cols));
            }
        }
        for (std::size_t i = 0; i < group.size(); ++i) {
            EXPECT_EQ(served[i], group[i]->bits)
                << when << " " << workload << " row " << i;
        }
    }
}

/**
 * A one-point space per point. explicitObjective varies the body so
 * that a repeat misses the handler's whole-response memo and reads
 * the design-point cache instead.
 */
void
checkOptimize(ModelService &service, bool explicitObjective,
              const char *when)
{
    for (const Point &p : points()) {
        const json::Value deltas = machineDeltas(p.machine);
        json::Value space = json::Value::object();
        for (const auto &member : deltas.members()) {
            json::Value axis = json::Value::array();
            axis.push(member.second);
            space.set(member.first, std::move(axis));
        }
        json::Value body = json::Value::object();
        body.set("workload", p.workload);
        body.set("space", std::move(space));
        if (explicitObjective) {
            json::Value objectives = json::Value::array();
            objectives.push("cpi");
            body.set("objectives", std::move(objectives));
        }
        const json::Value doc =
            parsed(post(service, "/v1/optimize", body.dump()));
        const json::Value *frontier = doc.find("frontier");
        ASSERT_NE(frontier, nullptr) << when;
        ASSERT_EQ(frontier->items().size(), 1u) << when;
        const json::Value &point = frontier->items()[0];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      point.find("cpi")->asDouble()),
                  p.bits[6])
            << when << " " << p.workload;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      point.find("ipc")->asDouble()),
                  p.bits[7])
            << when << " " << p.workload;
    }
}

struct Path
{
    const char *name;
    void (*check)(ModelService &, const char *when);
};

const Path kCpi{"/v1/cpi", checkCpi};
const Path kBatchJson{"/v1/batch JSON",
                      [](ModelService &s, const char *when) {
                          checkBatch(s, false, when);
                      }};
const Path kBatchBinary{"/v1/batch binary",
                        [](ModelService &s, const char *when) {
                            checkBatch(s, true, when);
                        }};
const Path kOptimize{"/v1/optimize",
                     [](ModelService &s, const char *when) {
                         checkOptimize(s, false, when);
                     }};
const Path kPaths[] = {kCpi, kBatchJson, kBatchBinary, kOptimize};

ServiceConfig
storeConfig(const std::string &dir)
{
    shortTraces();
    ServiceConfig config;
    config.storeDir = dir;
    return config;
}

/**
 * `first` evaluates every point cold; then every path reads them
 * warm, twice (the repeat of /v1/cpi and /v1/optimize is the
 * handler's whole-response memo; a differently-worded optimize body
 * reads the design-point cache).
 */
void
firstThenWarm(const Path &first)
{
    points();
    test::TempDir dir;
    MetricsRegistry metrics;
    ModelService service(storeConfig(dir.path()), metrics);
    first.check(service, "cold");
    for (int round = 0; round < 2; ++round)
        for (const Path &path : kPaths)
            path.check(service, path.name);
    checkOptimize(service, true, "optimize, other body");
}

TEST(ServiceCrossPath, CpiFirstThenEveryPathWarm)
{
    firstThenWarm(kCpi);
}

TEST(ServiceCrossPath, BatchJsonFirstThenEveryPathWarm)
{
    firstThenWarm(kBatchJson);
}

TEST(ServiceCrossPath, BatchBinaryFirstThenEveryPathWarm)
{
    firstThenWarm(kBatchBinary);
}

TEST(ServiceCrossPath, OptimizeFirstThenEveryPathWarm)
{
    firstThenWarm(kOptimize);
}

TEST(ServiceCrossPath, WarmStoreRestartWithColdLru)
{
    points();
    test::TempDir dir;
    {
        MetricsRegistry metrics;
        ModelService cold(storeConfig(dir.path()), metrics);
        checkBatch(cold, false, "cold");
    }
    // One restarted service per path, so each path's own store
    // refill is what answers, not an LRU another path filled.
    for (const Path &path : kPaths) {
        MetricsRegistry metrics;
        ModelService warm(storeConfig(dir.path()), metrics);
        ASSERT_NE(warm.persistentCache(), nullptr);
        path.check(warm, path.name);
        EXPECT_EQ(warm.persistentCache()->storeHits(), points().size())
            << path.name;
        path.check(warm, path.name);
    }
}

} // namespace
} // namespace fosm::server
