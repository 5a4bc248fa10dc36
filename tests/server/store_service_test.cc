/**
 * @file
 * Service persistence tests: a restarted service serves bit-identical
 * responses straight from the store (nonzero hit rate, no rebuild), a
 * fresh design point after restart is evaluated from the reloaded
 * characterization, /v1/store/stats reports both modes, and
 * overlapping /v1/trends sweeps return byte-identical shared rows.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "server/service.hh"

#include "../store/store_test_util.hh"

namespace fosm::server {
namespace {

/** Drive the full handler: routing plus both cache tiers. */
HttpResponse
post(ModelService &service, const std::string &path,
     const std::string &body)
{
    HttpRequest request;
    request.method = "POST";
    request.target = path;
    request.body = body;
    return service.handler()(request);
}

ServiceConfig
storeConfig(const std::string &dir)
{
    // Short traces keep each characterization build cheap; must be
    // set before the first Workbench is constructed.
    ::setenv("FOSM_TRACE_INSTS", "5000", 1);
    ServiceConfig config;
    config.storeDir = dir;
    return config;
}

TEST(ServicePersistence, WarmRestartServesBitIdenticalResponses)
{
    test::TempDir dir;
    const std::string cpiBody = "{\"workload\":\"gcc\"}";

    std::string coldCpi, coldCurve;
    {
        MetricsRegistry metrics;
        ModelService cold(storeConfig(dir.path()), metrics);
        ASSERT_NE(cold.persistentCache(), nullptr);
        const HttpResponse r = post(cold, "/v1/cpi", cpiBody);
        ASSERT_EQ(r.status, 200);
        coldCpi = r.body;
        coldCurve = post(cold, "/v1/iw-curve", cpiBody).body;
        EXPECT_EQ(cold.persistentCache()->storeHits(), 0u);
    }

    MetricsRegistry metrics;
    ModelService warm(storeConfig(dir.path()), metrics);
    EXPECT_EQ(post(warm, "/v1/cpi", cpiBody).body, coldCpi);
    EXPECT_EQ(post(warm, "/v1/iw-curve", cpiBody).body, coldCurve);
    // Both answers came off disk: nonzero hit rate immediately after
    // restart, and the workload was never rebuilt (nor even loaded —
    // the whole response was stored).
    EXPECT_EQ(warm.persistentCache()->storeHits(), 2u);
    EXPECT_EQ(warm.workbench().characterizationLoads(), 0u);
}

TEST(ServicePersistence, FreshQueryAfterRestartUsesReloadedData)
{
    test::TempDir dir;
    // A design point only the warm service sees: it must be evaluated
    // fresh, from the characterization the cold service persisted.
    const std::string novel =
        "{\"workload\":\"gcc\",\"machine\":{\"width\":8}}";

    {
        MetricsRegistry metrics;
        ModelService cold(storeConfig(dir.path()), metrics);
        ASSERT_EQ(
            post(cold, "/v1/cpi", "{\"workload\":\"gcc\"}").status,
            200);
    }

    MetricsRegistry warmMetrics;
    ModelService warm(storeConfig(dir.path()), warmMetrics);
    const HttpResponse served = post(warm, "/v1/cpi", novel);
    ASSERT_EQ(served.status, 200);
    EXPECT_EQ(warm.persistentCache()->storeHits(), 0u);
    EXPECT_EQ(warm.workbench().characterizationLoads(), 1u);

    // Reference: the same evaluation memory-only, built from scratch.
    MetricsRegistry referenceMetrics;
    ModelService reference(ServiceConfig{}, referenceMetrics);
    EXPECT_EQ(served.body, post(reference, "/v1/cpi", novel).body);
}

TEST(ServicePersistence, PersistentTierAnswersWhenLruIsDisabled)
{
    test::TempDir dir;
    MetricsRegistry metrics;
    ServiceConfig config = storeConfig(dir.path());
    config.cacheCapacity = 0;
    ModelService service(config, metrics);

    const std::string body = "{\"workload\":\"mcf\"}";
    const std::string first = post(service, "/v1/cpi", body).body;
    EXPECT_EQ(service.persistentCache()->storeHits(), 0u);
    // No LRU to hit, so the repeat is served by the store.
    EXPECT_EQ(post(service, "/v1/cpi", body).body, first);
    EXPECT_EQ(service.persistentCache()->storeHits(), 1u);
}

TEST(ServicePersistence, StoreStatsReportsBothModes)
{
    {
        test::TempDir dir;
        MetricsRegistry metrics;
        ModelService service(storeConfig(dir.path()), metrics);
        ASSERT_EQ(
            post(service, "/v1/cpi", "{\"workload\":\"gzip\"}").status,
            200);
        const json::Value stats = service.storeStats();
        EXPECT_TRUE(stats.find("enabled")->asBool());
        const json::Value *s = stats.find("store");
        ASSERT_NE(s, nullptr);
        // One response plus one characterization were persisted.
        EXPECT_GE(s->find("liveRecords")->asInt(), 2);

        // The GET endpoint serves exactly this document.
        HttpRequest request;
        request.method = "GET";
        request.target = "/v1/store/stats";
        EXPECT_EQ(service.handler()(request).status, 200);
    }
    MetricsRegistry metrics;
    ModelService memoryOnly(ServiceConfig{}, metrics);
    const json::Value stats = memoryOnly.storeStats();
    EXPECT_FALSE(stats.find("enabled")->asBool());
    EXPECT_EQ(stats.find("store"), nullptr);
}

/** {study, widths, depths} for a /v1/trends request. */
json::Value
trendRequest(const char *study, std::vector<int> widths,
             std::vector<int> depths)
{
    json::Value req = json::Value::object();
    req.set("study", study);
    json::Value w = json::Value::array();
    for (const int width : widths)
        w.push(width);
    req.set("widths", std::move(w));
    if (!depths.empty()) {
        json::Value d = json::Value::array();
        for (const int depth : depths)
            d.push(depth);
        req.set("depths", std::move(d));
    }
    return req;
}

TEST(ServiceTrends, OverlappingSweepsShareRowsByteForByte)
{
    MetricsRegistry metrics;
    ModelService service(ServiceConfig{}, metrics);

    for (const char *study : {"pipeline-depth", "issue-width"}) {
        const std::vector<int> depths =
            std::string(study) == "pipeline-depth"
                ? std::vector<int>{5, 10}
                : std::vector<int>{};
        const json::Value a =
            service.trends(trendRequest(study, {2, 4}, depths));
        // The identical request answers the identical document.
        EXPECT_EQ(service.trends(trendRequest(study, {2, 4}, depths))
                      .dump(),
                  a.dump())
            << study;

        // A superset sweep: the shared rows are byte-identical
        // across responses.
        const json::Value c =
            service.trends(trendRequest(study, {2, 4, 8}, depths));
        const json::Value *seriesA = a.find("series");
        const json::Value *seriesC = c.find("series");
        ASSERT_NE(seriesA, nullptr);
        ASSERT_NE(seriesC, nullptr);
        ASSERT_EQ(seriesA->items().size(), 2u);
        ASSERT_EQ(seriesC->items().size(), 3u);
        for (std::size_t i = 0; i < 2; ++i) {
            EXPECT_EQ(seriesC->items()[i].dump(),
                      seriesA->items()[i].dump())
                << study << " row " << i;
        }
    }
}

} // namespace
} // namespace fosm::server
