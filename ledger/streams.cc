/**
 * @file
 * Seeded request streams and their oracle answers. Every request body
 * and every expected response is built here, before any timing: the
 * timed client only sends prepared bytes and compares hashes.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_set>

#include "common/thread_pool.hh"
#include "ledger.hh"
#include "server/batch.hh"
#include "server/cpi_response.hh"

namespace ledger {

using namespace fosm;

std::uint64_t
Point::key() const
{
    // Field widths cover the ranges drawPoint() produces.
    std::uint64_t k = profile;
    k = k * 16 + width;
    k = k * 512 + windowSize;
    k = k * 2048 + robSize;
    k = k * 1024 + deltaD;
    k = k * 64 + deltaI;
    return k;
}

MachineConfig
Point::machine() const
{
    MachineConfig m = Workbench::baselineMachine();
    m.width = width;
    m.windowSize = windowSize;
    m.robSize = robSize;
    m.deltaD = deltaD;
    if (deltaI)
        m.deltaI = deltaI;
    return m;
}

const std::vector<std::string> &
profileNames()
{
    static const std::vector<std::string> names = Workbench::benchmarks();
    return names;
}

std::uint64_t
bodyHash(std::string_view body)
{
    return std::hash<std::string_view>{}(body);
}

namespace {

/** Machine members a request sets, in the order they are written. */
std::string
machineMembers(const Point &p)
{
    std::string s = "\"width\":" + std::to_string(p.width) +
                    ",\"windowSize\":" + std::to_string(p.windowSize) +
                    ",\"robSize\":" + std::to_string(p.robSize) +
                    ",\"deltaD\":" + std::to_string(p.deltaD);
    if (p.deltaI)
        s += ",\"deltaI\":" + std::to_string(p.deltaI);
    return s;
}

/**
 * A fresh design point: width 2-8, window 16-256, ROB 64-1024 (never
 * below the window), memory latency 50-600 cycles; withDeltaI also
 * varies the L2 latency 4-40.
 */
Point
drawPoint(Rng &rng, std::uint32_t profile, bool withDeltaI)
{
    Point p;
    p.profile = profile;
    p.width = rng.range(2, 8);
    p.windowSize = 8 * rng.range(2, 32);
    p.robSize = std::max(p.windowSize, 32 * rng.range(2, 32));
    p.deltaD = 25 * rng.range(2, 24);
    if (withDeltaI)
        p.deltaI = rng.range(4, 40);
    return p;
}

Point
drawUnique(Rng &rng, std::uint32_t profile, bool withDeltaI,
           std::unordered_set<std::uint64_t> &seen)
{
    for (;;) {
        const Point p = drawPoint(rng, profile, withDeltaI);
        if (seen.insert(p.key()).second)
            return p;
    }
}

CpiBreakdown
scalarEval(const Point &p, const WorkloadData &data,
           IWCharacteristic &iw)
{
    const MachineConfig m = p.machine();
    iw = Workbench::fitIw(data.iwPoints, data.missProfile.avgLatency,
                          m.width);
    return FirstOrderModel(m).evaluate(iw, data.missProfile);
}

/** Expected /v1/cpi document for a point: the scalar model's. */
std::string
expectedCpiBody(const Point &p, Workbench &bench)
{
    const std::string &name = profileNames()[p.profile];
    const WorkloadData &data = bench.workload(name);
    IWCharacteristic iw;
    const CpiBreakdown b = scalarEval(p, data, iw);
    return server::cpiResponseJson(name, data, p.machine(), iw, b)
        .dump();
}

} // namespace

Stream
cpiMixStream(std::uint64_t seed, std::size_t requests, Workbench &bench)
{
    constexpr std::size_t kHot = 2000;
    constexpr double kHotShare = 0.9;
    constexpr double kZipfS = 1.0;

    Rng rng(seed);
    Stream s;
    s.path = "/v1/cpi";
    std::unordered_set<std::uint64_t> seen;
    auto add = [&](const Point &p) {
        s.points.push_back({p});
        return static_cast<std::uint32_t>(s.points.size() - 1);
    };

    for (std::size_t i = 0; i < kHot; ++i)
        s.warmup.push_back(add(drawUnique(
            rng, rng.range(0, 11), false, seen)));

    // Zipf(s) over hot-set ranks; rank r maps to warmup[r].
    std::vector<double> cdf(kHot);
    double acc = 0.0;
    for (std::size_t r = 0; r < kHot; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
        cdf[r] = acc;
    }
    for (double &c : cdf)
        c /= acc;

    s.req.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
        if (rng.unit() < kHotShare) {
            const auto it =
                std::lower_bound(cdf.begin(), cdf.end(), rng.unit());
            const std::size_t r = std::min<std::size_t>(
                static_cast<std::size_t>(it - cdf.begin()), kHot - 1);
            s.req.push_back(s.warmup[r]);
        } else {
            s.req.push_back(add(drawUnique(
                rng, rng.range(0, 11), false, seen)));
        }
    }

    const std::size_t n = s.points.size();
    s.body.resize(n);
    s.expect.resize(n);
    parallelFor(n, [&](std::size_t i) {
        const Point &p = s.points[i][0];
        s.body[i] = "{\"workload\":\"" + profileNames()[p.profile] +
                    "\",\"machine\":{" + machineMembers(p) + "}}";
        s.expect[i] = bodyHash(expectedCpiBody(p, bench));
    });
    return s;
}

Stream
batchSweepStream(std::uint64_t seed, std::size_t requests,
                 std::size_t rowsPerRequest, Workbench &bench)
{
    const std::size_t profiles = profileNames().size();
    Rng rng(seed);
    Stream s;
    s.path = "/v1/batch";
    s.pointsPerRequest = rowsPerRequest;
    std::unordered_set<std::uint64_t> seen;
    const std::size_t offset = rng.range(0, profiles - 1);

    // One untimed warm-up request per profile, then the timed ones;
    // request i uses profile (offset + i) mod 12.
    const std::size_t total = profiles + requests;
    s.points.resize(total);
    for (std::size_t i = 0; i < total; ++i) {
        const auto profile =
            static_cast<std::uint32_t>((offset + i) % profiles);
        for (std::size_t r = 0; r < rowsPerRequest; ++r)
            s.points[i].push_back(drawUnique(rng, profile, true, seen));
        (i < profiles ? s.warmup : s.req)
            .push_back(static_cast<std::uint32_t>(i));
    }

    s.body.resize(total);
    s.expect.resize(total);
    parallelFor(total, [&](std::size_t i) {
        const std::vector<Point> &rows = s.points[i];
        const std::string &name = profileNames()[rows[0].profile];
        const WorkloadData &data = bench.workload(name);
        std::string body = "{\"workload\":\"" + name + "\",\"rows\":[";
        server::batch::Result result;
        result.workload = name;
        for (std::size_t r = 0; r < rows.size(); ++r) {
            body += (r ? ",{" : "{") + machineMembers(rows[r]) + "}";
            // The scalar model is the reference the batched kernels
            // must match bit for bit.
            IWCharacteristic iw;
            const CpiBreakdown b = scalarEval(rows[r], data, iw);
            result.pushRow(b.ideal, b.brmisp, b.icacheL1, b.icacheL2,
                           b.dcacheLong, b.dtlb, b.total(), b.ipc());
        }
        body += "]}";
        s.body[i] = std::move(body);
        s.expect[i] =
            bodyHash(server::batch::toJson(result).dump());
    });
    return s;
}

} // namespace ledger
