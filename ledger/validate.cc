/**
 * @file
 * Model against fosm::sim: the Figure 15 oracle, the seeded
 * design-space sample of the validate workload, the served-point
 * sample of the serving workloads, and the pool-parallel phase that
 * simulates and models each point.
 */

#include <bit>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/hash.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "ledger.hh"

namespace ledger {

using namespace fosm;

namespace {

/**
 * Cache and predictor configurations the workload profiles were not
 * tuned against; a point that uses one is re-profiled with it.
 */
constexpr int kVariants = 6;

void
applyVariant(int v, HierarchyConfig &h, PredictorKind &kind,
             std::uint32_t &entries)
{
    switch (v) {
    case 0: h.l1d.sizeBytes = 16 * 1024; break;
    case 1: h.l1i.sizeBytes = 16 * 1024; break;
    case 2: h.l2.sizeBytes = 256 * 1024; break;
    case 3:
        h.l2.sizeBytes = 2 * 1024 * 1024;
        h.l2.assoc = 8;
        break;
    case 4:
        kind = PredictorKind::Bimodal;
        entries = 4096;
        break;
    case 5: kind = PredictorKind::Tournament; break;
    default: break;
    }
}

template <typename T>
T
pick(Rng &rng, std::initializer_list<T> values)
{
    return *(values.begin() + rng.range(0, values.size() - 1));
}

void
hashDouble(Fnv1a &h, double d)
{
    h.updateInt(std::bit_cast<std::uint64_t>(d));
}

void
hashRunning(Fnv1a &h, const RunningStats &s)
{
    h.updateInt(s.count());
    hashDouble(h, s.mean());
    hashDouble(h, s.variance());
    hashDouble(h, s.min());
    hashDouble(h, s.max());
}

void
hashStats(Fnv1a &h, const SimStats &s, const CpiBreakdown &b)
{
    for (const std::uint64_t v :
         {s.cycles, s.retired, s.branches, s.mispredictions,
          s.icacheL1Misses, s.icacheL2Misses, s.shortLoadMisses,
          s.longLoadMisses, s.dtlbLoadMisses, s.dtlbStoreMisses,
          s.mispredictsDuringLongMiss, s.icacheMissesDuringLongMiss})
        h.updateInt(v);
    hashRunning(h, s.windowAtBranchIssue);
    hashRunning(h, s.robAheadOfMissedLoad);
    hashRunning(h, s.windowAtMissReturn);
    for (const double d :
         {b.ideal, b.brmisp, b.icacheL1, b.icacheL2, b.dcacheLong, b.dtlb,
          b.branchPenaltyPerEvent, b.icachePenaltyPerEvent,
          b.dcachePenaltyPerEvent, b.ldmOverlapFactor})
        hashDouble(h, d);
}

} // namespace

std::vector<ValidationPoint>
validationSample(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed ^ 0x5eed'1a7e'0000'0001ull);
    std::vector<ValidationPoint> out(n);
    for (ValidationPoint &p : out) {
        p.profile = rng.range(0, 11);
        p.machine = Workbench::baselineMachine();
        p.machine.width = pick(rng, {2u, 3u, 4u, 6u, 8u});
        p.machine.windowSize =
            pick(rng, {16u, 24u, 32u, 48u, 64u, 96u, 128u});
        p.machine.robSize = std::max(
            p.machine.windowSize,
            pick(rng, {64u, 96u, 128u, 192u, 256u, 384u, 512u}));
        p.machine.frontEndDepth = rng.range(3, 12);
        p.machine.deltaD =
            pick<Cycle>(rng, {100, 150, 200, 250, 300, 400});
        if (rng.unit() < 0.125)
            p.variant = static_cast<int>(rng.range(0, kVariants - 1));
    }
    return out;
}

std::vector<ValidationPoint>
servedSample(const Stream &s, std::uint64_t seed, std::size_t n)
{
    const std::size_t profiles = profileNames().size();
    std::vector<std::vector<const Point *>> byProfile(profiles);
    std::vector<bool> taken(s.points.size(), false);
    for (const std::uint32_t idx : s.req) {
        if (taken[idx])
            continue;
        taken[idx] = true;
        for (const Point &p : s.points[idx])
            byProfile[p.profile].push_back(&p);
    }
    Rng rng(seed ^ 0x5e7e'd000'0000'0002ull);
    std::vector<ValidationPoint> out;
    for (std::size_t i = 0; i < n; ++i) {
        const auto &pool = byProfile[i % profiles];
        if (pool.empty())
            continue;
        const Point &p = *pool[rng.next() % pool.size()];
        ValidationPoint v;
        v.profile = p.profile;
        v.machine = p.machine();
        out.push_back(v);
    }
    return out;
}

ValidationResult
validatePoints(Workbench &bench, const std::vector<ValidationPoint> &pts,
               Tracer *tracer)
{
    struct Out
    {
        SimStats sim;
        CpiBreakdown model;
        double error = 0.0;
        std::uint64_t insts = 0;
    };
    const std::size_t n = pts.size();
    std::vector<Out> outs(n);
    ValidationResult r;
    r.pointNs.assign(n, 0.0);
    r.doneNs.assign(n, 0.0);
    std::vector<double> simRate(n, 0.0);
    std::mutex merge;

    const double cpu0 = cpuSeconds();
    const std::int64_t t0 = nowNs();
    parallelFor(n, [&](std::size_t i) {
        const ValidationPoint &pt = pts[i];
        const WorkloadData &data =
            bench.workload(profileNames()[pt.profile]);
        Tracer local;
        Tracer *t = tracer ? &local : nullptr;
        const std::int64_t start = nowNs();
        const std::uint32_t root =
            t ? t->begin("validate.point", Tracer::none, i) : 0;

        SimConfig sc = Workbench::baselineSimConfig();
        sc.machine = pt.machine;
        sc.hierarchy.l2Latency = pt.machine.deltaI;
        sc.hierarchy.memLatency = pt.machine.deltaD;
        ProfilerConfig pc = Workbench::baselineProfilerConfig();
        pc.hierarchy = sc.hierarchy;
        if (pt.variant >= 0) {
            applyVariant(pt.variant, sc.hierarchy, sc.predictor,
                         sc.predictorEntries);
            applyVariant(pt.variant, pc.hierarchy, pc.predictor,
                         pc.predictorEntries);
        }
        sc.syncMissDelays();

        const MissProfile *profile = &data.missProfile;
        MissProfile reprofiled;
        if (pt.variant >= 0) {
            const std::uint32_t s =
                t ? t->begin("analysis.profile", root, i) : 0;
            reprofiled = profileTrace(data.trace, pc);
            if (t)
                t->end(s, data.trace.size());
            profile = &reprofiled;
        }
        std::uint32_t s = t ? t->begin("iw.fit", root, i) : 0;
        const IWCharacteristic iw = Workbench::fitIw(
            data.iwPoints, profile->avgLatency, pt.machine.width);
        if (t) {
            t->end(s);
            s = t->begin("model.scalar_eval", root, i);
        }
        Out &o = outs[i];
        o.model = FirstOrderModel(pt.machine).evaluate(iw, *profile);
        if (t) {
            t->end(s);
            s = t->begin("sim.simulate", root, i);
        }
        const std::int64_t simStart = nowNs();
        o.sim = simulateTrace(data.trace, sc);
        o.insts = data.trace.size();
        simRate[i] = static_cast<double>(o.insts) /
                     static_cast<double>(nowNs() - simStart);
        if (t) {
            t->end(s, o.insts);
            t->end(root);
        }
        o.error = relativeError(o.model.total(), o.sim.cpi());
        const std::int64_t done = nowNs();
        r.pointNs[i] = static_cast<double>(done - start);
        r.doneNs[i] = static_cast<double>(done - t0);
        if (tracer) {
            std::lock_guard<std::mutex> lock(merge);
            tracer->append(local);
        }
    });
    r.wallS = 1e-9 * static_cast<double>(nowNs() - t0);
    r.cpuS = cpuSeconds() - cpu0;
    r.simInstsPerNs = median(simRate);

    Fnv1a h;
    double errSum = 0.0;
    for (const Out &o : outs) {
        hashStats(h, o.sim, o.model);
        errSum += o.error;
    }
    r.digest = h.digest();
    r.meanErrorPct = n ? 100.0 * errSum / static_cast<double>(n) : 0.0;

    if (tracer) {
        // Fig 2's check applied to a point: its parts must add up to
        // its total.
        for (const Tracer::Span &sp : tracer->spans()) {
            if (sp.parent != Tracer::none)
                continue;
            const double ratio = static_cast<double>(sp.childNs) /
                                 static_cast<double>(sp.dur());
            r.worstSumRatio = std::abs(ratio - 1.0) >
                                      std::abs(r.worstSumRatio - 1.0)
                                  ? ratio
                                  : r.worstSumRatio;
            if (ratio < 0.9 || ratio > 1.1)
                ++r.sumCheckFailures;
        }
    }
    return r;
}

bool
fig15Matches(Workbench &bench, const std::string &root,
             std::string &diagnostic)
{
    // The same computation and formatting as bench/fig15_model_vs_sim.
    const FirstOrderModel model(Workbench::baselineMachine());
    std::ostringstream os;
    printBanner(os, "Figure 15: first-order model vs detailed simulation "
                    "(CPI)");
    TextTable table({"bench", "model CPI", "sim CPI", "model IPC",
                     "sim IPC", "error %"});
    struct Row
    {
        CpiBreakdown cpi;
        SimStats sim;
        double err;
    };
    const std::vector<Row> rows = mapWorkloads(
        bench, [&](const std::string &, const WorkloadData &data) {
            Row row;
            row.cpi = model.evaluate(data.iw, data.missProfile);
            row.sim = simulateTrace(data.trace,
                                    Workbench::baselineSimConfig());
            row.err = relativeError(row.cpi.total(), row.sim.cpi());
            return row;
        });
    double errSum = 0.0;
    double errMax = 0.0;
    std::string errMaxBench;
    const std::vector<std::string> &names = profileNames();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        errSum += row.err;
        if (row.err > errMax) {
            errMax = row.err;
            errMaxBench = names[i];
        }
        table.addRow({names[i], TextTable::num(row.cpi.total(), 3),
                      TextTable::num(row.sim.cpi(), 3),
                      TextTable::num(row.cpi.ipc(), 3),
                      TextTable::num(row.sim.ipc(), 3),
                      TextTable::num(row.err * 100.0, 1)});
    }
    table.print(os);
    os << "\nmean |CPI error| = "
       << TextTable::num(errSum / static_cast<double>(names.size()) * 100,
                         1)
       << " %   (paper: 5.8 %)\n";
    os << "max  |CPI error| = " << TextTable::num(errMax * 100, 1)
       << " % (" << errMaxBench << ")   (paper: 13 % on mcf)\n";

    const std::string path = root + "/results/fig15_model_vs_sim.txt";
    std::ifstream in(path);
    if (!in) {
        diagnostic = "cannot read " + path;
        return false;
    }
    std::ostringstream want;
    want << in.rdbuf();
    if (want.str() == os.str())
        return true;
    std::istringstream a(want.str()), b(os.str());
    std::string la, lb;
    while (std::getline(a, la) && std::getline(b, lb) && la == lb) {
    }
    diagnostic = "fig15 differs: expected '" + la + "', got '" + lb + "'";
    return false;
}

} // namespace ledger
