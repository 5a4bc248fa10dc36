/**
 * @file
 * The in-memory span tracer and the traced characterization set-up.
 */

#include <algorithm>
#include <fstream>

#include "ledger.hh"

namespace ledger {

using namespace fosm;

void
Tracer::append(const Tracer &other)
{
    const auto base = static_cast<std::uint32_t>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent != none)
            s.parent += base;
        spans_.push_back(s);
    }
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "name\tid\tparent\treq\tstart_ns\tdur_ns\tself_ns\titems\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << s.name << '\t' << i << '\t'
            << (s.parent == none ? -1 : static_cast<long long>(s.parent))
            << '\t' << s.req << '\t' << s.start << '\t' << s.dur() << '\t'
            << s.self() << '\t' << s.items << '\n';
    }
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const std::size_t k = std::min(
        v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(
                                                       v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k),
                     v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
medianSliceRate(const std::vector<double> &doneNs, double wallS)
{
    constexpr std::size_t kSlices = 10;
    if (wallS <= 0.0 || doneNs.empty())
        return 0.0;
    const double slice = wallS / kSlices;
    std::vector<double> counts(kSlices, 0.0);
    for (const double t : doneNs)
        counts[std::min(kSlices - 1,
                        static_cast<std::size_t>(1e-9 * t / slice))] += 1.0;
    for (double &c : counts)
        c /= slice;
    return median(counts);
}

std::map<std::string, LayerStats>
summarize(const Tracer &t)
{
    std::map<std::string, LayerStats> out;
    for (const Tracer::Span &s : t.spans()) {
        LayerStats &l = out[s.name];
        l.totalSelfNs += static_cast<double>(s.self());
        l.calls += 1;
        l.items += s.items;
    }
    return out;
}

void
traceSetup(json::Value &metrics, Tracer &spans)
{
    const std::vector<std::string> &names = profileNames();
    Tracer t;
    Workbench probe;
    const std::uint64_t n = probe.traceInstructions();
    WindowSimConfig wconfig;
    wconfig.unitLatency = true;
    wconfig.issueWidth = 0;
    // The calls Workbench::workload makes for a cold profile, one span
    // each.
    for (std::size_t i = 0; i < names.size(); ++i) {
        Scoped all(t, "experiments.characterize", Tracer::none, i);
        Trace trace;
        {
            Scoped s(t, "workload.trace", all.id(), i, n);
            trace = generateTrace(profileByName(names[i]), n);
        }
        MissProfile profile;
        {
            Scoped s(t, "analysis.profile", all.id(), i, n);
            profile = profileTrace(trace,
                                   Workbench::baselineProfilerConfig());
        }
        std::vector<IwPoint> points;
        {
            Scoped s(t, "iw.curve", all.id(), i, n);
            points = measureIwCurve(trace, {4, 8, 16, 32, 64}, wconfig);
        }
        Scoped s(t, "iw.fit", all.id(), i);
        Workbench::fitIw(points, profile.avgLatency, 4);
    }
    const auto layers = summarize(t);
    auto perInst = [&](const char *name) {
        const LayerStats &l = layers.at(name);
        return l.totalSelfNs / static_cast<double>(l.items);
    };
    metrics.set("workload.trace_ns_per_inst", perInst("workload.trace"));
    metrics.set("analysis.profile_ns_per_inst",
                perInst("analysis.profile"));
    metrics.set("iw.curve_ns_per_inst", perInst("iw.curve"));

    // The black box: a cold Workbench::workload per profile.
    Workbench cold;
    std::vector<double> seconds;
    for (const std::string &name : names) {
        const std::int64_t t0 = nowNs();
        cold.workload(name);
        seconds.push_back(1e-9 * static_cast<double>(nowNs() - t0));
    }
    metrics.set("experiments.characterize_s", median(seconds));
    spans.append(t);
}

} // namespace ledger
