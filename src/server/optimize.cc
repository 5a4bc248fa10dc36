/**
 * @file
 * POST /v1/optimize: declarative design-space search over the
 * first-order model (docs/OPTIMIZE.md).
 *
 * Request:
 *   { "workload":   "gcc",
 *     "space":      { "width": [2,4,6,8],
 *                     "windowSize": {"from":16,"to":256,"step":16},
 *                     ... },                       // axes
 *     "constraint": "depth <= 20 && width*window <= 1024",
 *     "objectives": ["cpi", "windowSize"]          // or
 *                   [{"expr":"ipc","maximize":true}, ...],
 *     "machine":    { baseline overrides },        // optional
 *     "options":    { model options },             // optional
 *     "limit":      10000 }                        // optional cap
 *
 * The pipeline: expand the axes' cross product (413 if the
 * cardinality exceeds the row limit *before* anything is
 * materialized), filter by the constraint (422 when nothing
 * survives), plan the survivors against the response caches so
 * already-evaluated points are never scheduled, fit one IW
 * characterization per distinct width, evaluate the misses through
 * the SoA batch kernels in deterministic waves (deadline-aware:
 * remaining waves are shed and the partial result goes out as 206),
 * and run the Pareto frontier over the requested objectives.
 *
 * Every evaluated point is cached under its single-request /v1/cpi
 * digest — the same key /v1/cpi and /v1/batch use — so optimize
 * sweeps warm the caches for point queries and vice versa, and the
 * frontier is bit-identical to a client-side /v1/batch enumeration
 * of the same space by construction.
 */

#include "server/service.hh"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hh"
#include "opt/pareto.hh"
#include "opt/space.hh"
#include "server/params.hh"

namespace fosm::server {

namespace {

/** Rows per planned evaluation batch: large enough to amortize the
 *  SoA kernel setup, small enough that deadline shedding between
 *  waves has useful granularity. */
constexpr std::size_t kOptBatchRows = 1024;

/** Value range for each sweepable member, mirroring machineFromJson
 *  so an axis can never enumerate a machine the single-request path
 *  would reject. */
struct AxisRange
{
    const char *name;
    std::uint64_t lo;
    std::uint64_t hi;
};

constexpr AxisRange kAxisRanges[] = {
    {"width", 1, 64},
    {"frontEndDepth", 1, 100},
    {"windowSize", 1, 4096},
    {"robSize", 1, 1u << 20},
    {"deltaI", 0, 1000000},
    {"deltaD", 0, 1000000},
    {"deltaT", 0, 1000000},
    {"clusters", 1, 16},
    {"interClusterDelay", 0, 100},
};

const AxisRange &
axisRange(const std::string &member)
{
    for (const AxisRange &r : kAxisRanges)
        if (member == r.name)
            return r;
    // Unreachable: the caller resolved member via
    // machineMemberNames() first.
    return kAxisRanges[0];
}

/** Resolve an axis name (canonical or alias) to its canonical
 *  member, or 400. */
std::string
canonicalAxisName(const std::string &name)
{
    const std::string member = opt::canonicalMemberName(name);
    if (member.empty()) {
        std::string valid;
        for (const std::string &m : opt::machineVariableNames()) {
            if (!valid.empty())
                valid += ", ";
            valid += m;
        }
        badRequest("unknown space axis '" + name +
                   "'; valid: " + valid);
    }
    return member;
}

/** One axis value, validated as an in-range integer. */
std::uint64_t
axisValue(const std::string &member, const json::Value &v)
{
    const AxisRange &range = axisRange(member);
    if (!v.isNumber())
        badRequest("space axis '" + member +
                   "' values must be numbers");
    const double x = v.asDouble();
    if (x < static_cast<double>(range.lo) ||
        x > static_cast<double>(range.hi) || x != std::floor(x)) {
        badRequest("space axis '" + member +
                   "' values must be integers in [" +
                   std::to_string(range.lo) + ", " +
                   std::to_string(range.hi) + "]");
    }
    return static_cast<std::uint64_t>(x);
}

/** Parse one axis spec: [v, ...] or {from, to, step}. */
std::vector<std::uint64_t>
axisValues(const std::string &member, const json::Value &spec,
           std::uint64_t maxPoints)
{
    std::vector<std::uint64_t> values;
    if (spec.isArray()) {
        if (spec.items().size() > maxPoints) {
            throw ServiceError(
                413, "space axis '" + member + "' has " +
                         std::to_string(spec.items().size()) +
                         " values (limit " +
                         std::to_string(maxPoints) + ")");
        }
        for (const json::Value &v : spec.items())
            values.push_back(axisValue(member, v));
        return values;
    }
    if (!spec.isObject()) {
        badRequest("space axis '" + member +
                   "' must be an array of values or a "
                   "{from, to, step} range");
    }
    requireMembers(spec, "range", {"from", "to", "step"});
    if (!spec.find("from") || !spec.find("to"))
        badRequest("space axis '" + member +
                   "' range needs 'from' and 'to'");
    const std::uint64_t from =
        axisValue(member, *spec.find("from"));
    const std::uint64_t to = axisValue(member, *spec.find("to"));
    std::uint64_t step = 1;
    if (const json::Value *s = spec.find("step")) {
        if (!s->isNumber() || s->asDouble() < 1.0 ||
            s->asDouble() !=
                static_cast<double>(
                    static_cast<std::uint64_t>(s->asDouble())))
            badRequest("space axis '" + member +
                       "' step must be a positive integer");
        step = static_cast<std::uint64_t>(s->asDouble());
    }
    if (to < from)
        badRequest("space axis '" + member +
                   "' range has to < from");
    // Count before materializing: a {1, 10^6} delta range must 413
    // without allocating a million values.
    const std::uint64_t count = (to - from) / step + 1;
    if (count > maxPoints) {
        throw ServiceError(413, "space axis '" + member +
                                    "' range has " +
                                    std::to_string(count) +
                                    " values (limit " +
                                    std::to_string(maxPoints) + ")");
    }
    for (std::uint64_t v = from; v <= to; v += step)
        values.push_back(v);
    return values;
}

/** One objective: expression + direction. */
struct Objective
{
    opt::Expr expr;
    bool maximize = false;
};

/** Variables objective expressions may reference: the machine
 *  members (+aliases) followed by the eight result columns. */
const std::vector<std::string> &
objectiveVariableNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v = opt::machineVariableNames();
        for (const char *col :
             {"cpi", "ipc", "ideal", "brmisp", "icacheL1",
              "icacheL2", "dcacheLong", "dtlb"})
            v.emplace_back(col);
        return v;
    }();
    return names;
}

std::vector<Objective>
parseObjectives(const json::Value &body)
{
    std::vector<Objective> objectives;
    const auto parseOne = [&](const std::string &text,
                              bool maximize) {
        Objective o;
        o.maximize = maximize;
        std::string error;
        if (!opt::Expr::parse(text, objectiveVariableNames(), o.expr,
                              &error))
            badRequest("bad objective '" + text + "': " + error);
        objectives.push_back(std::move(o));
    };

    const json::Value *spec = body.find("objectives");
    if (!spec) {
        parseOne("cpi", false);
        return objectives;
    }
    if (!spec->isArray() || spec->items().empty() ||
        spec->items().size() > 4) {
        badRequest("'objectives' must be a non-empty array "
                   "(max 4)");
    }
    for (const json::Value &item : spec->items()) {
        if (item.isString()) {
            parseOne(item.asString(), false);
        } else if (item.isObject()) {
            requireMembers(item, "objective", {"expr", "maximize"});
            const json::Value *expr = item.find("expr");
            if (!expr || !expr->isString())
                badRequest("objective 'expr' (string) is required");
            parseOne(expr->asString(),
                     boolMember(item, "maximize", false));
        } else {
            badRequest("objectives must be expression strings or "
                       "{expr, maximize} objects");
        }
    }
    return objectives;
}

/** Bind one evaluated point for objective evaluation. */
void
bindObjectiveVars(const MachineConfig &machine,
                  const std::array<double, 8> &cols,
                  std::vector<double> &vars)
{
    const auto &members = opt::machineMemberNames();
    const std::size_t nMembers = members.size();
    for (std::size_t i = 0; i < nMembers; ++i)
        vars[i] = static_cast<double>(
            opt::machineMember(machine, members[i]));
    // Aliases: depth, window, rob.
    vars[nMembers + 0] = static_cast<double>(machine.frontEndDepth);
    vars[nMembers + 1] = static_cast<double>(machine.windowSize);
    vars[nMembers + 2] = static_cast<double>(machine.robSize);
    // Result columns: cpi (total), ipc, then the breakdown.
    vars[nMembers + 3] = cols[6];
    vars[nMembers + 4] = cols[7];
    vars[nMembers + 5] = cols[0];
    vars[nMembers + 6] = cols[1];
    vars[nMembers + 7] = cols[2];
    vars[nMembers + 8] = cols[3];
    vars[nMembers + 9] = cols[4];
    vars[nMembers + 10] = cols[5];
}

/** One frontier entry of the response document. */
json::Value
pointJson(const MachineConfig &machine,
          const std::array<double, 8> &cols,
          const std::vector<double> &objectiveValues)
{
    json::Value p = json::Value::object();
    p.set("machine", machineToJson(machine));
    json::Value vals = json::Value::array();
    for (const double v : objectiveValues)
        vals.push(v);
    p.set("objectives", std::move(vals));
    p.set("cpi", cols[6]);
    p.set("ipc", cols[7]);
    return p;
}

} // namespace

json::Value
ModelService::optimizeEvaluate(const json::Value &body,
                               const HttpRequest *request)
{
    if (!body.isObject())
        badRequest("request body must be a JSON object");
    requireMembers(body, "request",
                   {"workload", "space", "constraint", "objectives",
                    "machine", "options", "limit"});
    const std::string workload = workloadMember(body);
    const MachineConfig baseline = machineFromJson(body);
    const ModelOptions options = optionsFromJson(body);

    std::uint64_t cap = config_.optimizeMaxPoints;
    const std::uint32_t limit =
        intMember(body, "limit", 0, 0, 1e9);
    if (limit > 0)
        cap = std::min<std::uint64_t>(cap, limit);

    // -- The space spec -------------------------------------------
    const json::Value *spaceSpec = body.find("space");
    if (!spaceSpec || !spaceSpec->isObject())
        badRequest("'space' (object of member -> values) is "
                   "required");
    const json::Value *machineSpec = body.find("machine");

    opt::SpaceSpec spec;
    spec.baseline = baseline;
    for (const auto &member : spaceSpec->members()) {
        opt::AxisSpec axis;
        axis.name = canonicalAxisName(member.first);
        for (const opt::AxisSpec &prior : spec.axes) {
            if (prior.name == axis.name) {
                badRequest("space axis '" + member.first +
                           "' duplicates '" + axis.name + "'");
            }
        }
        if (machineSpec && machineSpec->find(axis.name)) {
            badRequest("'" + axis.name +
                       "' is both a space axis and a 'machine' "
                       "override");
        }
        axis.values = axisValues(axis.name, member.second, cap);
        spec.axes.push_back(std::move(axis));
    }
    // Canonical member order fixes the enumeration order regardless
    // of the order the request listed the axes in.
    const auto &memberNames = opt::machineMemberNames();
    std::sort(spec.axes.begin(), spec.axes.end(),
              [&](const opt::AxisSpec &a, const opt::AxisSpec &b) {
                  const auto pos = [&](const std::string &n) {
                      return std::find(memberNames.begin(),
                                       memberNames.end(), n) -
                             memberNames.begin();
                  };
                  return pos(a.name) < pos(b.name);
              });

    const std::uint64_t cardinality = spec.cardinality();
    if (cardinality > cap) {
        throw ServiceError(
            413, "design space has " + std::to_string(cardinality) +
                     " points (limit " + std::to_string(cap) +
                     "); tighten the axes or raise "
                     "--optimize-max-points");
    }
    if (cardinality == 0)
        throw ServiceError(422, "design space is empty: an axis has "
                                "no values");

    if (const json::Value *c = body.find("constraint")) {
        if (!c->isString())
            badRequest("'constraint' must be an expression string");
        std::string error;
        if (!opt::Expr::parse(c->asString(),
                              opt::machineVariableNames(),
                              spec.constraint, &error))
            badRequest("bad constraint: " + error);
    }
    const std::vector<Objective> objectives = parseObjectives(body);

    // -- Enumerate + plan -----------------------------------------
    opt::EnumeratedSpace space = opt::enumerate(spec);
    const std::size_t n = space.machines.size();
    if (n == 0) {
        throw ServiceError(
            422, "no feasible points: the constraint (or the "
                 "cluster-divisibility rule) rejected all " +
                     std::to_string(cardinality) + " points");
    }
    optSpaces_.inc();
    optPointsPlanned_.inc(n);

    DesignPoints points;
    points.workload = workload;
    points.data = &bench_.workload(workload);
    points.options = options;
    points.machines = std::move(space.machines);

    // Per-point /v1/cpi digest: the point's axis values are a batch
    // row over the request's machine and options blocks, so
    // optimize, /v1/batch and /v1/cpi share cache entries.
    batch::Request rowShape;
    rowShape.workload = workload;
    if (machineSpec)
        rowShape.sharedMachine = *machineSpec;
    if (const json::Value *optionsSpec = body.find("options"))
        rowShape.sharedOptions = *optionsSpec;
    points.keys.reserve(n);
    for (const MachineConfig &machine : points.machines) {
        json::Value row = json::Value::object();
        for (const opt::AxisSpec &axis : spec.axes)
            row.set(axis.name, opt::machineMember(machine, axis.name));
        points.keys.push_back(
            cacheKey("/v1/cpi", batch::mergedRowBody(rowShape, row)));
    }

    const opt::SweepPlan plan = planPoints(points, kOptBatchRows);
    optPointsDeduped_.inc(plan.stats.cacheHits);
    optIwFits_.inc(plan.characterizationKeys.size());

    // -- Evaluate in deterministic waves --------------------------
    // Batches run wave-by-wave over the global pool; results land in
    // per-point slots, so thread count never affects the output.
    // The deadline is checked between waves: remaining batches are
    // shed and the response reports complete=false.
    std::vector<char> evaluated(n, 0);
    for (const std::size_t i : plan.cached)
        evaluated[i] = 1;

    const std::size_t wave =
        std::max<std::size_t>(1, ThreadPool::global().size());
    std::size_t shedFromBatch = plan.batches.size();
    for (std::size_t base = 0; base < plan.batches.size();
         base += wave) {
        if (request && request->deadlineExpired()) {
            shedFromBatch = base;
            break;
        }
        const std::size_t count =
            std::min(wave, plan.batches.size() - base);
        parallelMapIndex(count, [&](std::size_t i) {
            evaluatePoints(points, plan.batches[base + i]);
            return 0;
        });
        for (std::size_t i = 0; i < count; ++i)
            for (const std::size_t p : plan.batches[base + i])
                evaluated[p] = 1;
    }
    std::uint64_t shedPoints = 0;
    for (std::size_t b = shedFromBatch; b < plan.batches.size(); ++b)
        shedPoints += plan.batches[b].size();
    if (shedFromBatch < plan.batches.size()) {
        optBatchesShed_.inc(plan.batches.size() - shedFromBatch);
        optPointsShed_.inc(shedPoints);
    }
    const bool complete = shedFromBatch == plan.batches.size();
    optPointsEvaluated_.inc(plan.stats.scheduled - shedPoints);

    // -- Objectives + frontier ------------------------------------
    // Compact the evaluated points in ordinal order so Pareto
    // tie-breaking keys off the enumeration ordinal.
    std::vector<std::size_t> alive;
    alive.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        if (evaluated[i])
            alive.push_back(i);

    const std::size_t nObj = objectives.size();
    std::vector<double> scores(alive.size() * nObj);
    std::vector<std::vector<double>> rawValues(alive.size());
    std::vector<double> vars(objectiveVariableNames().size(), 0.0);
    for (std::size_t a = 0; a < alive.size(); ++a) {
        const std::size_t i = alive[a];
        bindObjectiveVars(points.machines[i], points.cols[i], vars);
        rawValues[a].reserve(nObj);
        for (std::size_t k = 0; k < nObj; ++k) {
            const double v = objectives[k].expr.eval(vars);
            rawValues[a].push_back(v);
            scores[a * nObj + k] =
                objectives[k].maximize ? -v : v;
        }
    }
    const std::vector<std::size_t> frontier =
        opt::paretoFrontier(scores, nObj);

    // best = the frontier point minimizing objective 0 (first
    // enumeration ordinal on ties).
    std::size_t best = frontier.empty() ? 0 : frontier.front();
    for (const std::size_t f : frontier)
        if (scores[f * nObj] < scores[best * nObj])
            best = f;

    // -- Response -------------------------------------------------
    json::Value out = json::Value::object();
    out.set("workload", workload);
    json::Value spaceOut = json::Value::object();
    spaceOut.set("cardinality", cardinality);
    spaceOut.set("feasible", static_cast<std::uint64_t>(n));
    spaceOut.set("infeasible", space.infeasible);
    spaceOut.set("evaluated",
                 static_cast<std::uint64_t>(alive.size()));
    spaceOut.set("shed", shedPoints);
    out.set("space", std::move(spaceOut));
    json::Value objOut = json::Value::array();
    for (const Objective &o : objectives) {
        json::Value entry = json::Value::object();
        entry.set("expr", o.expr.text());
        entry.set("maximize", o.maximize);
        objOut.push(std::move(entry));
    }
    out.set("objectives", std::move(objOut));
    out.set("complete", complete);
    json::Value frontierOut = json::Value::array();
    for (const std::size_t f : frontier) {
        frontierOut.push(pointJson(points.machines[alive[f]],
                                   points.cols[alive[f]],
                                   rawValues[f]));
    }
    out.set("frontier", std::move(frontierOut));
    if (!frontier.empty()) {
        out.set("best", pointJson(points.machines[alive[best]],
                                  points.cols[alive[best]],
                                  rawValues[best]));
    }
    json::Value planOut = json::Value::object();
    planOut.set("points", plan.stats.points);
    planOut.set("cacheHits", plan.stats.cacheHits);
    planOut.set("scheduled", plan.stats.scheduled);
    planOut.set("characterizations", plan.stats.characterizations);
    planOut.set("batches", plan.stats.batches);
    planOut.set("batchesShed",
                static_cast<std::uint64_t>(plan.batches.size() -
                                           shedFromBatch));
    out.set("planner", std::move(planOut));
    return out;
}

json::Value
ModelService::optimize(const json::Value &request)
{
    return optimizeEvaluate(request, nullptr);
}

HttpResponse
ModelService::optimizeHttp(const HttpRequest &request)
{
    json::Value body = json::Value::object();
    std::string error;
    if (!request.body.empty() &&
        !json::parse(request.body, body, &error)) {
        return HttpResponse::json(
            400, errorJson("invalid JSON body: " + error));
    }
    try {
        const json::Value result = optimizeEvaluate(body, &request);
        const json::Value *complete = result.find("complete");
        // Partial (deadline-shed) frontiers go out 206 so the
        // whole-request memoization never caches them.
        const int status =
            complete && !complete->asBool(true) ? 206 : 200;
        return HttpResponse::json(status, result.dump());
    } catch (const ServiceError &e) {
        return HttpResponse::json(e.status(), errorJson(e.what()));
    }
}

} // namespace fosm::server
