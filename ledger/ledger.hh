/**
 * @file
 * Shared pieces of the perf ledger client: the seeded design-point
 * streams, the in-memory span tracer, the closed-loop HTTP client and
 * the model-vs-sim validation phase. main.cc wires them into the
 * `serve` and `validate` subcommands that ledger/run.py calls.
 */

#ifndef FOSM_LEDGER_LEDGER_HH
#define FOSM_LEDGER_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "experiments/workbench.hh"
#include "server/json.hh"

namespace ledger {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** splitmix64: the whole input stream is a pure function of the seed. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [lo, hi]. */
    std::uint32_t
    range(std::uint32_t lo, std::uint32_t hi)
    {
        return lo + static_cast<std::uint32_t>(next() % (hi - lo + 1));
    }

    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state_;
};

/** One design point: a profile and the machine members a request sets. */
struct Point
{
    std::uint32_t profile = 0;
    std::uint32_t width = 4;
    std::uint32_t windowSize = 48;
    std::uint32_t robSize = 128;
    std::uint32_t deltaD = 200;
    /** 0 leaves deltaI at the baseline (cpi_mix does not vary it). */
    std::uint32_t deltaI = 0;

    std::uint64_t key() const;
    fosm::MachineConfig machine() const;
};

/** The 12 profile names in the Workbench's order. */
const std::vector<std::string> &profileNames();

/**
 * A seeded serving workload, generated in full before timing: request
 * i posts body[req[i]] to path and must receive a body whose hash is
 * expect[req[i]].
 */
struct Stream
{
    std::string path;
    /** Design points per request (1 for /v1/cpi, rows for a batch). */
    std::size_t pointsPerRequest = 1;
    /** Distinct requests: JSON body and expected response hash. */
    std::vector<std::string> body;
    std::vector<std::uint64_t> expect;
    /** The design points behind each distinct request. */
    std::vector<std::vector<Point>> points;
    /** Distinct requests sent once, untimed, before the timed loop. */
    std::vector<std::uint32_t> warmup;
    /** The timed request sequence (indices into wire). */
    std::vector<std::uint32_t> req;
};

/** cpi_mix / cpi_gateway: ~90% Zipf hot set, ~10% never-seen points. */
Stream cpiMixStream(std::uint64_t seed, std::size_t requests,
                    fosm::Workbench &bench);

/** batch_sweep: rowsPerRequest never-seen rows, one profile each. */
Stream batchSweepStream(std::uint64_t seed, std::size_t requests,
                        std::size_t rowsPerRequest,
                        fosm::Workbench &bench);

/** Hash of a response body as the client compares it. */
std::uint64_t bodyHash(std::string_view body);

// -- Span tracer --------------------------------------------------------

/**
 * In-memory spans for one thread of a traced replay: name, parent,
 * request id and [start, end). Written out only when the run ends.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t none = 0xffffffffu;

    std::uint32_t
    begin(const char *name, std::uint32_t parent, std::uint64_t req)
    {
        spans_.push_back(Span{name, parent, req, nowNs(), 0, 0, 1});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    void
    end(std::uint32_t id, std::uint64_t items = 1)
    {
        Span &s = spans_[id];
        s.end = nowNs();
        s.items = items;
        if (s.parent != none)
            spans_[s.parent].childNs += s.end - s.start;
    }

    struct Span
    {
        const char *name;
        std::uint32_t parent;
        std::uint64_t req;
        std::int64_t start;
        std::int64_t end;
        /** Summed duration of the direct children. */
        std::int64_t childNs;
        /** Work items the span covered (rows, instructions). */
        std::uint64_t items;

        std::int64_t dur() const { return end - start; }
        std::int64_t self() const { return dur() - childNs; }
    };

    const std::vector<Span> &spans() const { return spans_; }
    void append(const Tracer &other);

    /** Tab-separated dump: name, id, parent, req, start, dur, self. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** RAII span. */
class Scoped
{
  public:
    Scoped(Tracer &t, const char *name, std::uint32_t parent,
           std::uint64_t req, std::uint64_t items = 1)
        : t_(t), id_(t.begin(name, parent, req)), items_(items)
    {
    }
    ~Scoped() { t_.end(id_, items_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    Tracer &t_;
    std::uint32_t id_;
    std::uint64_t items_;
};

/** Per-layer totals of a span set. */
struct LayerStats
{
    double totalSelfNs = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
};

std::map<std::string, LayerStats> summarize(const Tracer &t);

double median(std::vector<double> v);
double percentile(std::vector<double> v, double q);

/**
 * Median completion rate over equal time slices of a timed phase, from
 * each item's completion time (ns after the phase began): a burst of
 * interference moves one slice, not the figure.
 */
double medianSliceRate(const std::vector<double> &doneNs, double wallS);

// -- Characterization setup, traced -------------------------------------

/**
 * Rebuild every profile's characterization through the public calls
 * Workbench::workload makes (generateTrace, profileTrace,
 * measureIwCurve, fitIw), one span each, and time a cold
 * Workbench::workload per profile. Adds the setup layer metrics.
 */
void traceSetup(fosm::json::Value &metrics, Tracer &spans);

// -- Closed-loop client -------------------------------------------------

/** User + system CPU seconds of this process so far. */
double cpuSeconds();

struct LoadResult
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatched = 0;
    /** Client-observed latency per timed request, ns (failures: +inf). */
    std::vector<double> latencyNs;
    /** Completion time of each answered request, ns after the start. */
    std::vector<double> doneNs;
};

/**
 * Post each index of order over conns keep-alive connections to
 * 127.0.0.1:port, closed loop, and check every response against the
 * stream's expected hash.
 */
LoadResult runLoad(const Stream &s, const std::vector<std::uint32_t> &order,
                   std::uint16_t port, std::size_t conns);

/** One blocking GET; empty on failure. */
std::string httpGet(std::uint16_t port, const std::string &target);

/** A counter's value in Prometheus text (0 when absent). */
double promValue(const std::string &text, const std::string &name);

// -- Validation against fosm::sim ---------------------------------------

/** One design point checked against the detailed simulator. */
struct ValidationPoint
{
    std::uint32_t profile = 0;
    fosm::MachineConfig machine;
    /** Held-out cache/predictor variant, or -1 for the baseline one. */
    int variant = -1;
};

struct ValidationResult
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double meanErrorPct = 0.0;
    std::vector<double> pointNs;
    /** Completion time of each point, ns after the phase began. */
    std::vector<double> doneNs;
    /** Median over points of simulated instructions per simulator ns. */
    double simInstsPerNs = 0.0;
    /** FNV-1a over every SimStats and CpiBreakdown, in sample order. */
    std::uint64_t digest = 0;
    /** Traced runs: points whose child spans miss the 10% check. */
    std::uint64_t sumCheckFailures = 0;
    double worstSumRatio = 1.0;
};

/**
 * Simulate and model every point over the global pool. With a tracer
 * (traced), spans wrap profileTrace, fitIw, FirstOrderModel::evaluate
 * and simulateTrace under one span per point.
 */
ValidationResult validatePoints(fosm::Workbench &bench,
                                const std::vector<ValidationPoint> &pts,
                                Tracer *tracer);

/** Seeded design-space sample for the validate workload. */
std::vector<ValidationPoint> validationSample(std::uint64_t seed,
                                              std::size_t n);

/** A seeded, profile-stratified sample of served points. */
std::vector<ValidationPoint>
servedSample(const Stream &s, std::uint64_t seed, std::size_t n);

/**
 * Recompute the Figure 15 table and compare it byte for byte with the
 * checked-in results/fig15_model_vs_sim.txt under root.
 */
bool fig15Matches(fosm::Workbench &bench, const std::string &root,
                  std::string &diagnostic);

// -- Traced in-process replay of a serving stream ----------------------

struct ReplayOptions
{
    std::string storeDir;
    std::size_t requests = 0;
    /** Live backend for the gateway measurements; 0 skips them. */
    std::uint16_t backendPort = 0;
    /** Client-observed median of the real run, for transport time. */
    double clientP50Ns = 0.0;
};

/**
 * Replay the stream's first requests in-process, twice per request:
 * through ModelService::handler() (black box) and through the public
 * functions it calls, one span per call. Adds server/store/model/iw/
 * cluster layer metrics and the sum check to metrics and record.
 */
bool replayTraced(const Stream &s, const ReplayOptions &opt,
                  fosm::json::Value &metrics, fosm::json::Value &record,
                  Tracer &spans);

} // namespace ledger

#endif // FOSM_LEDGER_LEDGER_HH
