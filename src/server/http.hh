/**
 * @file
 * Dependency-free HTTP/1.1 server over POSIX sockets. One or more IO
 * threads (config.ioThreads; N > 1 binds N SO_REUSEPORT listen
 * sockets so the kernel load-balances accepts) each run a poll()
 * loop over their own connections; complete requests are admitted
 * through a shared bounded queue to a pool of worker threads that
 * run the application handler and write the response back on the
 * same connection (keep-alive, one request in flight per connection
 * — no pipelining). Workers drain up to config.batchSize queued
 * requests per wakeup, amortizing the condition-variable handoff
 * under load. When the queue is full the IO thread answers 503 with
 * a Retry-After header immediately, so overload degrades into fast
 * rejection instead of collapsing latency. Shutdown (requestStop, or
 * a byte written to stopFd() from a signal handler) stops accepting
 * work, drains every dispatched request, then closes all
 * connections.
 */

#ifndef FOSM_SERVER_HTTP_HH
#define FOSM_SERVER_HTTP_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/metrics.hh"
#include "tenant/fair_queue.hh"

namespace fosm::server {

/** One parsed request. Header names are lowercased. */
struct HttpRequest
{
    std::string method;
    std::string target;
    std::string version;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;
    bool keepAlive = true;

    /**
     * Absolute processing deadline derived from the
     * X-Fosm-Deadline-Ms request header (stampDeadline); the epoch
     * default means "no deadline". Work past the deadline is wasted —
     * the waiter upstream has already timed out — so the worker pool
     * sheds expired requests with 504 at dequeue and the service
     * checks again before expensive evaluation.
     */
    std::chrono::steady_clock::time_point deadline{};

    bool hasDeadline() const
    {
        return deadline != std::chrono::steady_clock::time_point{};
    }

    bool deadlineExpired() const
    {
        return hasDeadline() &&
               std::chrono::steady_clock::now() >= deadline;
    }

    /** Milliseconds of budget left; 0 when expired, -1 when none. */
    int deadlineRemainingMs() const;

    /** First header with this (lowercase) name, or empty. */
    const std::string &header(const std::string &name) const;

    /** Target without the query string. */
    std::string path() const;
};

/** The request header that carries a relative deadline budget. */
inline constexpr const char *deadlineHeader = "X-Fosm-Deadline-Ms";

/** Milliseconds until a steady-clock deadline, clamped to
 *  [0, INT_MAX]. */
int millisLeft(std::chrono::steady_clock::time_point deadline);

/**
 * Parse X-Fosm-Deadline-Ms (non-negative integer milliseconds,
 * capped at one hour) and stamp request.deadline relative to now.
 * Malformed values are ignored — a bad hint must not fail a request
 * that would otherwise succeed.
 */
void stampDeadline(HttpRequest &request,
                   std::chrono::steady_clock::time_point now);

/** One response under construction. */
struct HttpResponse
{
    int status = 200;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    HttpResponse() = default;
    explicit HttpResponse(int s) : status(s) {}

    void
    setHeader(const std::string &name, const std::string &value)
    {
        headers.emplace_back(name, value);
    }

    /** JSON convenience: sets body and content type. */
    static HttpResponse json(int status, const std::string &body);

    /** text/plain convenience. */
    static HttpResponse text(int status, const std::string &body);
};

/** Standard reason phrase for a status code. */
const char *statusReason(int status);

/** Outcome of trying to parse one request from a byte buffer. */
enum class ParseStatus
{
    Ok,         ///< request complete; consumed bytes reported
    Incomplete, ///< need more bytes
    Bad,        ///< malformed; connection should get 400 and close
    TooLarge,   ///< body over the limit; 413 and close
};

/**
 * Parse one HTTP/1.1 request from the front of data. On Ok, fills
 * out and sets consumed to the bytes used (pipelined remainders stay
 * in the buffer). error receives a diagnostic on Bad/TooLarge.
 */
ParseStatus parseHttpRequest(const std::string &data,
                             std::size_t maxBody, HttpRequest &out,
                             std::size_t &consumed,
                             std::string &error);

/** Serialize with Content-Length and Connection headers added. */
std::string serializeResponse(const HttpResponse &response,
                              bool keepAlive);

/**
 * Verdict of the (optional) admission hook, consulted on the IO
 * thread before a parsed request is queued. status 0 admits the
 * request into queueClass's sub-queue at the given DRR weight; a
 * non-zero status (401, 429) is answered immediately without
 * touching the worker pool, with a Retry-After header when
 * retryAfterSeconds > 0.
 */
struct AdmissionVerdict
{
    int status = 0;
    std::string message;
    int retryAfterSeconds = 0;
    std::uint32_t queueClass = 0;
    double weight = 1.0;
};

/** Server tuning knobs. */
struct HttpServerConfig
{
    std::string host = "127.0.0.1";
    /** 0 binds an ephemeral port; see HttpServer::port(). */
    std::uint16_t port = 0;
    /** Worker threads; 0 means one per hardware thread (min 2). */
    std::size_t workers = 0;
    /**
     * Acceptor/IO threads. Values > 1 bind that many SO_REUSEPORT
     * listen sockets, one poll loop per acceptor, so connection
     * handling scales past a single IO thread.
     */
    std::size_t ioThreads = 1;
    /** Max queued requests one worker drains per queue wakeup. */
    std::size_t batchSize = 4;
    /** Bounded request-queue capacity (admission control). */
    std::size_t queueCapacity = 128;
    /** Maximum accepted connections before shedding with 503. */
    std::size_t maxConnections = 1024;
    /** Maximum request body bytes (413 beyond). */
    std::size_t maxBodyBytes = 1 << 20;
    /** Retry-After seconds advertised on 503 responses. */
    int retryAfterSeconds = 1;
    /**
     * Paths used as metric label values; anything else is labeled
     * "other" to bound the metric cardinality.
     */
    std::vector<std::string> metricPaths;
    /**
     * Tenant admission hook (tools wire tenant::Admission here).
     * Runs on the IO thread for every parsed request. Null means
     * every request is admitted as class 0 — the worker queue then
     * degenerates to the original single FIFO.
     */
    std::function<AdmissionVerdict(const HttpRequest &)> admission;
};

/**
 * The server. Construct with a handler, start(), and eventually
 * requestStop() + join(). The handler runs on worker threads and
 * must be thread-safe; exceptions escaping it become 500 responses.
 */
class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest &)>;

    HttpServer(HttpServerConfig config, Handler handler,
               MetricsRegistry *metrics = nullptr);
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Bind, listen and spawn IO + worker threads. Fatal on bind
     *  failure (bad host, port in use). */
    void start();

    /** The bound port (after start()); useful with port 0. */
    std::uint16_t port() const { return boundPort_; }

    /** Begin graceful shutdown: stop accepting, drain in-flight. */
    void requestStop();

    /**
     * Write end of the self-pipe; writing one byte triggers the same
     * graceful shutdown. write() on it is async-signal-safe, so a
     * SIGINT/SIGTERM handler can use it directly.
     */
    int stopFd() const { return stopPipe_[1]; }

    /** Wait for shutdown to complete (all threads joined). */
    void join();

    /** Requests fully served (any status) since start. */
    std::uint64_t requestsServed() const { return served_.load(); }

    /** Requests rejected with 503 (queue full / too many conns). */
    std::uint64_t requestsRejected() const
    {
        return rejected_.load();
    }

    /**
     * Per-class worker-queue counters (pushed/drained/shed/depth),
     * indexed by admission class id — the data behind the
     * fosm_tenant_queue_* metrics.
     */
    std::vector<tenant::FairQueueClassCounts>
    queueClassCounts() const
    {
        return queue_->classCounts();
    }

  private:
    struct Conn;
    struct IoLoop;

    /** One dispatched request bound for a worker. */
    struct Task
    {
        int fd = -1;
        IoLoop *loop = nullptr; ///< acceptor that owns the conn
        HttpRequest request;
        std::chrono::steady_clock::time_point arrival;
        bool keepAlive = true;
        std::uint32_t queueClass = 0; ///< tenant sub-queue
        double weight = 1.0;          ///< DRR drain weight
    };

    void ioMain(IoLoop &loop);
    void workerMain();
    void acceptNew(IoLoop &loop);
    void handleReadable(IoLoop &loop, Conn &conn);
    bool dispatchBuffered(IoLoop &loop, Conn &conn);
    void closeConn(IoLoop &loop, int fd);
    void notifyDone(IoLoop &loop, int fd, bool closeAfter);
    Counter *requestCounter(const std::string &path, int status);
    void countRequest(const std::string &path, int status,
                      std::chrono::steady_clock::time_point arrival);
    void rejectBusy(int fd, const char *why, bool keepAlive);
    void rejectAdmission(int fd, const AdmissionVerdict &verdict,
                         bool keepAlive);

    HttpServerConfig config_;
    Handler handler_;
    MetricsRegistry *metrics_;

    int stopPipe_[2] = {-1, -1};
    std::uint16_t boundPort_ = 0;

    /** shared_ptr so the /metrics queue-depth callback registered in
     *  the registry can outlive the server object safely. With no
     *  admission hook only class 0 exists and the weighted-fair
     *  queue is a plain bounded FIFO. */
    std::shared_ptr<tenant::FairQueue<Task>> queue_;
    std::vector<std::unique_ptr<IoLoop>> loops_;
    std::vector<std::thread> workers_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> started_{false};
    std::atomic<std::uint64_t> served_{0};
    std::atomic<std::uint64_t> rejected_{0};
    /** IO loops still draining; the last one closes the queue. */
    std::atomic<std::size_t> activeLoops_{0};
    /** Open connections across all loops (limit + gauge). */
    std::atomic<std::size_t> totalConns_{0};

    // Metric objects resolved once at start().
    Histogram *latency_ = nullptr;
    Counter *rejectedCounter_ = nullptr;
    Counter *deadlineShed_ = nullptr;
    Gauge *connectionsGauge_ = nullptr;
    Gauge *inflightGauge_ = nullptr;
    std::mutex counterMutex_;
    std::map<std::pair<std::string, int>, Counter *> counters_;
};

} // namespace fosm::server

#endif // FOSM_SERVER_HTTP_HH
