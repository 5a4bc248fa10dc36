#include "server/http.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "server/json.hh"

namespace fosm::server {

// ---------------------------------------------------------------
// Messages
// ---------------------------------------------------------------

const std::string &
HttpRequest::header(const std::string &name) const
{
    static const std::string empty;
    for (const auto &h : headers)
        if (h.first == name)
            return h.second;
    return empty;
}

std::string
HttpRequest::path() const
{
    const std::size_t q = target.find('?');
    return q == std::string::npos ? target : target.substr(0, q);
}

int
millisLeft(std::chrono::steady_clock::time_point deadline)
{
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (left <= 0)
        return 0;
    return static_cast<int>(std::min<long long>(
        left, std::numeric_limits<int>::max()));
}

int
HttpRequest::deadlineRemainingMs() const
{
    return hasDeadline() ? millisLeft(deadline) : -1;
}

void
stampDeadline(HttpRequest &request,
              std::chrono::steady_clock::time_point now)
{
    const std::string &value =
        request.header("x-fosm-deadline-ms");
    if (value.empty())
        return;
    char *end = nullptr;
    const long ms = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || ms < 0)
        return; // malformed hint: ignore, don't fail the request
    request.deadline =
        now + std::chrono::milliseconds(
                  std::min(ms, 3600L * 1000L));
}

HttpResponse
HttpResponse::json(int status, const std::string &body)
{
    HttpResponse r(status);
    r.setHeader("Content-Type", "application/json");
    r.body = body;
    return r;
}

HttpResponse
HttpResponse::text(int status, const std::string &body)
{
    HttpResponse r(status);
    r.setHeader("Content-Type", "text/plain; charset=utf-8");
    r.body = body;
    return r;
}

const char *
statusReason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 204: return "No Content";
      case 206: return "Partial Content";
      case 400: return "Bad Request";
      case 401: return "Unauthorized";
      case 403: return "Forbidden";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 413: return "Payload Too Large";
      case 422: return "Unprocessable Content";
      case 429: return "Too Many Requests";
      case 500: return "Internal Server Error";
      case 501: return "Not Implemented";
      case 502: return "Bad Gateway";
      case 503: return "Service Unavailable";
      case 504: return "Gateway Timeout";
      default: return "Unknown";
    }
}

namespace {

constexpr std::size_t maxHeaderBytes = 16 * 1024;

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t'))
        --e;
    return s.substr(b, e - b);
}

} // namespace

ParseStatus
parseHttpRequest(const std::string &data, std::size_t maxBody,
                 HttpRequest &out, std::size_t &consumed,
                 std::string &error)
{
    const std::size_t headerEnd = data.find("\r\n\r\n");
    if (headerEnd == std::string::npos) {
        if (data.size() > maxHeaderBytes) {
            error = "header section too large";
            return ParseStatus::Bad;
        }
        return ParseStatus::Incomplete;
    }
    if (headerEnd > maxHeaderBytes) {
        error = "header section too large";
        return ParseStatus::Bad;
    }

    out = HttpRequest{};

    // Request line.
    const std::size_t lineEnd = data.find("\r\n");
    const std::string line = data.substr(0, lineEnd);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        line.find(' ', sp2 + 1) != std::string::npos) {
        error = "malformed request line";
        return ParseStatus::Bad;
    }
    out.method = line.substr(0, sp1);
    out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    out.version = line.substr(sp2 + 1);
    if (out.method.empty() || out.target.empty() ||
        out.target[0] != '/') {
        error = "malformed request line";
        return ParseStatus::Bad;
    }
    if (out.version != "HTTP/1.1" && out.version != "HTTP/1.0") {
        error = "unsupported HTTP version";
        return ParseStatus::Bad;
    }

    // Header fields.
    std::size_t pos = lineEnd + 2;
    while (pos < headerEnd) {
        const std::size_t eol = data.find("\r\n", pos);
        const std::string field = data.substr(pos, eol - pos);
        pos = eol + 2;
        const std::size_t colon = field.find(':');
        if (colon == std::string::npos || colon == 0) {
            error = "malformed header field";
            return ParseStatus::Bad;
        }
        const std::string rawName = field.substr(0, colon);
        for (const char c : rawName) {
            // Whitespace or control bytes in the field name (before
            // the colon) are a smuggling vector; reject them.
            if (c == ' ' || c == '\t' ||
                static_cast<unsigned char>(c) < 0x21) {
                error = "whitespace in header name";
                return ParseStatus::Bad;
            }
        }
        out.headers.emplace_back(toLower(rawName),
                                 trim(field.substr(colon + 1)));
    }

    if (!out.header("transfer-encoding").empty()) {
        error = "transfer-encoding not supported";
        return ParseStatus::Bad;
    }

    // Body.
    std::size_t bodyLen = 0;
    const std::string &cl = out.header("content-length");
    if (!cl.empty()) {
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(cl.c_str(), &end, 10);
        if (end == cl.c_str() || *end != '\0') {
            error = "malformed content-length";
            return ParseStatus::Bad;
        }
        bodyLen = static_cast<std::size_t>(v);
    }
    if (bodyLen > maxBody) {
        error = "request body too large";
        return ParseStatus::TooLarge;
    }
    const std::size_t total = headerEnd + 4 + bodyLen;
    if (data.size() < total)
        return ParseStatus::Incomplete;
    out.body = data.substr(headerEnd + 4, bodyLen);
    consumed = total;

    const std::string conn = toLower(out.header("connection"));
    out.keepAlive = out.version == "HTTP/1.1" ? conn != "close"
                                              : conn == "keep-alive";
    return ParseStatus::Ok;
}

std::string
serializeResponse(const HttpResponse &response, bool keepAlive)
{
    std::string out;
    out.reserve(128 + response.body.size());
    out += "HTTP/1.1 ";
    out += std::to_string(response.status);
    out += " ";
    out += statusReason(response.status);
    out += "\r\n";
    for (const auto &h : response.headers) {
        out += h.first;
        out += ": ";
        out += h.second;
        out += "\r\n";
    }
    out += "Content-Length: ";
    out += std::to_string(response.body.size());
    out += "\r\nConnection: ";
    out += keepAlive ? "keep-alive" : "close";
    out += "\r\n\r\n";
    out += response.body;
    return out;
}

// ---------------------------------------------------------------
// Server
// ---------------------------------------------------------------

namespace {

void
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/**
 * Write the whole buffer to a non-blocking socket, polling for
 * writability as needed. Returns false on error or a stuck peer.
 */
bool
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            struct pollfd p{fd, POLLOUT, 0};
            if (::poll(&p, 1, 5000) <= 0)
                return false; // peer stuck for 5s: give up
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

void
drainPipe(int fd)
{
    char buf[256];
    while (::read(fd, buf, sizeof(buf)) > 0) {
    }
}

} // namespace

/** Per-connection state, owned by its acceptor's IO thread. */
struct HttpServer::Conn
{
    enum class State
    {
        Reading,    ///< polled for input
        Processing, ///< one request dispatched; reads paused
    };

    explicit Conn(int f) : fd(f) {}

    int fd;
    State state = State::Reading;
    std::string inbuf;
};

/**
 * One acceptor: its own SO_REUSEPORT listen socket, poll loop,
 * connection table and worker-completion queue. All fields except
 * done/doneMutex are touched only by the loop's own thread.
 */
struct HttpServer::IoLoop
{
    ~IoLoop()
    {
        for (const int fd : {listenFd, wakePipe[0], wakePipe[1]}) {
            if (fd >= 0)
                ::close(fd);
        }
    }

    int listenFd = -1;
    int wakePipe[2] = {-1, -1};
    std::thread thread;
    std::map<int, std::unique_ptr<Conn>> conns;
    std::mutex doneMutex;
    std::vector<std::pair<int, bool>> done;
    std::size_t inflight = 0; ///< dispatched tasks; loop thread only
};

HttpServer::HttpServer(HttpServerConfig config, Handler handler,
                       MetricsRegistry *metrics)
    : config_(std::move(config)), handler_(std::move(handler)),
      metrics_(metrics)
{
    queue_ = std::make_shared<tenant::FairQueue<Task>>(
        config_.queueCapacity);
}

HttpServer::~HttpServer()
{
    if (started_.load()) {
        requestStop();
        join();
    }
    loops_.clear(); // closes per-loop fds
    for (const int fd : {stopPipe_[0], stopPipe_[1]}) {
        if (fd >= 0)
            ::close(fd);
    }
}

void
HttpServer::start()
{
    fosm_assert(!started_.load(), "HttpServer started twice");

    if (::pipe(stopPipe_) != 0)
        fosm_fatal("cannot create server pipes: ",
                   std::strerror(errno));
    setNonBlocking(stopPipe_[0]);
    setNonBlocking(stopPipe_[1]);

    const std::size_t nloops =
        std::max<std::size_t>(1, config_.ioThreads);
    loops_.reserve(nloops);
    for (std::size_t i = 0; i < nloops; ++i) {
        auto loop = std::make_unique<IoLoop>();
        if (::pipe(loop->wakePipe) != 0)
            fosm_fatal("cannot create server pipes: ",
                       std::strerror(errno));
        setNonBlocking(loop->wakePipe[0]);
        setNonBlocking(loop->wakePipe[1]);

        loop->listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (loop->listenFd < 0)
            fosm_fatal("cannot create socket: ",
                       std::strerror(errno));
        const int one = 1;
        ::setsockopt(loop->listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        if (nloops > 1) {
            // Each acceptor binds its own socket to the same port;
            // the kernel spreads incoming connections across them.
            if (::setsockopt(loop->listenFd, SOL_SOCKET,
                             SO_REUSEPORT, &one, sizeof(one)) != 0) {
                fosm_fatal("SO_REUSEPORT unavailable: ",
                           std::strerror(errno));
            }
        }

        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        // Acceptors past the first share whatever port the first
        // one bound (--port 0 resolves to one ephemeral port).
        addr.sin_port = htons(i == 0 ? config_.port : boundPort_);
        if (::inet_pton(AF_INET, config_.host.c_str(),
                        &addr.sin_addr) != 1) {
            fosm_fatal("invalid listen address: ", config_.host);
        }
        if (::bind(loop->listenFd,
                   reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            fosm_fatal("cannot bind ", config_.host, ":",
                       config_.port, ": ", std::strerror(errno));
        }
        if (::listen(loop->listenFd, 512) != 0)
            fosm_fatal("listen failed: ", std::strerror(errno));
        setNonBlocking(loop->listenFd);

        if (i == 0) {
            socklen_t len = sizeof(addr);
            ::getsockname(loop->listenFd,
                          reinterpret_cast<sockaddr *>(&addr), &len);
            boundPort_ = ntohs(addr.sin_port);
        }
        loops_.push_back(std::move(loop));
    }

    if (metrics_) {
        latency_ = &metrics_->histogram(
            "fosm_http_request_duration_seconds",
            "Request latency from parse completion to response "
            "written");
        rejectedCounter_ = &metrics_->counter(
            "fosm_http_rejected_total",
            "Requests shed with 503 (queue full or connection "
            "limit)");
        deadlineShed_ = &metrics_->counter(
            "fosm_deadline_shed_total",
            "Requests answered 504 because their deadline expired "
            "before a worker picked them up",
            "stage=\"queue\"");
        connectionsGauge_ =
            &metrics_->gauge("fosm_http_connections",
                             "Open client connections");
        inflightGauge_ = &metrics_->gauge(
            "fosm_http_inflight_requests",
            "Requests dispatched to workers and not yet answered");
        // Sampled at scrape time so the hot path never touches it.
        std::shared_ptr<tenant::FairQueue<Task>> queue = queue_;
        metrics_->addCallbackGauge(
            "fosm_http_queue_depth",
            "Requests waiting in the admission queue",
            [queue] { return static_cast<double>(queue->size()); });
    }

    std::size_t workers = config_.workers;
    if (workers == 0) {
        workers = std::max<std::size_t>(
            2, std::thread::hardware_concurrency());
    }
    started_.store(true);
    activeLoops_.store(loops_.size());
    for (auto &loop : loops_) {
        IoLoop *l = loop.get();
        loop->thread = std::thread([this, l] { ioMain(*l); });
    }
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

void
HttpServer::requestStop()
{
    if (stopPipe_[1] >= 0) {
        const char b = 's';
        [[maybe_unused]] ssize_t n = ::write(stopPipe_[1], &b, 1);
    }
}

void
HttpServer::join()
{
    for (auto &loop : loops_)
        if (loop->thread.joinable())
            loop->thread.join();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
}

void
HttpServer::notifyDone(IoLoop &loop, int fd, bool closeAfter)
{
    {
        std::lock_guard<std::mutex> lock(loop.doneMutex);
        loop.done.emplace_back(fd, closeAfter);
    }
    const char b = 'd';
    [[maybe_unused]] ssize_t n = ::write(loop.wakePipe[1], &b, 1);
}

Counter *
HttpServer::requestCounter(const std::string &path, int status)
{
    if (!metrics_)
        return nullptr;
    std::string label = "other";
    for (const std::string &known : config_.metricPaths) {
        if (known == path) {
            label = path;
            break;
        }
    }
    std::lock_guard<std::mutex> lock(counterMutex_);
    const auto key = std::make_pair(label, status);
    const auto it = counters_.find(key);
    if (it != counters_.end())
        return it->second;
    Counter &counter = metrics_->counter(
        "fosm_http_requests_total", "Requests served by path and code",
        "path=\"" + label + "\",code=\"" + std::to_string(status) +
            "\"");
    counters_[key] = &counter;
    return &counter;
}

void
HttpServer::countRequest(const std::string &path, int status,
                         std::chrono::steady_clock::time_point arrival)
{
    if (Counter *counter = requestCounter(path, status))
        counter->inc();
    if (latency_) {
        latency_->observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              arrival)
                              .count());
    }
}

namespace {

/** {"error": "..."} with proper string escaping. */
std::string
errorBody(const std::string &message)
{
    json::Value v = json::Value::object();
    v.set("error", message);
    return v.dump();
}

} // namespace

void
HttpServer::workerMain()
{
    const std::size_t batchMax =
        std::max<std::size_t>(1, config_.batchSize);
    std::vector<Task> batch;
    while (queue_->popBatch(batch, batchMax)) {
        // Every task in the batch was admitted by one queue wakeup;
        // handle them back to back without re-taking the queue lock.
        for (Task &task : batch) {
            if (inflightGauge_)
                inflightGauge_->add(1);
            // The waiter has already timed out; answering 504 now is
            // cheaper than computing a result nobody will read.
            if (task.request.deadlineExpired()) {
                if (deadlineShed_)
                    deadlineShed_->inc();
                const bool keepAlive = task.keepAlive;
                const bool ok = sendAll(
                    task.fd,
                    serializeResponse(
                        HttpResponse::json(
                            504,
                            errorBody("deadline exceeded in queue")),
                        keepAlive));
                served_.fetch_add(1, std::memory_order_relaxed);
                countRequest(task.request.path(), 504, task.arrival);
                if (inflightGauge_)
                    inflightGauge_->sub(1);
                notifyDone(*task.loop, task.fd, !keepAlive || !ok);
                continue;
            }
            HttpResponse response;
            try {
                response = handler_(task.request);
            } catch (const std::exception &e) {
                response =
                    HttpResponse::json(500, errorBody(e.what()));
            } catch (...) {
                response = HttpResponse::json(
                    500, errorBody("unknown handler error"));
            }
            const bool keepAlive = task.keepAlive;
            const bool ok = sendAll(
                task.fd, serializeResponse(response, keepAlive));
            served_.fetch_add(1, std::memory_order_relaxed);
            countRequest(task.request.path(), response.status,
                         task.arrival);
            if (inflightGauge_)
                inflightGauge_->sub(1);
            notifyDone(*task.loop, task.fd, !keepAlive || !ok);
        }
    }
}

void
HttpServer::rejectAdmission(int fd, const AdmissionVerdict &verdict,
                            bool keepAlive)
{
    HttpResponse response =
        HttpResponse::json(verdict.status, errorBody(verdict.message));
    if (verdict.retryAfterSeconds > 0) {
        response.setHeader("Retry-After",
                           std::to_string(verdict.retryAfterSeconds));
    }
    sendAll(fd, serializeResponse(response, keepAlive));
}

void
HttpServer::rejectBusy(int fd, const char *why, bool keepAlive)
{
    HttpResponse busy = HttpResponse::json(503, errorBody(why));
    busy.setHeader("Retry-After",
                   std::to_string(config_.retryAfterSeconds));
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (rejectedCounter_)
        rejectedCounter_->inc();
    sendAll(fd, serializeResponse(busy, keepAlive));
}

void
HttpServer::closeConn(IoLoop &loop, int fd)
{
    const auto it = loop.conns.find(fd);
    if (it == loop.conns.end())
        return;
    ::close(fd);
    loop.conns.erase(it);
    const std::size_t total =
        totalConns_.fetch_sub(1, std::memory_order_relaxed) - 1;
    if (connectionsGauge_)
        connectionsGauge_->set(static_cast<std::int64_t>(total));
}

void
HttpServer::acceptNew(IoLoop &loop)
{
    while (true) {
        const int fd = ::accept(loop.listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR) {
                return;
            }
            warn("accept failed: ", std::strerror(errno));
            return;
        }
        setNonBlocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        if (totalConns_.load(std::memory_order_relaxed) >=
            config_.maxConnections) {
            // Connection-level shedding: tell the client to back off.
            rejectBusy(fd, "too many connections", false);
            ::close(fd);
            continue;
        }
        loop.conns.emplace(fd, std::make_unique<Conn>(fd));
        const std::size_t total =
            totalConns_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (connectionsGauge_)
            connectionsGauge_->set(static_cast<std::int64_t>(total));
    }
}

bool
HttpServer::dispatchBuffered(IoLoop &loop, Conn &conn)
{
    while (conn.state == Conn::State::Reading &&
           !conn.inbuf.empty()) {
        HttpRequest request;
        std::size_t consumed = 0;
        std::string error;
        const ParseStatus st =
            parseHttpRequest(conn.inbuf, config_.maxBodyBytes,
                             request, consumed, error);
        if (st == ParseStatus::Incomplete)
            return true;
        if (st == ParseStatus::Bad || st == ParseStatus::TooLarge) {
            const int code = st == ParseStatus::Bad ? 400 : 413;
            sendAll(conn.fd,
                    serializeResponse(
                        HttpResponse::json(code, errorBody(error)),
                        false));
            countRequest("(bad)", code,
                         std::chrono::steady_clock::now());
            closeConn(loop, conn.fd);
            return false;
        }
        conn.inbuf.erase(0, consumed);

        const std::string path = request.path();
        const bool keepAlive = request.keepAlive;

        Task task;
        task.fd = conn.fd;
        task.loop = &loop;
        task.request = std::move(request);
        task.arrival = std::chrono::steady_clock::now();
        stampDeadline(task.request, task.arrival);
        task.keepAlive = keepAlive;

        // Tenant admission: authenticate and classify before the
        // queue, so a rejected request (401/429) never costs a
        // worker wakeup and an admitted one lands in its own
        // tenant's sub-queue.
        if (config_.admission) {
            const AdmissionVerdict verdict =
                config_.admission(task.request);
            if (verdict.status != 0) {
                rejectAdmission(conn.fd, verdict, keepAlive);
                countRequest(path, verdict.status,
                             std::chrono::steady_clock::now());
                if (!keepAlive) {
                    closeConn(loop, conn.fd);
                    return false;
                }
                continue;
            }
            task.queueClass = verdict.queueClass;
            task.weight = verdict.weight;
        }

        const std::uint32_t queueClass = task.queueClass;
        const double weight = task.weight;
        if (queue_->tryPush(std::move(task), queueClass, weight)) {
            conn.state = Conn::State::Processing;
            ++loop.inflight;
            return true;
        }

        // Queue full (or closing): shed this request, keep the
        // connection so the client can retry after the hint.
        rejectBusy(conn.fd, "server overloaded", keepAlive);
        countRequest(path, 503, std::chrono::steady_clock::now());
        if (!keepAlive) {
            closeConn(loop, conn.fd);
            return false;
        }
    }
    return true;
}

void
HttpServer::handleReadable(IoLoop &loop, Conn &conn)
{
    char buf[16 * 1024];
    while (true) {
        const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n > 0) {
            conn.inbuf.append(buf, static_cast<std::size_t>(n));
            // Cap runaway buffers from clients that never finish a
            // request header.
            if (conn.state == Conn::State::Reading &&
                conn.inbuf.size() >
                    maxHeaderBytes + config_.maxBodyBytes) {
                closeConn(loop, conn.fd);
                return;
            }
            continue;
        }
        if (n == 0) {
            // Peer closed. If a request is in flight the worker
            // still owns the fd for writing; defer the close to the
            // done notification (the write will just fail).
            if (conn.state != Conn::State::Processing)
                closeConn(loop, conn.fd);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        if (conn.state != Conn::State::Processing)
            closeConn(loop, conn.fd);
        return;
    }
    dispatchBuffered(loop, conn);
}

void
HttpServer::ioMain(IoLoop &loop)
{
    std::vector<struct pollfd> fds;
    std::vector<int> readable;
    while (true) {
        bool stopping = stopping_.load();
        fds.clear();
        // The stop pipe is never drained, so its POLLIN is level-
        // triggered and every acceptor observes the same stop byte;
        // once observed, drop it from the poll set.
        const bool watchStop = !stopping;
        if (watchStop)
            fds.push_back({stopPipe_[0], POLLIN, 0});
        const std::size_t wakeIdx = fds.size();
        fds.push_back({loop.wakePipe[0], POLLIN, 0});
        const bool accepting = !stopping && loop.listenFd >= 0;
        std::size_t listenIdx = 0;
        if (accepting) {
            listenIdx = fds.size();
            fds.push_back({loop.listenFd, POLLIN, 0});
        }
        const std::size_t connsFrom = fds.size();
        if (!stopping) {
            for (const auto &entry : loop.conns) {
                if (entry.second->state == Conn::State::Reading)
                    fds.push_back({entry.first, POLLIN, 0});
            }
        }

        const int rc =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("poll failed: ", std::strerror(errno));
            break;
        }

        // Stop signal: stop accepting and parsing; drain below.
        if (watchStop && (fds[0].revents & POLLIN)) {
            stopping_.store(true);
            stopping = true;
        }
        if (stopping && loop.listenFd >= 0) {
            ::close(loop.listenFd);
            loop.listenFd = -1;
        }

        // Worker completions.
        if (fds[wakeIdx].revents & POLLIN) {
            drainPipe(loop.wakePipe[0]);
            std::vector<std::pair<int, bool>> done;
            {
                std::lock_guard<std::mutex> lock(loop.doneMutex);
                done.swap(loop.done);
            }
            for (const auto &[fd, closeAfter] : done) {
                --loop.inflight;
                const auto it = loop.conns.find(fd);
                if (it == loop.conns.end())
                    continue;
                if (closeAfter || stopping_.load()) {
                    closeConn(loop, fd);
                    continue;
                }
                it->second->state = Conn::State::Reading;
                // A pipelined or half-buffered next request may
                // already be waiting.
                dispatchBuffered(loop, *it->second);
            }
        }

        if (stopping_.load()) {
            if (loop.inflight == 0)
                break;
            continue;
        }

        if (accepting &&
            (fds[listenIdx].revents & (POLLIN | POLLERR)))
            acceptNew(loop);
        // Collect fds first: handleReadable can erase conns, and
        // the conns iteration order must not be disturbed mid-walk.
        readable.clear();
        for (std::size_t idx = connsFrom; idx < fds.size(); ++idx) {
            if (fds[idx].revents &
                (POLLIN | POLLERR | POLLHUP)) {
                readable.push_back(fds[idx].fd);
            }
        }
        for (const int fd : readable) {
            const auto it = loop.conns.find(fd);
            if (it != loop.conns.end())
                handleReadable(loop, *it->second);
        }
    }

    // This acceptor has drained (its inflight hit zero). The last
    // one out closes the queue, releasing the workers once the
    // remaining queued work — all of it counted in some loop's
    // inflight, hence already zero — is done.
    if (activeLoops_.fetch_sub(1) == 1)
        queue_->close();
    std::vector<int> open;
    open.reserve(loop.conns.size());
    for (const auto &entry : loop.conns)
        open.push_back(entry.first);
    for (const int fd : open)
        closeConn(loop, fd);
}

} // namespace fosm::server
