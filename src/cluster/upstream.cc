#include "cluster/upstream.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/fault_injector.hh"
#include "common/hash.hh"
#include "common/logging.hh"

namespace fosm::cluster {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Non-blocking connect with a deadline: dial, poll for writability,
 * then confirm with SO_ERROR. The socket stays non-blocking — every
 * later read is driven from a poll loop anyway.
 */
int
dialNonBlocking(const BackendAddress &address, int timeoutMs)
{
    // Unconditional faultAt: it arms FOSM_FAULTS on first use and
    // checks active() itself, so a pre-guard would defeat arming.
    if (const FaultAction fault = faultAt("upstream.connect")) {
        faultSleep(fault);
        if (fault.kind == FaultKind::Error)
            return -1;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(address.port);
    if (::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr) !=
        1) {
        ::close(fd);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (errno != EINPROGRESS) {
            ::close(fd);
            return -1;
        }
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, timeoutMs) <= 0) {
            ::close(fd);
            return -1;
        }
        int soError = 0;
        socklen_t len = sizeof(soError);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &len) !=
                0 ||
            soError != 0) {
            ::close(fd);
            return -1;
        }
    }
    return fd;
}

/** Blocking-style send on a non-blocking socket (polls on EAGAIN). */
bool
sendAll(int fd, const std::string &data)
{
    if (const FaultAction fault = faultAt("upstream.send")) {
        faultSleep(fault);
        if (fault.kind == FaultKind::Error)
            return false;
    }
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                pollfd pfd{fd, POLLOUT, 0};
                if (::poll(&pfd, 1, 1000) <= 0)
                    return false;
                continue;
            }
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

bool
parseBackendList(const std::string &list,
                 std::vector<BackendAddress> &out, std::string &error)
{
    out.clear();
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string item = list.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const std::size_t colon = item.rfind(':');
        if (colon == std::string::npos || colon + 1 >= item.size()) {
            error = "backend '" + item + "' is missing a port";
            return false;
        }
        char *end = nullptr;
        const long port =
            std::strtol(item.c_str() + colon + 1, &end, 10);
        if (*end != '\0' || port <= 0 || port > 65535) {
            error = "backend '" + item + "' has an invalid port";
            return false;
        }
        BackendAddress addr;
        addr.host = item.substr(0, colon);
        addr.port = static_cast<std::uint16_t>(port);
        addr.label = item;
        out.push_back(std::move(addr));
    }
    if (out.empty()) {
        error = "backend list is empty";
        return false;
    }
    return true;
}

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
    case BreakerState::Closed:
        return "closed";
    case BreakerState::Open:
        return "open";
    case BreakerState::HalfOpen:
        return "half-open";
    }
    return "unknown";
}

CircuitBreaker::CircuitBreaker(const UpstreamConfig &config,
                               std::uint64_t seed)
    : failures_(std::max(1, config.breakerFailures)),
      minSamples_(std::max(1, config.breakerMinSamples)),
      errorRate_(config.breakerErrorRate),
      windowMs_(std::max(1, config.breakerWindowMs)),
      openBaseMs_(std::max(1, config.breakerOpenBaseMs)),
      openMaxMs_(std::max(config.breakerOpenBaseMs,
                          config.breakerOpenMaxMs)),
      openMs_(openBaseMs_)
{
    rng_.seed(static_cast<unsigned>(seed | 1u));
}

void
CircuitBreaker::bindMetrics(server::Gauge *stateGauge,
                            server::Counter *opens,
                            server::Counter *closes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    stateGauge_ = stateGauge;
    opens_ = opens;
    closes_ = closes;
    if (stateGauge_)
        stateGauge_->set(static_cast<std::int64_t>(state_));
}

BreakerState
CircuitBreaker::state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

bool
CircuitBreaker::routable(Clock::time_point now) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_ != BreakerState::Open || now >= reopenAt_;
}

bool
CircuitBreaker::allowRequest(Clock::time_point now)
{
    std::lock_guard<std::mutex> lock(mutex_);
    switch (state_) {
    case BreakerState::Closed:
        return true;
    case BreakerState::Open:
        if (now < reopenAt_)
            return false;
        setStateLocked(BreakerState::HalfOpen);
        trialStart_ = now;
        return true;
    case BreakerState::HalfOpen:
        // One trial at a time — unless it was abandoned (a hedge
        // loser records no outcome) long enough ago that waiting
        // would wedge the breaker half-open forever.
        if (now < trialStart_ + std::chrono::milliseconds(openMs_))
            return false;
        trialStart_ = now;
        return true;
    }
    return true;
}

void
CircuitBreaker::onSuccess()
{
    std::lock_guard<std::mutex> lock(mutex_);
    streak_ = 0;
    ++windowTotal_;
    if (state_ == BreakerState::HalfOpen) {
        // Trial succeeded: the backend is back.
        setStateLocked(BreakerState::Closed);
        openMs_ = openBaseMs_;
        windowTotal_ = 0;
        windowFailures_ = 0;
        if (closes_)
            closes_->inc();
    }
}

void
CircuitBreaker::onFailure(Clock::time_point now)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ == BreakerState::Open)
        return; // already open; nothing new to learn
    if (state_ == BreakerState::HalfOpen) {
        // Trial failed: back off harder.
        openMs_ = std::min(openMs_ * 2, openMaxMs_);
        openLocked(now);
        return;
    }
    ++streak_;
    if (windowStart_ == Clock::time_point{} ||
        now - windowStart_ > std::chrono::milliseconds(windowMs_)) {
        windowStart_ = now;
        windowTotal_ = 0;
        windowFailures_ = 0;
    }
    ++windowTotal_;
    ++windowFailures_;
    const bool streakTrips = streak_ >= failures_;
    const bool rateTrips =
        windowTotal_ >= minSamples_ &&
        static_cast<double>(windowFailures_) >=
            errorRate_ * static_cast<double>(windowTotal_);
    if (streakTrips || rateTrips)
        openLocked(now);
}

void
CircuitBreaker::openLocked(Clock::time_point now)
{
    // Jitter the reinstatement (0.75x..1.25x) so breakers across a
    // fleet that opened together do not retry in lockstep.
    const double unit =
        static_cast<double>(rng_() - decltype(rng_)::min()) /
        static_cast<double>(decltype(rng_)::max() -
                            decltype(rng_)::min());
    const int wait = std::max(
        1, static_cast<int>(openMs_ * (0.75 + 0.5 * unit)));
    reopenAt_ = now + std::chrono::milliseconds(wait);
    setStateLocked(BreakerState::Open);
    streak_ = 0;
    windowTotal_ = 0;
    windowFailures_ = 0;
    windowStart_ = Clock::time_point{};
    if (opens_)
        opens_->inc();
}

void
CircuitBreaker::setStateLocked(BreakerState state)
{
    state_ = state;
    if (stateGauge_)
        stateGauge_->set(static_cast<std::int64_t>(state));
}

Backend::Backend(BackendAddress address,
                 const UpstreamConfig &config,
                 server::MetricsRegistry *metrics)
    : address_(std::move(address)),
      breaker_(config, fnv1a64(address_.label))
{
    if (!metrics)
        return;
    const std::string label = "backend=\"" + address_.label + "\"";
    requests = &metrics->counter(
        "fosm_gateway_upstream_requests_total",
        "Requests proxied to each backend", label);
    errors = &metrics->counter(
        "fosm_gateway_upstream_errors_total",
        "Failed upstream exchanges per backend", label);
    ejections_ = &metrics->counter(
        "fosm_gateway_backend_ejections_total",
        "Health ejections per backend", label);
    reinstatements_ = &metrics->counter(
        "fosm_gateway_backend_reinstatements_total",
        "Health reinstatements per backend", label);
    // find-or-create: re-adding a drained backend reuses the same
    // metric objects, so counters survive membership churn.
    breaker_.bindMetrics(
        &metrics->gauge("fosm_gateway_breaker_state",
                        "Circuit breaker state per backend "
                        "(0=closed, 1=open, 2=half-open)",
                        label),
        &metrics->counter("fosm_gateway_breaker_opens_total",
                          "Breaker open transitions per backend",
                          label),
        &metrics->counter("fosm_gateway_breaker_closes_total",
                          "Breaker half-open-to-closed transitions "
                          "per backend",
                          label));
}

Backend::~Backend()
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    for (int fd : idle_)
        ::close(fd);
    idle_.clear();
}

int
Backend::checkoutConn()
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    if (idle_.empty())
        return -1;
    const int fd = idle_.back();
    idle_.pop_back();
    return fd;
}

void
Backend::checkinConn(int fd)
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    if (draining_.load() || idle_.size() >= 16) {
        ::close(fd);
        return;
    }
    idle_.push_back(fd);
}

void
Backend::noteFailure(int ejectAfter)
{
    const int streak = failures_.fetch_add(1) + 1;
    if (streak >= ejectAfter && healthy_.exchange(false)) {
        if (ejections_)
            ejections_->inc();
        fosm::warn("gateway: ejecting backend ", address_.label,
                   " after ", streak, " consecutive failures");
    }
}

void
Backend::noteProbeSuccess()
{
    failures_.store(0);
    if (!healthy_.exchange(true)) {
        if (reinstatements_)
            reinstatements_->inc();
        fosm::inform("gateway: reinstating backend ",
                     address_.label);
    }
}

void
Backend::noteProbeFailure(int ejectAfter)
{
    noteFailure(ejectAfter);
}

void
Backend::noteProxySuccess()
{
    failures_.store(0);
    breaker_.onSuccess();
}

void
Backend::noteProxyFailure(int ejectAfter)
{
    noteFailure(ejectAfter);
    breaker_.onFailure(Clock::now());
}

void
Backend::setHealthy(bool healthy)
{
    healthy_.store(healthy);
    if (healthy)
        failures_.store(0);
}

void
Backend::deferFor(int ms)
{
    const auto until =
        Clock::now() + std::chrono::milliseconds(std::max(0, ms));
    deferUntilNs_.store(
        until.time_since_epoch().count(),
        std::memory_order_relaxed);
}

bool
Backend::deferred(Clock::time_point now) const
{
    return now.time_since_epoch().count() <
           deferUntilNs_.load(std::memory_order_relaxed);
}

void
Backend::drain()
{
    draining_.store(true);
    std::lock_guard<std::mutex> lock(poolMutex_);
    for (int fd : idle_)
        ::close(fd);
    idle_.clear();
}

bool
UpstreamCall::start(Backend &backend, const std::string &wire,
                    int connectTimeoutMs, bool forceFresh)
{
    abandon();
    backend_ = &backend;
    inbuf_.clear();
    response_ = server::ClientResponse{};
    pooled_ = false;

    if (!forceFresh) {
        fd_ = backend.checkoutConn();
        pooled_ = fd_ >= 0;
    }
    if (fd_ < 0)
        fd_ = dialNonBlocking(backend.address(), connectTimeoutMs);
    if (fd_ < 0) {
        state_ = State::Failed;
        return false;
    }
    if (!sendAll(fd_, wire)) {
        ::close(fd_);
        fd_ = -1;
        state_ = State::Failed;
        return false;
    }
    state_ = State::Receiving;
    return true;
}

UpstreamCall::State
UpstreamCall::onReadable()
{
    if (state_ != State::Receiving)
        return state_;
    if (const FaultAction fault = faultAt("upstream.recv")) {
        faultSleep(fault);
        if (fault.kind == FaultKind::Error) {
            state_ = State::Failed;
            return state_;
        }
    }
    char buf[16 * 1024];
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) {
            inbuf_.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        // Peer closed (or hard error) before a complete response.
        std::size_t consumed = 0;
        state_ = parseHttpResponse(inbuf_, response_, consumed) ==
                         server::ParseStatus::Ok
                     ? State::Done
                     : State::Failed;
        return state_;
    }
    std::size_t consumed = 0;
    switch (parseHttpResponse(inbuf_, response_, consumed)) {
    case server::ParseStatus::Ok:
        state_ = State::Done;
        break;
    case server::ParseStatus::Incomplete:
        break;
    default:
        state_ = State::Failed;
        break;
    }
    return state_;
}

void
UpstreamCall::finish()
{
    if (fd_ < 0)
        return;
    if (state_ == State::Done && response_.keepAlive() && backend_) {
        backend_->checkinConn(fd_);
    } else {
        ::close(fd_);
    }
    fd_ = -1;
    state_ = State::Unstarted;
}

void
UpstreamCall::abandon()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    state_ = State::Unstarted;
}

bool
blockingExchange(Backend &backend, const std::string &method,
                 const std::string &target, const std::string &body,
                 int connectTimeoutMs, int timeoutMs,
                 server::ClientResponse &out)
{
    UpstreamCall call;
    if (!call.start(backend,
                    server::serializeRequest(method, target,
                                             backend.address().label,
                                             body),
                    connectTimeoutMs, /*forceFresh=*/true))
        return false;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    while (call.state() == UpstreamCall::State::Receiving) {
        pollfd pfd{call.fd(), POLLIN, 0};
        const int left = server::millisLeft(deadline);
        if (left == 0 || ::poll(&pfd, 1, left) <= 0)
            return false;
        call.onReadable();
    }
    if (call.state() != UpstreamCall::State::Done)
        return false;
    out = call.response();
    call.finish();
    return true;
}

BackendPool::BackendPool(std::vector<BackendAddress> addresses,
                         UpstreamConfig config,
                         server::MetricsRegistry *metrics)
    : config_(config), metrics_(metrics)
{
    backends_.reserve(addresses.size());
    for (auto &addr : addresses)
        backends_.push_back(std::make_shared<Backend>(
            std::move(addr), config_, metrics_));
}

BackendPool::~BackendPool()
{
    stop();
}

std::vector<std::shared_ptr<Backend>>
BackendPool::snapshot() const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    return backends_;
}

std::shared_ptr<Backend>
BackendPool::find(const std::string &label) const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    for (const auto &b : backends_)
        if (b->address().label == label)
            return b;
    return nullptr;
}

std::shared_ptr<Backend>
BackendPool::add(const BackendAddress &address)
{
    if (std::shared_ptr<Backend> existing = find(address.label))
        return existing;
    auto backend =
        std::make_shared<Backend>(address, config_, metrics_);
    // Probe before the backend becomes routable so a dead address
    // joins ejected instead of eating its first ejectAfter requests.
    if (started_.load())
        backend->setHealthy(probe(*backend));
    std::lock_guard<std::mutex> lock(membershipMutex_);
    for (const auto &b : backends_)
        if (b->address().label == address.label)
            return b;
    backends_.push_back(backend);
    fosm::inform("gateway: added backend ", address.label,
                 backend->healthy() ? " (healthy)" : " (unhealthy)");
    return backend;
}

bool
BackendPool::remove(const std::string &label)
{
    std::shared_ptr<Backend> victim;
    {
        std::lock_guard<std::mutex> lock(membershipMutex_);
        for (auto it = backends_.begin(); it != backends_.end();
             ++it) {
            if ((*it)->address().label == label) {
                victim = *it;
                backends_.erase(it);
                break;
            }
        }
    }
    if (!victim)
        return false;
    victim->drain();
    fosm::inform("gateway: draining backend ", label);
    return true;
}

std::size_t
BackendPool::size() const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    return backends_.size();
}

Backend &
BackendPool::backend(std::size_t i)
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    return *backends_[i];
}

std::size_t
BackendPool::healthyCount() const
{
    std::lock_guard<std::mutex> lock(membershipMutex_);
    std::size_t n = 0;
    for (const auto &b : backends_)
        if (b->healthy())
            ++n;
    return n;
}

bool
BackendPool::probe(Backend &backend)
{
    server::ClientResponse response;
    return blockingExchange(backend, "GET", "/healthz", "",
                            config_.connectTimeoutMs,
                            config_.probeTimeoutMs, response) &&
           response.status == 200;
}

void
BackendPool::start()
{
    if (started_.exchange(true))
        return;
    // One synchronous round so routing starts with accurate health.
    for (const auto &b : snapshot())
        b->setHealthy(probe(*b));
    prober_ = std::thread([this] { proberMain(); });
}

void
BackendPool::stop()
{
    {
        std::lock_guard<std::mutex> lock(stopMutex_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    stopCv_.notify_all();
    if (prober_.joinable())
        prober_.join();
}

void
BackendPool::proberMain()
{
    // Per-backend next-probe schedule keyed by label (membership
    // changes under us); unhealthy backends back off exponentially
    // so a dead replica is not hammered.
    struct Schedule
    {
        Clock::time_point next{};
        int backoffMs = 0;
    };
    std::map<std::string, Schedule> schedule;

    for (;;) {
        {
            std::unique_lock<std::mutex> lock(stopMutex_);
            stopCv_.wait_for(
                lock,
                std::chrono::milliseconds(
                    std::max(10, config_.healthIntervalMs / 4)),
                [&] { return stopping_; });
            if (stopping_)
                return;
        }
        const auto members = snapshot();
        const auto now = Clock::now();
        for (const auto &b : members) {
            Schedule &s = schedule[b->address().label];
            if (s.backoffMs == 0)
                s.backoffMs = config_.healthIntervalMs;
            if (now < s.next)
                continue;
            if (probe(*b)) {
                b->noteProbeSuccess();
                s.backoffMs = config_.healthIntervalMs;
            } else {
                b->noteProbeFailure(config_.ejectAfter);
                if (!b->healthy())
                    s.backoffMs =
                        std::min(s.backoffMs * 2,
                                 config_.maxProbeBackoffMs);
            }
            s.next = Clock::now() +
                     std::chrono::milliseconds(s.backoffMs);
        }
        // Forget schedules for departed members so the map does not
        // grow without bound across membership churn.
        for (auto it = schedule.begin(); it != schedule.end();) {
            bool present = false;
            for (const auto &b : members)
                if (b->address().label == it->first) {
                    present = true;
                    break;
                }
            it = present ? std::next(it) : schedule.erase(it);
        }
    }
}

} // namespace fosm::cluster
