/**
 * @file
 * The timed client: a closed loop over a few keep-alive connections
 * that sends prepared request bodies and compares response hashes.
 * Closed loop because design tools call the service and wait for each
 * reply. It does no JSON work.
 */

#include <atomic>
#include <limits>
#include <thread>

#include <sys/resource.h>

#include "ledger.hh"
#include "server/client.hh"

namespace ledger {

namespace {

constexpr int kTimeoutMs = 10000;

} // namespace

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

LoadResult
runLoad(const Stream &s, const std::vector<std::uint32_t> &order,
        std::uint16_t port, std::size_t conns)
{
    LoadResult out;
    out.attempted = order.size();
    out.latencyNs.assign(order.size(),
                         std::numeric_limits<double>::infinity());
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> mismatched{0};
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<double> doneNs(order.size(), -1.0);
    std::int64_t start = 0;

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back([&] {
            fosm::server::HttpClient client("127.0.0.1", port);
            client.setTimeoutMs(kTimeoutMs);
            fosm::server::ClientResponse resp;
            // Connect before the timed phase starts.
            client.request("GET", "/healthz", "", resp);
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= order.size())
                    break;
                const std::uint32_t idx = order[i];
                const std::int64_t t0 = nowNs();
                const bool ok =
                    client.request("POST", s.path, s.body[idx], resp);
                const std::int64_t t1 = nowNs();
                if (!ok || resp.status != 200) {
                    failed.fetch_add(1);
                    continue;
                }
                out.latencyNs[i] = static_cast<double>(t1 - t0);
                doneNs[i] = static_cast<double>(t1 - start);
                if (bodyHash(resp.body) != s.expect[idx])
                    mismatched.fetch_add(1);
            }
        });
    }
    while (ready.load() < conns)
        std::this_thread::yield();
    const double cpu0 = cpuSeconds();
    start = nowNs();
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
    out.wallS = 1e-9 * static_cast<double>(nowNs() - start);
    for (const double d : doneNs)
        if (d >= 0)
            out.doneNs.push_back(d);
    out.cpuS = cpuSeconds() - cpu0;
    out.failed = failed.load();
    out.mismatched = mismatched.load();
    return out;
}

std::string
httpGet(std::uint16_t port, const std::string &target)
{
    fosm::server::HttpClient client("127.0.0.1", port);
    client.setTimeoutMs(kTimeoutMs);
    fosm::server::ClientResponse r;
    if (!client.request("GET", target, "", r) || r.status != 200)
        return {};
    return r.body;
}

double
promValue(const std::string &text, const std::string &name)
{
    std::size_t pos = 0;
    while ((pos = text.find(name, pos)) != std::string::npos) {
        const bool lineStart = pos == 0 || text[pos - 1] == '\n';
        const std::size_t after = pos + name.size();
        if (lineStart && after < text.size() && text[after] == ' ')
            return std::strtod(text.c_str() + after + 1, nullptr);
        pos = after;
    }
    return 0.0;
}

} // namespace ledger
