#include "repl/replicator.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <unordered_map>

#include "common/hash.hh"
#include "common/logging.hh"
#include "server/client.hh"
#include "store/crc32c.hh"

namespace fosm::repl {

namespace {

/** Suppresses the commit hook while a thread applies replicated
 *  entries, so an apply never re-enters the write-behind queue
 *  (the origin already fanned the entry out to every successor). */
thread_local bool applyingReplicated = false;

struct ApplyGuard
{
    ApplyGuard() { applyingReplicated = true; }
    ~ApplyGuard() { applyingReplicated = false; }
};

constexpr const char *storeIdKey = "m/replStoreId";
constexpr const char *watermarkPrefix = "w/";

bool
splitHostPort(const std::string &label, std::string &host,
              std::uint16_t &port)
{
    const auto colon = label.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= label.size())
        return false;
    host = label.substr(0, colon);
    const long p = std::strtol(label.c_str() + colon + 1, nullptr, 10);
    if (p <= 0 || p > 65535)
        return false;
    port = static_cast<std::uint16_t>(p);
    return true;
}

std::uint64_t
parseU64(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 10);
}

/** End-to-end value checksum for /admin/repl/get responses: a
 *  repair must never re-commit bytes that were damaged on the peer
 *  or in flight. */
constexpr const char *valueCrcHeader = "X-Fosm-Crc32c";

std::string
crcHex(std::string_view value)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x",
                  store::crc32c(value.data(), value.size()));
    return buf;
}

} // namespace

Replicator::Replicator(ReplConfig config,
                       std::shared_ptr<store::PersistentStore> store,
                       server::MetricsRegistry &metrics)
    : config_(std::move(config)), store_(std::move(store)),
      ring_(config_.vnodes),
      enqueued_(metrics.counter(
          "fosm_repl_entries_enqueued_total",
          "Committed entries queued for write-behind replication")),
      dropped_(metrics.counter(
          "fosm_repl_entries_dropped_total",
          "Write-behind entries dropped to queue overflow "
          "(anti-entropy repairs these)")),
      batchesSent_(metrics.counter(
          "fosm_repl_batches_sent_total",
          "Write-behind batches POSTed to successors")),
      entriesSent_(metrics.counter(
          "fosm_repl_entries_sent_total",
          "Entries shipped in write-behind batches")),
      bytesSent_(metrics.counter(
          "fosm_repl_bytes_sent_total",
          "Value bytes shipped in write-behind batches")),
      sendFailures_(metrics.counter(
          "fosm_repl_send_failures_total",
          "Write-behind batches that failed to deliver")),
      entriesApplied_(metrics.counter(
          "fosm_repl_entries_applied_total",
          "Replicated entries applied to the local store")),
      entriesSkipped_(metrics.counter(
          "fosm_repl_entries_skipped_total",
          "Replicated entries already present locally")),
      bytesApplied_(metrics.counter(
          "fosm_repl_bytes_applied_total",
          "Value bytes applied from replicated entries")),
      pulls_(metrics.counter(
          "fosm_repl_catchup_pulls_total",
          "Anti-entropy pull requests issued")),
      pullFailures_(metrics.counter(
          "fosm_repl_pull_failures_total",
          "Anti-entropy pulls that failed (peer down or bad "
          "response)")),
      catchupEntries_(metrics.counter(
          "fosm_repl_catchup_entries_total",
          "Entries applied via anti-entropy catch-up")),
      catchupBytes_(metrics.counter(
          "fosm_repl_catchup_bytes_total",
          "Value bytes applied via anti-entropy catch-up")),
      watermarkResets_(metrics.counter(
          "fosm_repl_watermark_resets_total",
          "Peer watermarks reset after a store-id epoch change")),
      readRepairHits_(metrics.counter(
          "fosm_repl_read_repair_hits_total",
          "Local misses served from a preference-list peer")),
      readRepairMisses_(metrics.counter(
          "fosm_repl_read_repair_misses_total",
          "Read-repair probes where no peer had the entry")),
      repairEnqueued_(metrics.counter(
          "fosm_repair_enqueued_total",
          "Corrupt keys queued for repair from the preference "
          "list")),
      repairSuccess_(metrics.counter(
          "fosm_repair_success_total",
          "Corrupt keys re-committed from a CRC-verified peer "
          "copy")),
      repairFailures_(metrics.counter(
          "fosm_repair_failures_total",
          "Repair attempts where no peer produced a verified "
          "copy (retried on the next scrub pass)")),
      repairBytes_(metrics.counter(
          "fosm_repair_bytes_total",
          "Value bytes re-committed by corruption repairs")),
      repairDropped_(metrics.counter(
          "fosm_repair_dropped_total",
          "Repair findings dropped to a full repair queue"))
{
    for (const std::string &peer : config_.peers)
        ring_.add(peer);
    metrics.addCallbackGauge(
        "fosm_repl_queue_depth",
        "Write-behind entries waiting to be shipped", [this] {
            std::lock_guard<std::mutex> lock(queueMutex_);
            return static_cast<double>(queue_.size());
        });
}

Replicator::~Replicator() { stop(0); }

bool
Replicator::active() const
{
    return config_.replication >= 2 && ring_.nodes() >= 2 &&
           !config_.self.empty() && store_ != nullptr;
}

void
Replicator::start()
{
    if (started_ || !store_)
        return;

    // Pin this store's epoch: a wiped-and-recreated store restarts
    // its LSNs, which would silently satisfy peers' old watermarks.
    std::string id;
    if (store_->get(storeIdKey, id) && parseU64(id) != 0) {
        storeId_ = parseU64(id);
    } else {
        std::random_device rd;
        do {
            storeId_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
        } while (storeId_ == 0);
        ApplyGuard guard;
        store_->put(storeIdKey, std::to_string(storeId_));
    }

    started_ = true;
    if (!active())
        return;
    store_->setCommitHook([this](const std::string &key,
                                 std::string_view value,
                                 std::uint64_t lsn) {
        onCommit(key, value, lsn);
    });
    worker_ = std::thread([this] { workerLoop(); });
    if (config_.antiEntropyIntervalMs > 0)
        antiEntropy_ = std::thread([this] { antiEntropyLoop(); });
    repairWorker_ = std::thread([this] { repairLoop(); });
}

void
Replicator::stop(int deadlineMs)
{
    bool wasStarted;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        wasStarted = started_;
        if (stopping_) {
            wasStarted = false; // someone already stopped us
        }
    }
    if (wasStarted && deadlineMs > 0)
        flush(deadlineMs);
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = true;
    }
    queueCv_.notify_all();
    {
        std::lock_guard<std::mutex> lock(repairMutex_);
        repairStopping_ = true;
    }
    repairCv_.notify_all();
    if (worker_.joinable())
        worker_.join();
    if (antiEntropy_.joinable())
        antiEntropy_.join();
    if (repairWorker_.joinable())
        repairWorker_.join();
    if (wasStarted && store_)
        store_->setCommitHook(nullptr);
}

bool
Replicator::replicable(std::string_view key)
{
    return key.rfind("r/", 0) == 0 || key.rfind("c/", 0) == 0;
}

std::uint64_t
Replicator::keyDigest(std::string_view storeKey)
{
    // r/ entries embed the canonical cache key the gateway digests
    // for routing; hashing the same bytes keeps this node's notion
    // of "owner" identical to the gateway's.
    if (storeKey.rfind("r/", 0) == 0)
        return fnv1a64(storeKey.substr(2));
    return fnv1a64(storeKey);
}

std::vector<std::string>
Replicator::preferenceFor(const std::string &storeKey) const
{
    std::vector<std::string> labels;
    if (ring_.nodes() == 0)
        return labels;
    const auto route =
        ring_.route(keyDigest(storeKey), config_.replication);
    labels.reserve(route.size());
    for (const std::uint32_t index : route)
        labels.push_back(ring_.name(index));
    return labels;
}

bool
Replicator::ownsKey(const std::string &storeKey) const
{
    if (ring_.nodes() == 0)
        return true;
    return ring_.name(ring_.primary(keyDigest(storeKey))) ==
           config_.self;
}

void
Replicator::onCommit(const std::string &key, std::string_view value,
                     std::uint64_t lsn)
{
    if (applyingReplicated || !replicable(key))
        return;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (stopping_)
            return;
        while (queue_.size() >= config_.queueMax) {
            queueBytes_ -= queue_.front().value.size();
            queue_.pop_front();
            dropped_.inc(1);
        }
        Pending p;
        p.key = key;
        p.value.assign(value.data(), value.size());
        p.lsn = lsn;
        queueBytes_ += p.value.size();
        queue_.push_back(std::move(p));
    }
    enqueued_.inc(1);
    queueCv_.notify_one();
}

void
Replicator::workerLoop()
{
    while (true) {
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait_for(
                lock,
                std::chrono::milliseconds(config_.flushIntervalMs),
                [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                drainCv_.notify_all();
                if (stopping_)
                    return;
                continue;
            }
        }
        drainOnce();
    }
}

bool
Replicator::drainOnce()
{
    // Take one batch off the queue.
    std::vector<Pending> chunk;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        std::size_t bytes = 0;
        while (!queue_.empty() &&
               chunk.size() < config_.batchMaxEntries &&
               (chunk.empty() ||
                bytes + queue_.front().value.size() <=
                    config_.batchMaxBytes)) {
            bytes += queue_.front().value.size();
            queueBytes_ -= queue_.front().value.size();
            chunk.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        if (chunk.empty())
            return false;
        ++inFlight_;
    }

    // Fan each entry out to the other members of its preference
    // list (owner-computed entries go to the successors; an entry
    // computed off-list — failover traffic — also converges onto
    // the list, owner included).
    std::unordered_map<std::string, std::vector<store::LiveEntry>>
        perPeer;
    for (Pending &p : chunk) {
        const auto prefs = preferenceFor(p.key);
        for (const std::string &label : prefs) {
            if (label == config_.self)
                continue;
            store::LiveEntry entry;
            entry.key = p.key;
            entry.value = p.value;
            entry.lsn = p.lsn;
            perPeer[label].push_back(std::move(entry));
        }
    }
    for (auto &[peer, entries] : perPeer)
        sendBatch(peer, std::move(entries));

    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        --inFlight_;
        if (queue_.empty() && inFlight_ == 0)
            drainCv_.notify_all();
    }
    return true;
}

void
Replicator::sendBatch(const std::string &peer,
                      std::vector<store::LiveEntry> entries)
{
    std::string host;
    std::uint16_t port = 0;
    if (!splitHostPort(peer, host, port)) {
        sendFailures_.inc(1);
        return;
    }
    Batch batch;
    batch.origin = config_.self;
    batch.storeId = storeId_;
    std::uint64_t valueBytes = 0;
    for (const store::LiveEntry &e : entries)
        valueBytes += e.value.size();
    batch.entries = std::move(entries);

    server::HttpClient client(host, port);
    client.setTimeoutMs(config_.requestTimeoutMs);
    server::ClientResponse response;
    const bool ok = client.request(
        "POST", "/admin/repl/apply", encodeBatch(batch),
        {{"Content-Type", replContentType}}, response);
    if (!ok || response.status != 200) {
        // Best-effort by design: the peer may be down or draining.
        // Anti-entropy pulls repair whatever this batch carried.
        sendFailures_.inc(1);
        return;
    }
    batchesSent_.inc(1);
    entriesSent_.inc(batch.entries.size());
    bytesSent_.inc(valueBytes);
}

bool
Replicator::flush(int deadlineMs)
{
    queueCv_.notify_all();
    std::unique_lock<std::mutex> lock(queueMutex_);
    return drainCv_.wait_for(
        lock, std::chrono::milliseconds(deadlineMs),
        [this] { return queue_.empty() && inFlight_ == 0; });
}

// -- Anti-entropy --------------------------------------------------

void
Replicator::antiEntropyLoop()
{
    while (true) {
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait_for(lock,
                              std::chrono::milliseconds(
                                  config_.antiEntropyIntervalMs),
                              [this] { return stopping_; });
            if (stopping_)
                return;
        }
        for (const std::string &peer : config_.peers) {
            if (peer == config_.self)
                continue;
            {
                std::lock_guard<std::mutex> lock(queueMutex_);
                if (stopping_)
                    return;
            }
            pullFromPeer(peer);
        }
    }
}

std::size_t
Replicator::catchUp()
{
    std::size_t applied = 0;
    for (const std::string &peer : config_.peers) {
        if (peer == config_.self)
            continue;
        applied += pullFromPeer(peer);
    }
    return applied;
}

std::pair<std::uint64_t, std::uint64_t>
Replicator::watermarkFor(const std::string &peer) const
{
    std::string value;
    if (!store_ || !store_->get(watermarkPrefix + peer, value))
        return {0, 0};
    const auto colon = value.find(':');
    if (colon == std::string::npos)
        return {0, 0};
    return {parseU64(value.substr(0, colon)),
            parseU64(value.substr(colon + 1))};
}

void
Replicator::putWatermark(const std::string &peer,
                         std::uint64_t storeId, std::uint64_t lsn)
{
    if (!store_)
        return;
    ApplyGuard guard;
    store_->put(watermarkPrefix + peer,
                std::to_string(storeId) + ":" + std::to_string(lsn));
}

std::size_t
Replicator::pullFromPeer(const std::string &peer)
{
    std::string host;
    std::uint16_t port = 0;
    if (!splitHostPort(peer, host, port))
        return 0;

    std::size_t totalApplied = 0;
    // Bounded: a peer with an enormous backlog hands us at most
    // maxRounds * pullMaxEntries per sweep; the next sweep resumes
    // from the advanced watermark.
    for (int round = 0; round < 4096; ++round) {
        const auto [recordedId, recordedLsn] = watermarkFor(peer);
        json::Value body = json::Value::object();
        body.set("requester", config_.self);
        body.set("since",
                 json::Value(static_cast<std::uint64_t>(recordedLsn)));
        body.set("storeId", std::to_string(recordedId));

        server::HttpClient client(host, port);
        client.setTimeoutMs(config_.requestTimeoutMs);
        server::ClientResponse response;
        pulls_.inc(1);
        if (!client.request("POST", "/admin/repl/pull", body.dump(),
                            response) ||
            response.status != 200) {
            pullFailures_.inc(1);
            break;
        }
        Batch batch;
        std::string error;
        if (!decodeBatch(response.body, batch, error)) {
            warn("fosm-repl: bad pull response from ", peer, ": ",
                 error);
            pullFailures_.inc(1);
            break;
        }
        if (recordedId != 0 && batch.storeId != recordedId) {
            // The peer's store was recreated; its LSNs restarted and
            // it already answered from zero (the origin ignores our
            // stale watermark on epoch mismatch).
            watermarkResets_.inc(1);
        }
        std::uint64_t applied = 0, skipped = 0, bytes = 0;
        applyEntries(batch.entries, applied, skipped, bytes);
        catchupEntries_.inc(applied);
        catchupBytes_.inc(bytes);
        entriesSkipped_.inc(skipped);
        totalApplied += applied;
        putWatermark(peer, batch.storeId, batch.upto);
        if (!batch.more)
            break;
    }
    return totalApplied;
}

bool
Replicator::applyEntries(
    const std::vector<store::LiveEntry> &entries,
    std::uint64_t &applied, std::uint64_t &skipped,
    std::uint64_t &bytes)
{
    if (!store_)
        return false;
    ApplyGuard guard;
    for (const store::LiveEntry &entry : entries) {
        if (!replicable(entry.key)) {
            ++skipped;
            continue;
        }
        if (store_->contains(entry.key)) {
            // Deterministic values: same key means same bytes, so
            // presence is sufficiency.
            ++skipped;
            continue;
        }
        store_->put(entry.key, entry.value);
        ++applied;
        bytes += entry.value.size();
    }
    return true;
}

// -- Read-repair ---------------------------------------------------

bool
Replicator::fetchFromPeers(const std::string &storeKey,
                           std::string &value)
{
    if (!active() || !replicable(storeKey))
        return false;
    json::Value body = json::Value::object();
    body.set("key", storeKey);
    const std::string request = body.dump();
    for (const std::string &label : preferenceFor(storeKey)) {
        if (label == config_.self)
            continue;
        std::string host;
        std::uint16_t port = 0;
        if (!splitHostPort(label, host, port))
            continue;
        server::HttpClient client(host, port);
        client.setTimeoutMs(config_.readRepairTimeoutMs);
        server::ClientResponse response;
        if (!client.request("POST", "/admin/repl/get", request,
                            response) ||
            response.status != 200)
            continue;
        const std::string &crc = response.header("x-fosm-crc32c");
        if (!crc.empty() && crc != crcHex(response.body))
            continue; // damaged in flight; try the next peer
        value = response.body;
        ApplyGuard guard;
        store_->put(storeKey, value);
        readRepairHits_.inc(1);
        return true;
    }
    readRepairMisses_.inc(1);
    return false;
}

// -- Corruption repair ---------------------------------------------

void
Replicator::enqueueRepair(const std::string &storeKey)
{
    // Non-replicated keys have no authoritative peer copy; they heal
    // when the serving layer recomputes and rewrites them.
    if (!active() || !replicable(storeKey))
        return;
    {
        std::lock_guard<std::mutex> lock(repairMutex_);
        if (repairStopping_ ||
            repairPending_.count(storeKey) > 0)
            return;
        if (repairQueue_.size() >= config_.repairQueueMax) {
            repairDropped_.inc(1);
            return;
        }
        repairPending_.insert(storeKey);
        repairQueue_.push_back(storeKey);
    }
    repairEnqueued_.inc(1);
    repairCv_.notify_one();
}

bool
Replicator::repairKey(const std::string &storeKey)
{
    if (!active() || !replicable(storeKey) || !store_)
        return false;
    json::Value body = json::Value::object();
    body.set("key", storeKey);
    const std::string request = body.dump();
    // The whole preference list minus self is authoritative — for a
    // key this node owns, the successors hold the warm copies.
    for (const std::string &label : preferenceFor(storeKey)) {
        if (label == config_.self)
            continue;
        std::string host;
        std::uint16_t port = 0;
        if (!splitHostPort(label, host, port))
            continue;
        server::HttpClient client(host, port);
        client.setTimeoutMs(config_.repairTimeoutMs);
        server::ClientResponse response;
        if (!client.request("POST", "/admin/repl/get", request,
                            response) ||
            response.status != 200)
            continue;
        const std::string &crc = response.header("x-fosm-crc32c");
        if (!crc.empty() && crc != crcHex(response.body)) {
            warn("fosm-repair: CRC mismatch on copy of ", storeKey,
                 " from ", label);
            continue;
        }
        {
            // Re-commit: the put() clears the q/ quarantine mark.
            ApplyGuard guard;
            store_->put(storeKey, response.body);
        }
        repairSuccess_.inc(1);
        repairBytes_.inc(response.body.size());
        return true;
    }
    repairFailures_.inc(1);
    return false;
}

std::size_t
Replicator::repairQueueDepth() const
{
    std::lock_guard<std::mutex> lock(repairMutex_);
    return repairQueue_.size();
}

void
Replicator::repairLoop()
{
    while (true) {
        std::string key;
        {
            std::unique_lock<std::mutex> lock(repairMutex_);
            repairCv_.wait(lock, [this] {
                return repairStopping_ || !repairQueue_.empty();
            });
            if (repairStopping_)
                return;
            key = std::move(repairQueue_.front());
            repairQueue_.pop_front();
        }
        repairKey(key);
        {
            // A finding that arrives mid-repair is deduped away;
            // if this attempt failed, the next scrub pass
            // re-announces the standing quarantine mark.
            std::lock_guard<std::mutex> lock(repairMutex_);
            repairPending_.erase(key);
        }
    }
}

// -- HTTP endpoints ------------------------------------------------

bool
Replicator::handles(const std::string &path)
{
    return path.rfind("/admin/repl/", 0) == 0;
}

server::HttpResponse
Replicator::handle(const server::HttpRequest &request)
{
    const std::string path = request.path();
    if (request.method != "POST" && path != "/admin/repl/status")
        return server::HttpResponse::text(405,
                                          "method not allowed\n");
    if (path == "/admin/repl/apply")
        return handleApply(request);
    if (path == "/admin/repl/pull")
        return handlePull(request);
    if (path == "/admin/repl/get")
        return handleGet(request);
    if (path == "/admin/repl/status")
        return handleStatus(request);
    return server::HttpResponse::text(404, "not found\n");
}

server::HttpResponse
Replicator::handleApply(const server::HttpRequest &request)
{
    Batch batch;
    std::string error;
    if (!decodeBatch(request.body, batch, error))
        return server::HttpResponse::text(400, error + "\n");
    std::uint64_t applied = 0, skipped = 0, bytes = 0;
    if (!applyEntries(batch.entries, applied, skipped, bytes))
        return server::HttpResponse::text(503, "store disabled\n");
    entriesApplied_.inc(applied);
    entriesSkipped_.inc(skipped);
    bytesApplied_.inc(bytes);
    json::Value out = json::Value::object();
    out.set("applied", json::Value(applied));
    out.set("skipped", json::Value(skipped));
    return server::HttpResponse::json(200, out.dump());
}

server::HttpResponse
Replicator::handlePull(const server::HttpRequest &request)
{
    json::Value body;
    std::string error;
    if (!json::parse(request.body, body, &error))
        return server::HttpResponse::text(400, error + "\n");
    const json::Value *requester = body.find("requester");
    if (!requester || !requester->isString())
        return server::HttpResponse::text(400,
                                          "missing requester\n");
    const std::string &who = requester->asString();
    if (std::find(config_.peers.begin(), config_.peers.end(), who) ==
        config_.peers.end())
        return server::HttpResponse::text(403, "unknown peer\n");
    const json::Value *sinceField = body.find("since");
    std::uint64_t since =
        sinceField ? static_cast<std::uint64_t>(
                         sinceField->asInt(0))
                   : 0;
    const json::Value *idField = body.find("storeId");
    const std::uint64_t requesterView =
        idField ? parseU64(idField->asString()) : 0;
    if (requesterView != 0 && requesterView != storeId_) {
        // The requester's watermark references a previous life of
        // this store; answer from the beginning of this one.
        since = 0;
    }

    const std::uint64_t snapshotMax = store_->maxLsn();
    bool more = false;
    auto entries = store_->collectSince(
        since, config_.pullMaxEntries, config_.pullMaxBytes,
        [this, &who](const std::string &key) {
            if (!replicable(key))
                return false;
            const auto prefs = preferenceFor(key);
            return std::find(prefs.begin(), prefs.end(), who) !=
                   prefs.end();
        },
        more);

    Batch batch;
    batch.origin = config_.self;
    batch.storeId = storeId_;
    batch.more = more;
    const std::uint64_t lastLsn =
        entries.empty() ? since : entries.back().lsn;
    batch.upto = more ? lastLsn : std::max(lastLsn, snapshotMax);
    batch.entries = std::move(entries);

    server::HttpResponse response;
    response.status = 200;
    response.body = encodeBatch(batch);
    response.setHeader("Content-Type", replContentType);
    return response;
}

server::HttpResponse
Replicator::handleGet(const server::HttpRequest &request)
{
    json::Value body;
    std::string error;
    if (!json::parse(request.body, body, &error))
        return server::HttpResponse::text(400, error + "\n");
    const json::Value *key = body.find("key");
    if (!key || !key->isString())
        return server::HttpResponse::text(400, "missing key\n");
    std::string value;
    if (!store_ || !store_->get(key->asString(), value))
        return server::HttpResponse::text(404, "miss\n");
    // Never export damage: a peer asking for this copy may be
    // repairing its own, so re-verify the record even when
    // verify-on-read is off (and report our own copy corrupt).
    std::uint64_t lsn = 0;
    if (store_->verifyRecord(key->asString(), lsn) ==
        store::RecordCheck::Corrupt)
        return server::HttpResponse::text(404, "corrupt\n");
    server::HttpResponse response;
    response.status = 200;
    response.setHeader(valueCrcHeader, crcHex(value));
    response.body = std::move(value);
    response.setHeader("Content-Type", "application/octet-stream");
    return response;
}

server::HttpResponse
Replicator::handleStatus(const server::HttpRequest &)
{
    return server::HttpResponse::json(200, statusJson().dump());
}

// -- Introspection -------------------------------------------------

ReplCounters
Replicator::counters() const
{
    ReplCounters c;
    c.enqueued = enqueued_.value();
    c.dropped = dropped_.value();
    c.batchesSent = batchesSent_.value();
    c.entriesSent = entriesSent_.value();
    c.bytesSent = bytesSent_.value();
    c.sendFailures = sendFailures_.value();
    c.entriesApplied = entriesApplied_.value();
    c.entriesSkipped = entriesSkipped_.value();
    c.bytesApplied = bytesApplied_.value();
    c.pulls = pulls_.value();
    c.pullFailures = pullFailures_.value();
    c.catchupEntries = catchupEntries_.value();
    c.catchupBytes = catchupBytes_.value();
    c.watermarkResets = watermarkResets_.value();
    c.readRepairHits = readRepairHits_.value();
    c.readRepairMisses = readRepairMisses_.value();
    c.repairEnqueued = repairEnqueued_.value();
    c.repairSuccess = repairSuccess_.value();
    c.repairFailures = repairFailures_.value();
    c.repairBytes = repairBytes_.value();
    c.repairDropped = repairDropped_.value();
    return c;
}

OwnershipCounts
Replicator::ownershipCounts() const
{
    OwnershipCounts counts;
    if (!store_)
        return counts;
    store_->forEachLiveKey([this, &counts](const std::string &key,
                                           std::uint64_t) {
        if (!replicable(key)) {
            ++counts.meta;
            return;
        }
        const auto prefs = preferenceFor(key);
        if (prefs.empty() || prefs.front() == config_.self) {
            ++counts.owned;
        } else if (std::find(prefs.begin(), prefs.end(),
                             config_.self) != prefs.end()) {
            ++counts.replica;
        } else {
            ++counts.foreign;
        }
    });
    return counts;
}

json::Value
Replicator::statusJson() const
{
    json::Value out = json::Value::object();
    out.set("self", config_.self);
    out.set("replication",
            json::Value(static_cast<std::uint64_t>(
                config_.replication)));
    out.set("vnodes", json::Value(static_cast<std::uint64_t>(
                          config_.vnodes)));
    out.set("active", json::Value(active()));
    out.set("storeId", std::to_string(storeId_));
    json::Value peers = json::Value::array();
    for (const std::string &peer : config_.peers)
        peers.push(json::Value(peer));
    out.set("peers", std::move(peers));
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        out.set("queueDepth", json::Value(static_cast<std::uint64_t>(
                                  queue_.size())));
        out.set("queueBytes", json::Value(static_cast<std::uint64_t>(
                                  queueBytes_)));
    }

    const ReplCounters c = counters();
    json::Value counters = json::Value::object();
    counters.set("enqueued", json::Value(c.enqueued));
    counters.set("dropped", json::Value(c.dropped));
    counters.set("batchesSent", json::Value(c.batchesSent));
    counters.set("entriesSent", json::Value(c.entriesSent));
    counters.set("bytesSent", json::Value(c.bytesSent));
    counters.set("sendFailures", json::Value(c.sendFailures));
    counters.set("entriesApplied", json::Value(c.entriesApplied));
    counters.set("entriesSkipped", json::Value(c.entriesSkipped));
    counters.set("bytesApplied", json::Value(c.bytesApplied));
    counters.set("pulls", json::Value(c.pulls));
    counters.set("pullFailures", json::Value(c.pullFailures));
    counters.set("catchupEntries", json::Value(c.catchupEntries));
    counters.set("catchupBytes", json::Value(c.catchupBytes));
    counters.set("watermarkResets",
                 json::Value(c.watermarkResets));
    counters.set("readRepairHits", json::Value(c.readRepairHits));
    counters.set("readRepairMisses",
                 json::Value(c.readRepairMisses));
    counters.set("repairEnqueued", json::Value(c.repairEnqueued));
    counters.set("repairSuccess", json::Value(c.repairSuccess));
    counters.set("repairFailures", json::Value(c.repairFailures));
    counters.set("repairBytes", json::Value(c.repairBytes));
    counters.set("repairDropped", json::Value(c.repairDropped));
    out.set("counters", std::move(counters));

    json::Value marks = json::Value::object();
    for (const std::string &peer : config_.peers) {
        if (peer == config_.self)
            continue;
        const auto [id, lsn] = watermarkFor(peer);
        json::Value mark = json::Value::object();
        mark.set("storeId", std::to_string(id));
        mark.set("lsn", json::Value(lsn));
        marks.set(peer, std::move(mark));
    }
    out.set("watermarks", std::move(marks));

    const OwnershipCounts o = ownershipCounts();
    json::Value ownership = json::Value::object();
    ownership.set("owned", json::Value(o.owned));
    ownership.set("replica", json::Value(o.replica));
    ownership.set("foreign", json::Value(o.foreign));
    ownership.set("meta", json::Value(o.meta));
    out.set("ownership", std::move(ownership));
    return out;
}

} // namespace fosm::repl
