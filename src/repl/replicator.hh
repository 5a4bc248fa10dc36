/**
 * @file
 * fosm-repl: replication of the persistent result store across the
 * cluster's hash ring. Model results are deterministic and immutable
 * (newest schema version wins, values never change for a key), which
 * makes replication unusually forgiving: there are no conflicting
 * writes to reconcile, only presence to propagate. The layer
 * therefore favors availability — every path is asynchronous and
 * best-effort, with anti-entropy as the catch-all repair:
 *
 *  - Write-behind: the store's commit hook enqueues every committed
 *    r/ (response) and c/ (characterization) entry; a background
 *    worker batches them and POSTs binary frames to the other
 *    members of the key's preference list (the owner plus the
 *    next N-1 distinct successors on the ring, the same route() the
 *    gateway walks on failover — so the node the gateway fails over
 *    to is exactly the node that holds the copy).
 *  - Read-repair: on a local store miss for a key this node does NOT
 *    own (i.e. failover traffic), probe the other preference-list
 *    members before recomputing; a hit is written back locally.
 *  - Anti-entropy: each node periodically pulls from every peer the
 *    entries that belong on it with an origin LSN above its recorded
 *    watermark for that peer. Watermarks are persisted in the local
 *    store (w/<peer>), and the origin store's per-segment LSN
 *    watermarks let a caught-up replica's pull cost one comparison
 *    per segment instead of a replay. A store-id epoch detects a
 *    wiped origin whose LSNs restarted and resets the watermark.
 *
 * Consistency: eventual, converging within one anti-entropy interval
 * of any failure; because values are deterministic, a stale replica
 * can only miss entries (recompute: correct, slower), never serve a
 * wrong one. See docs/REPLICATION.md.
 */

#ifndef FOSM_REPL_REPLICATOR_HH
#define FOSM_REPL_REPLICATOR_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cluster/hash_ring.hh"
#include "repl/codec.hh"
#include "server/http.hh"
#include "server/json.hh"
#include "server/metrics.hh"
#include "store/store.hh"

namespace fosm::repl {

/** Replication tuning knobs (fosm-serve --peers/--replication). */
struct ReplConfig
{
    /** This node's own label, e.g. "127.0.0.1:8801"; must appear in
     *  peers. */
    std::string self;

    /** Full cluster membership, gateway backend labels. */
    std::vector<std::string> peers;

    /** Copies per entry: the owner plus replication-1 successors. */
    std::size_t replication = 2;

    /** Ring positions per node; MUST match the gateway's --vnodes or
     *  the two sides disagree about ownership. */
    std::size_t vnodes = 128;

    /** Pending write-behind entries before the oldest are dropped
     *  (anti-entropy repairs drops). */
    std::size_t queueMax = 65536;

    /** Per-request batch caps; keep under the receiving server's
     *  1 MiB body limit with headroom for keys and framing. */
    std::size_t batchMaxEntries = 256;
    std::size_t batchMaxBytes = 512u << 10;

    /** Write-behind worker wakeup cadence when idle. */
    int flushIntervalMs = 20;

    int connectTimeoutMs = 250;
    int requestTimeoutMs = 2000;

    /** Anti-entropy sweep cadence; 0 disables the background sweep
     *  (catchUp() still works for tests and startup). */
    int antiEntropyIntervalMs = 5000;

    /** Per-pull caps (the puller loops while the origin has more). */
    std::size_t pullMaxEntries = 256;
    std::size_t pullMaxBytes = 512u << 10;

    /** Read-repair probe budget per peer (keep well under the
     *  recompute cost it is trying to beat). */
    int readRepairTimeoutMs = 150;

    /** Pending corruption-repair keys before new findings are
     *  dropped (the scrubber re-announces standing quarantine marks
     *  every pass, so a drop only delays the repair). */
    std::size_t repairQueueMax = 4096;

    /** Per-peer probe budget for a corruption repair; repairs are
     *  background work, so this can exceed readRepairTimeoutMs. */
    int repairTimeoutMs = 1000;
};

/** Snapshot of the replication counters (status endpoint, tests). */
struct ReplCounters
{
    std::uint64_t enqueued = 0;
    std::uint64_t dropped = 0;
    std::uint64_t batchesSent = 0;
    std::uint64_t entriesSent = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t sendFailures = 0;
    std::uint64_t entriesApplied = 0;
    std::uint64_t entriesSkipped = 0;
    std::uint64_t bytesApplied = 0;
    std::uint64_t pulls = 0;
    std::uint64_t pullFailures = 0;
    std::uint64_t catchupEntries = 0;
    std::uint64_t catchupBytes = 0;
    std::uint64_t watermarkResets = 0;
    std::uint64_t readRepairHits = 0;
    std::uint64_t readRepairMisses = 0;
    std::uint64_t repairEnqueued = 0;
    std::uint64_t repairSuccess = 0;
    std::uint64_t repairFailures = 0;
    std::uint64_t repairBytes = 0;
    std::uint64_t repairDropped = 0;
};

/** Owned/replica/foreign split of the local store's live entries. */
struct OwnershipCounts
{
    std::uint64_t owned = 0;   ///< self is the key's ring owner
    std::uint64_t replica = 0; ///< self is a non-owner successor
    std::uint64_t foreign = 0; ///< self is off the preference list
    std::uint64_t meta = 0;    ///< w/ and m/ bookkeeping keys
};

/**
 * The replication engine for one fosm-serve node. Construct, then
 * start() (which registers the store commit hook and spawns the
 * write-behind worker and anti-entropy threads); stop() drains the
 * queue with a final flush — the drain-handoff path — and joins.
 * All public methods are thread-safe after start().
 */
class Replicator
{
  public:
    Replicator(ReplConfig config,
               std::shared_ptr<store::PersistentStore> store,
               server::MetricsRegistry &metrics);
    ~Replicator();

    Replicator(const Replicator &) = delete;
    Replicator &operator=(const Replicator &) = delete;

    void start();

    /** Final flush (bounded by deadlineMs), then join the threads. */
    void stop(int deadlineMs = 2000);

    /**
     * Synchronously drain the write-behind queue (up to deadlineMs).
     * Returns true when the queue emptied and its last batch was
     * sent (or failed). The drain-with-flush
     * handoff: call before retiring a node so its successors hold
     * everything it computed.
     */
    bool flush(int deadlineMs = 2000);

    /**
     * One synchronous anti-entropy round against every peer; returns
     * entries applied. Run at startup (rejoin catch-up before the
     * node starts serving) and from tests.
     */
    std::size_t catchUp();

    /** Whether this request path belongs to the repl endpoints. */
    static bool handles(const std::string &path);

    /**
     * Dispatch one /admin/repl request (apply, pull, get, status).
     * fosm-serve routes these ahead of the model service handler.
     */
    server::HttpResponse handle(const server::HttpRequest &request);

    /**
     * Read-repair probe: ask the other preference-list members of
     * this store key for its value. On a hit the value is also
     * written back to the local store. Intended for keys this node
     * does not own (failover traffic); callers may skip owned keys.
     */
    bool fetchFromPeers(const std::string &storeKey,
                        std::string &value);

    /**
     * Queue a corrupt (quarantined) key for repair from its
     * preference list. Fed by the scrubber's corrupt handler and by
     * corrupt-on-read; deduplicated and bounded (a dropped finding
     * is re-announced on the next scrub pass). Unlike read-repair
     * this also covers keys this node OWNS: the owner's copy went
     * bad, the successors are now the authority. Non-replicated
     * keys are ignored — they heal by recompute-and-rewrite.
     */
    void enqueueRepair(const std::string &storeKey);

    /**
     * Synchronously repair one key: probe the other preference-list
     * members, verify the returned bytes against the X-Fosm-Crc32c
     * trailer, re-commit locally (which clears the q/ quarantine
     * mark). Returns true when a verified copy was committed.
     * Public for tests and the repair worker.
     */
    bool repairKey(const std::string &storeKey);

    /** Corruption-repair keys waiting for the repair worker. */
    std::size_t repairQueueDepth() const;

    /** Whether self is the ring owner of this store key. */
    bool ownsKey(const std::string &storeKey) const;

    /** Replication enabled (>= 2 copies and >= 2 peers)? */
    bool active() const;

    /** Digest a store key onto the ring: r/ entries hash their
     *  embedded cache key (matching the gateway's shardDigest);
     *  everything else hashes the full key. */
    static std::uint64_t keyDigest(std::string_view storeKey);

    /** Preference-ordered labels (owner first) for a store key. */
    std::vector<std::string>
    preferenceFor(const std::string &storeKey) const;

    ReplCounters counters() const;

    /** Live-entry ownership split (scans the in-memory index). */
    OwnershipCounts ownershipCounts() const;

    /** Status document for /admin/repl/status and store stats. */
    json::Value statusJson() const;

    const ReplConfig &config() const { return config_; }

  private:
    struct Pending
    {
        std::string key;
        std::string value;
        std::uint64_t lsn = 0;
    };

    void onCommit(const std::string &key, std::string_view value,
                  std::uint64_t lsn);
    void workerLoop();
    void antiEntropyLoop();
    void repairLoop();
    bool drainOnce(); ///< one batch cycle; true when work was done
    void sendBatch(const std::string &peer,
                   std::vector<store::LiveEntry> entries);
    std::size_t pullFromPeer(const std::string &peer);
    bool applyEntries(const std::vector<store::LiveEntry> &entries,
                      std::uint64_t &applied, std::uint64_t &skipped,
                      std::uint64_t &bytes);
    static bool replicable(std::string_view key);

    /** Recorded watermark for a peer: (storeId, lsn). */
    std::pair<std::uint64_t, std::uint64_t>
    watermarkFor(const std::string &peer) const;
    void putWatermark(const std::string &peer, std::uint64_t storeId,
                      std::uint64_t lsn);

    server::HttpResponse handleApply(const server::HttpRequest &);
    server::HttpResponse handlePull(const server::HttpRequest &);
    server::HttpResponse handleGet(const server::HttpRequest &);
    server::HttpResponse handleStatus(const server::HttpRequest &);

    ReplConfig config_;
    std::shared_ptr<store::PersistentStore> store_;
    cluster::HashRing ring_;
    std::uint64_t storeId_ = 0; ///< this store's epoch

    mutable std::mutex queueMutex_;
    std::condition_variable queueCv_;  ///< wakes the worker
    std::condition_variable drainCv_;  ///< wakes flush() waiters
    std::deque<Pending> queue_;
    std::size_t queueBytes_ = 0;
    std::size_t inFlight_ = 0; ///< chunks popped but not yet sent
    bool stopping_ = false;
    bool started_ = false;
    std::thread worker_;
    std::thread antiEntropy_;

    // Corruption-repair queue (scrub findings, corrupt-on-read).
    mutable std::mutex repairMutex_;
    std::condition_variable repairCv_;
    std::deque<std::string> repairQueue_;
    std::unordered_set<std::string> repairPending_; ///< dedup
    bool repairStopping_ = false;
    std::thread repairWorker_;

    // fosm_repl_* metrics (registry-owned).
    server::Counter &enqueued_;
    server::Counter &dropped_;
    server::Counter &batchesSent_;
    server::Counter &entriesSent_;
    server::Counter &bytesSent_;
    server::Counter &sendFailures_;
    server::Counter &entriesApplied_;
    server::Counter &entriesSkipped_;
    server::Counter &bytesApplied_;
    server::Counter &pulls_;
    server::Counter &pullFailures_;
    server::Counter &catchupEntries_;
    server::Counter &catchupBytes_;
    server::Counter &watermarkResets_;
    server::Counter &readRepairHits_;
    server::Counter &readRepairMisses_;
    server::Counter &repairEnqueued_;
    server::Counter &repairSuccess_;
    server::Counter &repairFailures_;
    server::Counter &repairBytes_;
    server::Counter &repairDropped_;
};

} // namespace fosm::repl

#endif // FOSM_REPL_REPLICATOR_HH
