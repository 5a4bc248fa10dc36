/**
 * @file
 * Weighted-fair admission queue: per-class (per-tenant) sub-queues
 * drained by deficit round-robin. It is the HTTP worker pool's queue,
 * with a bounded FIFO's tryPush/pop/popBatch/close contract, but
 * admission and backpressure are per class: each class owns a bounded
 * sub-queue, so a saturating tenant fills (and gets shed from) its own
 * queue while everyone else's stays shallow, and the drain order gives
 * each backlogged class throughput proportional to its weight.
 *
 * DRR discipline (Shreedhar & Varghese): active classes sit on a
 * round-robin ring; a class arriving at the head earns
 * `quantum = weight` of deficit and is served one queued item per
 * unit of deficit until it runs dry (leave the ring, deficit
 * forfeit) or runs out of deficit (rotate to the tail, keep the
 * remainder). Weights below 1 simply need several rotations to
 * afford an item, so any positive weight works. With one class the
 * discipline degenerates to a plain bounded FIFO.
 *
 * Weights ride along on every push (the tenant registry is
 * live-editable, so the current weight is wherever the request was
 * admitted), and classes are created lazily on first use.
 */

#ifndef FOSM_TENANT_FAIR_QUEUE_HH
#define FOSM_TENANT_FAIR_QUEUE_HH

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace fosm::tenant {

/** Per-class counters, snapshotted for the fosm_tenant_* metrics. */
struct FairQueueClassCounts
{
    std::uint64_t pushed = 0;  ///< admitted into the sub-queue
    std::uint64_t drained = 0; ///< handed to a worker
    std::uint64_t shedFull = 0;///< tryPush refused: sub-queue full
    std::size_t depth = 0;     ///< currently queued
};

template <typename T>
class FairQueue
{
  public:
    /**
     * capacityPerClass bounds each class's sub-queue; with one
     * class it bounds the whole queue.
     */
    explicit FairQueue(std::size_t capacityPerClass)
        : capacity_(capacityPerClass)
    {
    }

    /**
     * Enqueue into cls (created on first use) carrying the class's
     * current weight. Returns false when that sub-queue is full or
     * the queue is closed; the caller sheds.
     */
    bool
    tryPush(T item, std::uint32_t cls = 0, double weight = 1.0)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (closed_)
            return false;
        Class &c = classFor(cls);
        c.weight = weight;
        if (c.items.size() >= capacity_) {
            ++c.shedFull;
            return false;
        }
        c.items.push_back(std::move(item));
        ++c.pushed;
        if (!c.active) {
            c.active = true;
            c.fresh = true;
            c.deficit = 0.0;
            ring_.push_back(cls);
        }
        ++total_;
        lock.unlock();
        cv_.notify_one();
        return true;
    }

    /**
     * Block until an item or close; drain up to max items in DRR
     * order into out (cleared first). False only when closed and
     * empty — the worker-pool exit condition.
     */
    bool
    popBatch(std::vector<T> &out, std::size_t max)
    {
        out.clear();
        if (max == 0)
            max = 1;
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return total_ > 0 || closed_; });
        if (total_ == 0)
            return false; // closed and drained

        while (out.size() < max && !ring_.empty()) {
            const std::uint32_t cls = ring_.front();
            Class &c = *classes_[cls];
            if (c.fresh) {
                c.deficit += quantum(c);
                c.fresh = false;
            }
            while (out.size() < max && c.deficit >= 1.0 &&
                   !c.items.empty()) {
                out.push_back(std::move(c.items.front()));
                c.items.pop_front();
                c.deficit -= 1.0;
                ++c.drained;
                --total_;
            }
            if (c.items.empty()) {
                // Ran dry: leave the ring and forfeit the deficit,
                // or an idle class would bank unbounded credit.
                ring_.pop_front();
                c.active = false;
                c.deficit = 0.0;
                c.fresh = true;
            } else if (c.deficit < 1.0) {
                // Quantum spent with backlog left: to the tail.
                ring_.pop_front();
                ring_.push_back(cls);
                c.fresh = true;
            } else {
                // Batch full mid-quantum; resume here next wakeup
                // without re-crediting (fresh stays false).
                break;
            }
        }
        return !out.empty();
    }

    /** Blocking single pop; false when closed and drained. */
    bool
    pop(T &out)
    {
        std::vector<T> batch;
        if (!popBatch(batch, 1))
            return false;
        out = std::move(batch.front());
        return true;
    }

    /** Close: pushes fail, waiters drain what remains then wake. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        cv_.notify_all();
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /** Items queued across all classes. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return total_;
    }

    std::size_t capacity() const { return capacity_; }

    /** Snapshot of every class's counters, indexed by class id. */
    std::vector<FairQueueClassCounts>
    classCounts() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<FairQueueClassCounts> out;
        out.reserve(classes_.size());
        for (const auto &c : classes_) {
            FairQueueClassCounts counts;
            if (c) {
                counts.pushed = c->pushed;
                counts.drained = c->drained;
                counts.shedFull = c->shedFull;
                counts.depth = c->items.size();
            }
            out.push_back(counts);
        }
        return out;
    }

  private:
    struct Class
    {
        std::deque<T> items;
        double weight = 1.0;
        double deficit = 0.0;
        bool active = false; ///< on the ring
        bool fresh = true;   ///< earns a quantum at the ring head
        std::uint64_t pushed = 0;
        std::uint64_t drained = 0;
        std::uint64_t shedFull = 0;
    };

    static double
    quantum(const Class &c)
    {
        // A non-positive or absurd weight is a registry bug, not a
        // reason to starve or monopolize the drain.
        return std::clamp(c.weight, 0.01, 1000.0);
    }

    Class &
    classFor(std::uint32_t cls)
    {
        if (classes_.size() <= cls)
            classes_.resize(cls + 1);
        if (!classes_[cls])
            classes_[cls] = std::make_unique<Class>();
        return *classes_[cls];
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::unique_ptr<Class>> classes_;
    std::deque<std::uint32_t> ring_; ///< active classes, head next
    std::size_t total_ = 0;
    bool closed_ = false;
};

} // namespace fosm::tenant

#endif // FOSM_TENANT_FAIR_QUEUE_HH
