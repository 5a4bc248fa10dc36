#include "store/store.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault_injector.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "store/codec.hh"
#include "store/crc32c.hh"

namespace fosm::store {

namespace {

// ---------------------------------------------------------------
// On-disk format (docs/STORE.md). All integers little-endian.
//
// Segment header (16 bytes):
//   0  char[8]  magic "FOSMSEG1"
//   8  u32      format version (1)
//   12 u32      reserved (0)
//
// Record (32-byte header + key + value):
//   0  u32      CRC32C of bytes [4, end) of the record
//   4  u32      key length
//   8  u32      value length
//   12 u32      flags (bit 0: tombstone)
//   16 u64      LSN (global logical sequence number; max wins)
//   24 u64      FNV-1a digest of the key
//   32 key bytes, then value bytes
// ---------------------------------------------------------------

constexpr char segMagic[8] = {'F', 'O', 'S', 'M', 'S', 'E', 'G', '1'};
constexpr std::uint32_t segFormatVersion = 1;
constexpr std::size_t segHeaderSize = 16;
constexpr std::size_t recHeaderSize = 32;
constexpr std::uint32_t flagTombstone = 1u;
constexpr std::uint32_t maxKeyLen = 1u << 20;
constexpr std::uint32_t maxValueLen = 1u << 30;

std::string
segmentName(std::uint64_t id)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llu.seg",
                  static_cast<unsigned long long>(id));
    return buf;
}

/** Parse "<16 digits>.seg"; returns false for anything else. */
bool
parseSegmentName(const std::string &name, std::uint64_t &id)
{
    if (name.size() != 20 || name.substr(16) != ".seg")
        return false;
    id = 0;
    for (int i = 0; i < 16; ++i) {
        if (name[i] < '0' || name[i] > '9')
            return false;
        id = id * 10 + static_cast<std::uint64_t>(name[i] - '0');
    }
    return true;
}

std::string
segmentHeaderBytes()
{
    std::string h(segHeaderSize, '\0');
    std::memcpy(h.data(), segMagic, sizeof(segMagic));
    putU32(h.data() + 8, segFormatVersion);
    putU32(h.data() + 12, 0);
    return h;
}

/** write() the whole buffer, retrying on EINTR / short writes. */
bool
writeAll(int fd, const char *data, std::size_t size)
{
    if (const FaultAction fault = faultAt("store.write")) {
        faultSleep(fault);
        if (fault.kind == FaultKind::Error) {
            errno = EIO;
            return false;
        }
        if (fault.kind == FaultKind::ShortWrite) {
            // A torn record: write a prefix, then fail as a crash
            // mid-write would. The caller's rollback (ftruncate to
            // the last intact record) is exactly what's under test.
            std::size_t half = size / 2;
            while (half > 0) {
                const ssize_t n = ::write(fd, data, half);
                if (n <= 0)
                    break;
                data += n;
                half -= static_cast<std::size_t>(n);
            }
            errno = EIO;
            return false;
        }
    }
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

void
fsyncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

/** One record as seen by the segment scanner. */
struct ScannedRecord
{
    std::uint64_t offset = 0;
    std::string_view key;
    std::uint32_t valueLen = 0;
    std::uint32_t flags = 0;
    std::uint64_t lsn = 0;
    std::uint64_t recordLen = 0;
};

struct ScanResult
{
    bool headerOk = false;
    std::uint64_t validEnd = 0; ///< end of the intact prefix
    std::uint64_t records = 0;
    std::uint64_t intactBytes = 0; ///< record bytes that verified
    std::uint64_t crcFailures = 0; ///< skipped records (resync mode)
    bool structural = false; ///< stopped at unparseable structure
    std::vector<std::string> corruptKeys; ///< digest-intact only
    std::string error; ///< first structural/CRC problem, if any
};

/**
 * Walk the records of one segment image. In recovery mode
 * (resyncCrcErrors=false) the scan stops at the first torn or
 * corrupt record (that offset becomes validEnd) — this is THE
 * recovery routine: open() truncates to validEnd. In resync mode
 * (fosm-store verify) a CRC-failed record whose framing is still
 * plausible is counted, its key collected when the key digest
 * matches, and the scan continues at the next record boundary;
 * only structural damage (torn header, implausible lengths,
 * truncation) stops the walk.
 */
template <typename OnRecord>
ScanResult
scanSegment(const unsigned char *data, std::size_t size,
            OnRecord &&onRecord, bool resyncCrcErrors = false)
{
    ScanResult result;
    if (size < segHeaderSize ||
        std::memcmp(data, segMagic, sizeof(segMagic)) != 0) {
        result.error = "missing or torn segment header";
        result.structural = true;
        return result;
    }
    if (getU32(data + 8) != segFormatVersion) {
        result.error = "unsupported format version " +
                       std::to_string(getU32(data + 8));
        result.structural = true;
        return result;
    }
    result.headerOk = true;
    std::uint64_t off = segHeaderSize;
    while (off + recHeaderSize <= size) {
        const unsigned char *rec = data + off;
        const std::uint32_t keyLen = getU32(rec + 4);
        const std::uint32_t valueLen = getU32(rec + 8);
        if (keyLen > maxKeyLen || valueLen > maxValueLen) {
            result.error = "implausible record lengths at offset " +
                           std::to_string(off);
            result.structural = true;
            break;
        }
        const std::uint64_t recordLen =
            recHeaderSize + keyLen + valueLen;
        if (off + recordLen > size) {
            result.error = "truncated record at offset " +
                           std::to_string(off);
            result.structural = true;
            break;
        }
        const std::string_view key(
            reinterpret_cast<const char *>(rec + recHeaderSize),
            keyLen);
        const bool crcOk =
            crc32c(rec + 4, recordLen - 4) == getU32(rec);
        const bool digestOk = fnv1a64(key) == getU64(rec + 24);
        if (!crcOk || !digestOk) {
            if (result.error.empty()) {
                result.error =
                    (crcOk ? "key digest mismatch at offset "
                           : "CRC mismatch at offset ") +
                    std::to_string(off);
            }
            if (!resyncCrcErrors)
                break;
            // Record-level corruption with intact framing: count
            // it, keep the key when its digest still checks out,
            // and resynchronize at the next record boundary.
            ++result.crcFailures;
            if (digestOk)
                result.corruptKeys.emplace_back(key);
            off += recordLen;
            continue;
        }
        ScannedRecord s;
        s.offset = off;
        s.key = key;
        s.valueLen = valueLen;
        s.flags = getU32(rec + 12);
        s.lsn = getU64(rec + 16);
        s.recordLen = recordLen;
        onRecord(s);
        ++result.records;
        result.intactBytes += recordLen;
        off += recordLen;
    }
    if (!result.structural && off != size &&
        off + recHeaderSize > size) {
        // A partial record header at the tail is an ordinary torn
        // write, not an error worth naming.
        if (result.error.empty())
            result.error = "torn record header at offset " +
                           std::to_string(off);
        result.structural = true;
    }
    result.validEnd = off;
    return result;
}

/** mmap a file read-only; returns nullptr for size 0. */
const unsigned char *
mapFile(int fd, std::size_t size)
{
    if (size == 0)
        return nullptr;
    void *p = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    return p == MAP_FAILED ? nullptr
                           : static_cast<const unsigned char *>(p);
}

std::string
encodeRecord(const std::string &key, std::string_view value,
             std::uint64_t lsn, std::uint32_t flags)
{
    std::string rec(recHeaderSize, '\0');
    putU32(rec.data() + 4, static_cast<std::uint32_t>(key.size()));
    putU32(rec.data() + 8, static_cast<std::uint32_t>(value.size()));
    putU32(rec.data() + 12, flags);
    putU64(rec.data() + 16, lsn);
    putU64(rec.data() + 24, fnv1a64(key));
    rec.append(key);
    rec.append(value.data(), value.size());
    putU32(rec.data(), crc32c(rec.data() + 4, rec.size() - 4));
    return rec;
}

} // namespace

// -- Segment -------------------------------------------------------

struct PersistentStore::Segment
{
    std::uint64_t id = 0;
    std::string path;
    int fd = -1;
    std::uint64_t size = 0; ///< valid bytes (header + intact records)
    bool sealed = false;
    const unsigned char *map = nullptr; ///< read mapping when sealed
    std::size_t mapSize = 0;

    // Accounting (guarded by the store's exclusive lock).
    std::uint64_t records = 0;
    std::uint64_t recordBytes = 0;
    std::uint64_t deadRecords = 0;
    std::uint64_t deadBytes = 0;
    std::uint64_t minLsn = 0; ///< 0 while the segment is empty
    std::uint64_t maxLsn = 0;

    void
    noteLsn(std::uint64_t lsn)
    {
        if (minLsn == 0 || lsn < minLsn)
            minLsn = lsn;
        if (lsn > maxLsn)
            maxLsn = lsn;
    }

    ~Segment()
    {
        if (map)
            ::munmap(const_cast<unsigned char *>(map), mapSize);
        if (fd >= 0)
            ::close(fd);
    }

    void
    mapSealed()
    {
        map = mapFile(fd, size);
        mapSize = size;
        sealed = true;
    }
};

// -- Open / recovery -----------------------------------------------

PersistentStore::PersistentStore(StoreConfig config)
    : config_(std::move(config))
{
    if (config_.dir.empty())
        throw std::runtime_error("fosm-store: empty directory path");
    openDir();
    if (config_.backgroundCompaction)
        compactor_ = std::thread([this] { compactionLoop(); });
}

void
PersistentStore::openDir()
{
    if (::mkdir(config_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
        throw std::runtime_error("fosm-store: cannot create " +
                                 config_.dir + ": " +
                                 std::strerror(errno));
    }
    DIR *d = ::opendir(config_.dir.c_str());
    if (!d) {
        throw std::runtime_error("fosm-store: cannot open " +
                                 config_.dir + ": " +
                                 std::strerror(errno));
    }
    std::vector<std::uint64_t> ids;
    while (const dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        std::uint64_t id;
        if (parseSegmentName(name, id)) {
            ids.push_back(id);
        } else if (name.size() > 4 &&
                   name.substr(name.size() - 4) == ".tmp") {
            // A compaction that died before its rename; the rename is
            // the commit point, so the temp file is garbage.
            ::unlink((config_.dir + "/" + name).c_str());
        }
    }
    ::closedir(d);
    std::sort(ids.begin(), ids.end());

    // Replay every segment, newest LSN per key winning regardless of
    // file order.
    struct ReplayEntry
    {
        Location loc;
        bool tombstone = false;
    };
    std::unordered_map<std::string, ReplayEntry> replay;

    for (const std::uint64_t id : ids) {
        auto seg = std::make_unique<Segment>();
        seg->id = id;
        seg->path = config_.dir + "/" + segmentName(id);
        seg->fd = ::open(seg->path.c_str(), O_RDWR | O_APPEND);
        if (seg->fd < 0) {
            throw std::runtime_error("fosm-store: cannot open " +
                                     seg->path + ": " +
                                     std::strerror(errno));
        }
        struct stat st{};
        ::fstat(seg->fd, &st);
        const auto fileSize = static_cast<std::size_t>(st.st_size);
        const unsigned char *data = mapFile(seg->fd, fileSize);

        const ScanResult scan = scanSegment(
            data, data ? fileSize : 0, [&](const ScannedRecord &r) {
                const std::string key(r.key);
                Location loc;
                loc.segmentId = id;
                loc.offset = r.offset;
                loc.valueLen = r.valueLen;
                loc.recordLen = r.recordLen;
                loc.lsn = r.lsn;
                auto [it, inserted] =
                    replay.try_emplace(key, ReplayEntry{});
                if (inserted || r.lsn > it->second.loc.lsn) {
                    it->second.loc = loc;
                    it->second.tombstone =
                        (r.flags & flagTombstone) != 0;
                }
                nextLsn_ = std::max(nextLsn_, r.lsn + 1);
                seg->noteLsn(r.lsn);
            });
        if (data)
            ::munmap(const_cast<unsigned char *>(data), fileSize);

        if (!scan.headerOk) {
            // The header itself is torn: nothing in this file is
            // trustworthy. Reset it to an empty segment.
            if (fileSize > 0) {
                warn("fosm-store: resetting segment ", seg->path,
                     " (", scan.error, ")");
                ++truncatedTails_;
            }
            ::ftruncate(seg->fd, 0);
            const std::string h = segmentHeaderBytes();
            writeAll(seg->fd, h.data(), h.size());
            seg->size = segHeaderSize;
        } else {
            if (scan.validEnd < fileSize) {
                warn("fosm-store: truncating torn tail of ",
                     seg->path, " at ", scan.validEnd, " (",
                     scan.error, ")");
                ::ftruncate(seg->fd,
                            static_cast<off_t>(scan.validEnd));
                ::fsync(seg->fd);
                ++truncatedTails_;
            }
            seg->size = scan.validEnd;
        }
        seg->records = scan.records;
        seg->recordBytes = seg->size - segHeaderSize;
        segments_.emplace(id, std::move(seg));
        nextSegmentId_ = std::max(nextSegmentId_, id + 1);
    }

    // Final index: drop tombstones, then charge every superseded or
    // tombstoned record as dead bytes in its segment.
    for (auto &[key, entry] : replay) {
        if (!entry.tombstone) {
            index_.emplace(key, entry.loc);
            if (key.rfind("q/", 0) == 0)
                ++quarantineMarks_; // quarantines survive restart
        }
    }
    std::unordered_map<std::uint64_t, std::uint64_t> liveBytesBySeg;
    std::unordered_map<std::uint64_t, std::uint64_t> liveRecsBySeg;
    for (const auto &[key, loc] : index_) {
        liveBytesBySeg[loc.segmentId] += loc.recordLen;
        ++liveRecsBySeg[loc.segmentId];
    }
    for (auto &[id, seg] : segments_) {
        seg->deadBytes = seg->recordBytes - liveBytesBySeg[id];
        seg->deadRecords = seg->records - liveRecsBySeg[id];
    }

    // The highest-numbered segment stays the append target; everyone
    // else is sealed and mapped.
    if (segments_.empty()) {
        newSegmentLocked();
    } else {
        activeId_ = segments_.rbegin()->first;
        for (auto &[id, seg] : segments_)
            if (id != activeId_)
                seg->mapSealed();
        Segment *last = segments_.rbegin()->second.get();
        if (last->size >= config_.maxSegmentBytes) {
            newSegmentLocked();
            ::fsync(last->fd);
            last->mapSealed();
        }
    }
}

PersistentStore::~PersistentStore()
{
    {
        std::lock_guard<std::mutex> lock(cvMutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (compactor_.joinable())
        compactor_.join();
    flush();
}

// -- Data path -----------------------------------------------------

PersistentStore::Segment *
PersistentStore::activeSegment()
{
    return segments_.at(activeId_).get();
}

PersistentStore::ReadStatus
PersistentStore::readValue(const Segment &segment,
                           const Location &loc,
                           std::string &out) const
{
    if (const FaultAction fault = faultAt("store.read")) {
        faultSleep(fault);
        if (fault.kind == FaultKind::Error ||
            fault.kind == FaultKind::ShortWrite)
            return ReadStatus::Failed; // a miss: caller recomputes
    }
    const std::uint64_t keyLen =
        loc.recordLen - recHeaderSize - loc.valueLen;
    const std::uint64_t valueOff =
        loc.offset + recHeaderSize + keyLen;
    if (config_.verifyOnRead) {
        // Re-read and re-verify the whole record.
        std::string rec(loc.recordLen, '\0');
        if (segment.map) {
            std::memcpy(rec.data(), segment.map + loc.offset,
                        loc.recordLen);
        } else if (::pread(segment.fd, rec.data(), loc.recordLen,
                           static_cast<off_t>(loc.offset)) !=
                   static_cast<ssize_t>(loc.recordLen)) {
            return ReadStatus::Failed;
        }
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(rec.data());
        if (crc32c(bytes + 4, loc.recordLen - 4) != getU32(bytes))
            return ReadStatus::Corrupt;
        out.assign(rec, recHeaderSize + keyLen, loc.valueLen);
        return ReadStatus::Ok;
    }
    out.resize(loc.valueLen);
    if (segment.map) {
        std::memcpy(out.data(), segment.map + valueOff,
                    loc.valueLen);
        return ReadStatus::Ok;
    }
    return ::pread(segment.fd, out.data(), loc.valueLen,
                   static_cast<off_t>(valueOff)) ==
                   static_cast<ssize_t>(loc.valueLen)
               ? ReadStatus::Ok
               : ReadStatus::Failed;
}

bool
PersistentStore::recordCrcOkLocked(const Segment &segment,
                                   const Location &loc) const
{
    std::string rec(loc.recordLen, '\0');
    if (segment.map) {
        std::memcpy(rec.data(), segment.map + loc.offset,
                    loc.recordLen);
    } else if (::pread(segment.fd, rec.data(), loc.recordLen,
                       static_cast<off_t>(loc.offset)) !=
               static_cast<ssize_t>(loc.recordLen)) {
        return false;
    }
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(rec.data());
    return crc32c(bytes + 4, loc.recordLen - 4) == getU32(bytes);
}

bool
PersistentStore::get(const std::string &key, std::string &value)
{
    std::uint64_t corruptLsn = 0;
    bool corrupt = false;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        gets_.fetch_add(1, std::memory_order_relaxed);
        const auto it = index_.find(key);
        if (it == index_.end())
            return false;
        const auto seg = segments_.find(it->second.segmentId);
        if (seg == segments_.end())
            return false;
        switch (readValue(*seg->second, it->second, value)) {
        case ReadStatus::Ok:
            hits_.fetch_add(1, std::memory_order_relaxed);
            return true;
        case ReadStatus::Failed:
            return false;
        case ReadStatus::Corrupt:
            // A repairable miss, never an error: count it, tell the
            // scrub/repair layer (outside the lock), and let the
            // caller recompute or fall through to a warmer tier.
            corruptReads_.fetch_add(1, std::memory_order_relaxed);
            corruptLsn = it->second.lsn;
            corrupt = true;
            break;
        }
    }
    if (corrupt) {
        CorruptionHook hook;
        {
            std::lock_guard<std::mutex> lock(hookMutex_);
            hook = corruptionHook_;
        }
        if (hook)
            hook(key, corruptLsn);
    }
    return false;
}

bool
PersistentStore::contains(const std::string &key)
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return index_.count(key) > 0;
}

void
PersistentStore::accountDead(const Location &loc)
{
    const auto it = segments_.find(loc.segmentId);
    if (it != segments_.end()) {
        it->second->deadBytes += loc.recordLen;
        ++it->second->deadRecords;
    }
}

std::uint64_t
PersistentStore::appendLocked(const std::string &key,
                              std::string_view value, bool tombstone)
{
    Segment *seg = activeSegment();
    const std::uint64_t lsn = nextLsn_++;
    std::string rec = encodeRecord(
        key, value, lsn, tombstone ? flagTombstone : 0);
    if (const FaultAction fault = faultAt("store.corrupt")) {
        // Silent media corruption: flip one payload byte AFTER the
        // CRC was computed, so the record lands on disk latent-bad —
        // exactly what scrub and verify-on-read exist to catch.
        if (fault.kind == FaultKind::FlipByte && !value.empty() &&
            !tombstone)
            rec[recHeaderSize + key.size() + lsn % value.size()] ^=
                0x40;
    }
    if (!writeAll(seg->fd, rec.data(), rec.size())) {
        // Disk trouble: roll the file back to the last intact record
        // so later appends stay aligned, and drop this write (the
        // store is a cache; the caller recomputes).
        warn("fosm-store: append to ", seg->path, " failed: ",
             std::strerror(errno));
        ::ftruncate(seg->fd, static_cast<off_t>(seg->size));
        return 0;
    }
    if (config_.fsyncEachPut) {
        faultSleep(faultAt("store.fsync")); // a slow disk's fsync
        ::fsync(seg->fd);
    }

    Location loc;
    loc.segmentId = seg->id;
    loc.offset = seg->size;
    loc.valueLen = static_cast<std::uint32_t>(value.size());
    loc.recordLen = rec.size();
    loc.lsn = lsn;
    seg->size += rec.size();
    ++seg->records;
    seg->recordBytes += rec.size();
    seg->noteLsn(lsn);
    ++appends_;

    const bool isMark = key.rfind("q/", 0) == 0;
    const auto it = index_.find(key);
    if (it != index_.end()) {
        accountDead(it->second);
        if (tombstone) {
            index_.erase(it);
            if (isMark)
                --quarantineMarks_;
        } else {
            it->second = loc;
        }
    } else if (!tombstone) {
        index_.emplace(key, loc);
        if (isMark)
            ++quarantineMarks_;
    }
    if (tombstone) {
        // The tombstone record itself is dead weight from birth.
        seg->deadBytes += rec.size();
        ++seg->deadRecords;
    }

    if (seg->size >= config_.maxSegmentBytes) {
        // Create the successor first: if that fails (disk trouble),
        // the current segment just keeps growing instead of the
        // store wedging on a sealed append target.
        try {
            newSegmentLocked();
            ::fsync(seg->fd);
            seg->mapSealed();
        } catch (const std::exception &e) {
            warn("fosm-store: segment rotation failed: ", e.what());
        }
    }
    return lsn;
}

void
PersistentStore::put(const std::string &key, std::string_view value)
{
    if (key.size() > maxKeyLen || value.size() > maxValueLen) {
        warn("fosm-store: oversized put dropped (key ", key.size(),
             " bytes, value ", value.size(), " bytes)");
        return;
    }
    bool wantCompaction;
    std::uint64_t lsn;
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        lsn = appendLocked(key, value, false);
        if (lsn != 0 && quarantineMarks_ > 0 &&
            key.rfind("q/", 0) != 0 &&
            index_.count(quarantineKey(key)) > 0) {
            // A fresh committed value IS the re-commit that ends a
            // quarantine: drop the mark.
            appendLocked(quarantineKey(key), {}, true);
        }
        wantCompaction = shouldCompactLocked();
    }
    if (wantCompaction && config_.backgroundCompaction) {
        {
            std::lock_guard<std::mutex> lock(cvMutex_);
            compactRequested_ = true;
        }
        cv_.notify_one();
    }
    if (lsn != 0) {
        // Copy under the hook lock, invoke outside it: the hook may
        // be cleared concurrently (replicator shutdown) while a put
        // is in flight, and the replicator outlives its server's
        // workers, so running the previous hook once more is safe.
        CommitHook hook;
        {
            std::lock_guard<std::mutex> lock(hookMutex_);
            hook = commitHook_;
        }
        if (hook)
            hook(key, value, lsn);
    }
}

void
PersistentStore::setCommitHook(CommitHook hook)
{
    std::lock_guard<std::mutex> lock(hookMutex_);
    commitHook_ = std::move(hook);
}

void
PersistentStore::setCorruptionHook(CorruptionHook hook)
{
    std::lock_guard<std::mutex> lock(hookMutex_);
    corruptionHook_ = std::move(hook);
}

void
PersistentStore::remove(const std::string &key)
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (index_.count(key) == 0)
        return; // nothing to shadow; skip the tombstone
    appendLocked(key, {}, true);
}

PersistentStore::Segment *
PersistentStore::newSegmentLocked()
{
    const std::uint64_t id = nextSegmentId_++;
    auto seg = std::make_unique<Segment>();
    seg->id = id;
    seg->path = config_.dir + "/" + segmentName(id);
    seg->fd = ::open(seg->path.c_str(),
                     O_RDWR | O_CREAT | O_TRUNC | O_APPEND, 0644);
    if (seg->fd < 0) {
        throw std::runtime_error("fosm-store: cannot create " +
                                 seg->path + ": " +
                                 std::strerror(errno));
    }
    const std::string h = segmentHeaderBytes();
    writeAll(seg->fd, h.data(), h.size());
    seg->size = segHeaderSize;
    fsyncDir(config_.dir);
    Segment *raw = seg.get();
    segments_.emplace(id, std::move(seg));
    activeId_ = id;
    return raw;
}

void
PersistentStore::flush()
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = segments_.find(activeId_);
    if (it != segments_.end())
        ::fsync(it->second->fd);
}

bool
PersistentStore::shouldCompactLocked() const
{
    std::uint64_t sealedBytes = 0, sealedDead = 0;
    for (const auto &[id, seg] : segments_) {
        if (!seg->sealed)
            continue;
        sealedBytes += seg->recordBytes;
        sealedDead += seg->deadBytes;
    }
    return sealedDead >= config_.compactMinDeadBytes &&
           sealedBytes > 0 &&
           static_cast<double>(sealedDead) >
               config_.compactDeadFraction *
                   static_cast<double>(sealedBytes);
}

// -- Compaction ----------------------------------------------------

void
PersistentStore::compact()
{
    // One compaction at a time; sealed segments are immutable and can
    // only be retired by this function, so their mappings stay valid
    // for the whole run without holding the store lock.
    std::lock_guard<std::mutex> run(compactRunMutex_);

    struct LiveRec
    {
        std::string key;
        const Segment *segment;
        Location loc;
        std::uint64_t newOffset = 0;
        bool corrupt = false;
    };
    std::vector<LiveRec> live;
    std::vector<std::uint64_t> retiring;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        for (const auto &[id, seg] : segments_)
            if (seg->sealed)
                retiring.push_back(id);
        if (retiring.empty())
            return;
        for (const auto &[key, loc] : index_) {
            const auto it = segments_.find(loc.segmentId);
            if (it != segments_.end() && it->second->sealed)
                live.push_back(
                    LiveRec{key, it->second.get(), loc, 0});
        }
    }

    std::uint64_t newId;
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        newId = nextSegmentId_++;
    }

    // Rewrite the live records (original LSNs preserved) into a temp
    // file. If we die anywhere before the rename below, the temp file
    // is deleted at next open and nothing changed.
    const std::string tmpPath =
        config_.dir + "/compact-" + std::to_string(newId) + ".tmp";
    const int fd = ::open(tmpPath.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        warn("fosm-store: compaction cannot create ", tmpPath, ": ",
             std::strerror(errno));
        return;
    }
    std::string out = segmentHeaderBytes();
    std::uint64_t newSize = segHeaderSize;
    std::uint64_t newRecords = 0;
    for (LiveRec &r : live) {
        const unsigned char *src = r.segment->map + r.loc.offset;
        if (crc32c(src + 4, r.loc.recordLen - 4) != getU32(src)) {
            // Never launder corruption into a fresh CRC: a corrupt
            // record is dropped from the copy and quarantined in the
            // commit section below.
            r.corrupt = true;
            continue;
        }
        const std::uint64_t keyLen =
            r.loc.recordLen - recHeaderSize - r.loc.valueLen;
        const char *value = reinterpret_cast<const char *>(
            r.segment->map + r.loc.offset + recHeaderSize + keyLen);
        const std::string rec = encodeRecord(
            r.key, std::string_view(value, r.loc.valueLen),
            r.loc.lsn, 0);
        r.newOffset = newSize;
        out.append(rec);
        newSize += rec.size();
        ++newRecords;
        if (out.size() >= (1u << 20)) {
            if (!writeAll(fd, out.data(), out.size()))
                break;
            out.clear();
        }
    }
    bool ok = writeAll(fd, out.data(), out.size());
    ok = ok && ::fsync(fd) == 0;
    ::close(fd);
    if (!ok) {
        warn("fosm-store: compaction write failed: ",
             std::strerror(errno));
        ::unlink(tmpPath.c_str());
        return;
    }

    // Commit point: the rename. After this the new segment exists
    // alongside the old ones; LSN-max replay makes the overlap
    // harmless if we die before the unlinks.
    const std::string newPath =
        config_.dir + "/" + segmentName(newId);
    if (::rename(tmpPath.c_str(), newPath.c_str()) != 0) {
        warn("fosm-store: compaction rename failed: ",
             std::strerror(errno));
        ::unlink(tmpPath.c_str());
        return;
    }
    fsyncDir(config_.dir);

    auto seg = std::make_unique<Segment>();
    seg->id = newId;
    seg->path = newPath;
    seg->fd = ::open(newPath.c_str(), O_RDONLY);
    seg->size = newSize;
    seg->records = newRecords;
    seg->recordBytes = newSize - segHeaderSize;
    for (const LiveRec &r : live)
        if (!r.corrupt)
            seg->noteLsn(r.loc.lsn);
    seg->mapSealed();

    std::vector<std::pair<std::string, std::uint64_t>> quarantinedNow;
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        // Repoint entries that still reference the retired segments.
        // Anything overwritten while we copied now points at the
        // active segment; its stale copy in the new segment is dead.
        for (const LiveRec &r : live) {
            const auto it = index_.find(r.key);
            const bool stillHere =
                it != index_.end() &&
                it->second.segmentId == r.loc.segmentId &&
                it->second.offset == r.loc.offset;
            if (r.corrupt) {
                // The only copy this node has failed its CRC; the
                // retired file (and the bytes) are going away, so
                // quarantine the key for the repair channel.
                if (stillHere) {
                    index_.erase(it);
                    appendLocked(quarantineKey(r.key),
                                 std::to_string(r.loc.lsn), false);
                    ++quarantinedTotal_;
                    quarantinedNow.emplace_back(r.key, r.loc.lsn);
                }
                continue;
            }
            if (stillHere) {
                it->second.segmentId = newId;
                it->second.offset = r.newOffset;
            } else {
                seg->deadBytes += r.loc.recordLen;
                ++seg->deadRecords;
            }
        }
        for (const std::uint64_t id : retiring) {
            const auto it = segments_.find(id);
            if (it != segments_.end()) {
                ::unlink(it->second->path.c_str());
                segments_.erase(it);
            }
        }
        segments_.emplace(newId, std::move(seg));
        ++compactions_;
    }
    fsyncDir(config_.dir);
    if (!quarantinedNow.empty()) {
        CorruptionHook hook;
        {
            std::lock_guard<std::mutex> lock(hookMutex_);
            hook = corruptionHook_;
        }
        if (hook)
            for (const auto &[key, lsn] : quarantinedNow)
                hook(key, lsn);
    }
}

void
PersistentStore::compactionLoop()
{
    while (true) {
        {
            std::unique_lock<std::mutex> lock(cvMutex_);
            cv_.wait(lock, [this] {
                return stopping_ || compactRequested_;
            });
            if (stopping_)
                return;
            compactRequested_ = false;
        }
        compact();
    }
}

// -- Scrub support -------------------------------------------------

std::vector<ScrubEntry>
PersistentStore::liveEntriesInSegment(std::uint64_t segmentId,
                                      std::uint64_t sinceLsn) const
{
    std::vector<ScrubEntry> out;
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (const auto &[key, loc] : index_) {
        if (loc.segmentId != segmentId || loc.lsn <= sinceLsn)
            continue;
        ScrubEntry e;
        e.key = key;
        e.lsn = loc.lsn;
        e.offset = loc.offset;
        e.recordLen = loc.recordLen;
        out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(),
              [](const ScrubEntry &a, const ScrubEntry &b) {
                  return a.offset < b.offset;
              });
    return out;
}

RecordCheck
PersistentStore::verifyRecord(const std::string &key,
                              std::uint64_t &lsn) const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end())
        return RecordCheck::Gone;
    const auto seg = segments_.find(it->second.segmentId);
    if (seg == segments_.end())
        return RecordCheck::Gone;
    lsn = it->second.lsn;
    return recordCrcOkLocked(*seg->second, it->second)
               ? RecordCheck::Ok
               : RecordCheck::Corrupt;
}

bool
PersistentStore::quarantine(const std::string &key,
                            std::uint64_t expectLsn)
{
    if (key.rfind("q/", 0) == 0)
        return false; // marks are never themselves quarantined
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        const auto it = index_.find(key);
        if (it == index_.end() || it->second.lsn != expectLsn)
            return false; // rewritten or removed since detection
        const auto seg = segments_.find(it->second.segmentId);
        if (seg == segments_.end())
            return false;
        if (recordCrcOkLocked(*seg->second, it->second))
            return false; // healthy again (compaction re-read raced)
        // Drop the corrupt record from the index — its bytes stay
        // on disk as dead weight (live segments are never truncated)
        // until compaction skips them — and persist the mark so
        // repair can find it after a restart.
        const std::uint64_t damagedId = it->second.segmentId;
        accountDead(it->second);
        index_.erase(it);
        if (damagedId == activeId_) {
            // Recovery truncates a segment at its first CRC-failed
            // record, so anything appended after the corrupt bytes
            // in the SAME segment would be lost on restart — the
            // mark included. Seal the damaged segment first; the
            // mark then lands in a fresh one recovery replays
            // independently.
            Segment *damaged = activeSegment();
            try {
                newSegmentLocked();
                ::fsync(damaged->fd);
                damaged->mapSealed();
            } catch (const std::exception &e) {
                warn("fosm-store: rotation at quarantine failed: ",
                     e.what());
            }
        }
        appendLocked(quarantineKey(key), std::to_string(expectLsn),
                     false);
        ++quarantinedTotal_;
    }
    // Compaction rewrites the segment's surviving live records and
    // deletes the corrupt bytes outright; nudge it so the damage
    // doesn't sit on disk until the usual dead-space thresholds.
    if (config_.backgroundCompaction) {
        {
            std::lock_guard<std::mutex> lock(cvMutex_);
            compactRequested_ = true;
        }
        cv_.notify_one();
    }
    return true;
}

// -- Introspection -------------------------------------------------

void
PersistentStore::forEachLive(
    const std::function<void(const std::string &, const std::string &,
                             std::uint64_t)> &fn)
{
    std::vector<std::string> keys;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        keys.reserve(index_.size());
        for (const auto &[key, loc] : index_)
            keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::string &key : keys) {
        std::string value;
        std::uint64_t lsn = 0;
        {
            std::shared_lock<std::shared_mutex> lock(mutex_);
            const auto it = index_.find(key);
            if (it == index_.end())
                continue;
            const auto seg = segments_.find(it->second.segmentId);
            if (seg == segments_.end() ||
                readValue(*seg->second, it->second, value) !=
                    ReadStatus::Ok)
                continue;
            lsn = it->second.lsn;
        }
        fn(key, value, lsn);
    }
}

void
PersistentStore::forEachLiveKey(
    const std::function<void(const std::string &, std::uint64_t)> &fn)
    const
{
    std::vector<std::pair<std::string, std::uint64_t>> keys;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        keys.reserve(index_.size());
        for (const auto &[key, loc] : index_)
            keys.emplace_back(key, loc.lsn);
    }
    for (const auto &[key, lsn] : keys)
        fn(key, lsn);
}

std::vector<LiveEntry>
PersistentStore::collectSince(
    std::uint64_t sinceLsn, std::size_t maxEntries,
    std::size_t maxBytes,
    const std::function<bool(const std::string &)> &filter,
    bool &more) const
{
    std::vector<LiveEntry> out;
    more = false;
    std::shared_lock<std::shared_mutex> lock(mutex_);

    // Watermark fast path: a caught-up replica's pull touches only
    // the per-segment maxLsn, never the index or the record bytes.
    bool anyAbove = false;
    for (const auto &[id, seg] : segments_) {
        if (seg->maxLsn > sinceLsn) {
            anyAbove = true;
            break;
        }
    }
    if (!anyAbove)
        return out;

    struct Candidate
    {
        const std::string *key;
        const Location *loc;
    };
    std::vector<Candidate> candidates;
    for (const auto &[key, loc] : index_) {
        if (loc.lsn <= sinceLsn)
            continue;
        if (filter && !filter(key))
            continue;
        candidates.push_back(Candidate{&key, &loc});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.loc->lsn < b.loc->lsn;
              });

    std::size_t bytes = 0;
    for (const Candidate &c : candidates) {
        if (out.size() >= maxEntries ||
            (bytes > 0 && bytes + c.loc->valueLen > maxBytes)) {
            more = true;
            break;
        }
        const auto seg = segments_.find(c.loc->segmentId);
        if (seg == segments_.end())
            continue;
        LiveEntry entry;
        entry.key = *c.key;
        entry.lsn = c.loc->lsn;
        if (readValue(*seg->second, *c.loc, entry.value) !=
            ReadStatus::Ok)
            continue;
        bytes += entry.value.size();
        out.push_back(std::move(entry));
    }
    return out;
}

std::vector<SegmentLsnInfo>
PersistentStore::segmentLsns() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    std::vector<SegmentLsnInfo> out;
    out.reserve(segments_.size());
    std::unordered_map<std::uint64_t, std::uint64_t> liveBySeg;
    for (const auto &[key, loc] : index_)
        ++liveBySeg[loc.segmentId];
    for (const auto &[id, seg] : segments_) {
        SegmentLsnInfo info;
        info.id = id;
        info.records = seg->records;
        info.liveRecords = liveBySeg[id];
        info.bytes = seg->size;
        info.minLsn = seg->minLsn;
        info.maxLsn = seg->maxLsn;
        info.sealed = seg->sealed;
        out.push_back(info);
    }
    return out;
}

std::uint64_t
PersistentStore::maxLsn() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return nextLsn_ - 1;
}

StoreStats
PersistentStore::stats() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    StoreStats s;
    s.segments = segments_.size();
    s.liveRecords = index_.size();
    std::uint64_t recordBytes = 0;
    for (const auto &[id, seg] : segments_) {
        s.deadRecords += seg->deadRecords;
        s.deadBytes += seg->deadBytes;
        s.totalBytes += seg->size;
        recordBytes += seg->recordBytes;
    }
    s.liveBytes = recordBytes - s.deadBytes;
    s.appends = appends_;
    s.gets = gets_.load(std::memory_order_relaxed);
    s.hits = hits_.load(std::memory_order_relaxed);
    s.compactions = compactions_;
    s.truncatedTails = truncatedTails_;
    s.maxLsn = nextLsn_ - 1;
    s.corruptReads = corruptReads_.load(std::memory_order_relaxed);
    s.quarantined = quarantinedTotal_;
    s.quarantineLive = quarantineMarks_;
    return s;
}

std::vector<SegmentReport>
verifyDir(const std::string &dir)
{
    std::vector<SegmentReport> reports;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return reports;
    std::vector<std::pair<std::uint64_t, std::string>> files;
    while (const dirent *e = ::readdir(d)) {
        std::uint64_t id;
        if (parseSegmentName(e->d_name, id))
            files.emplace_back(id, dir + "/" + e->d_name);
    }
    ::closedir(d);
    std::sort(files.begin(), files.end());

    for (const auto &[id, path] : files) {
        SegmentReport report;
        report.file = path;
        report.id = id;
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) {
            report.intact = false;
            report.structural = true;
            report.error = std::strerror(errno);
            reports.push_back(std::move(report));
            continue;
        }
        struct stat st{};
        ::fstat(fd, &st);
        const auto size = static_cast<std::size_t>(st.st_size);
        report.fileBytes = size;
        const unsigned char *data = mapFile(fd, size);
        ScanResult scan = scanSegment(
            data, data ? size : 0, [](const ScannedRecord &) {},
            /*resyncCrcErrors=*/true);
        report.records = scan.records;
        report.bytes = scan.intactBytes;
        report.crcFailures = scan.crcFailures;
        report.structural = scan.structural;
        report.corruptKeys = std::move(scan.corruptKeys);
        report.intact = scan.headerOk && !scan.structural &&
                        scan.crcFailures == 0;
        report.error = scan.error;
        if (data)
            ::munmap(const_cast<unsigned char *>(data), size);
        ::close(fd);
        reports.push_back(std::move(report));
    }
    return reports;
}

} // namespace fosm::store
