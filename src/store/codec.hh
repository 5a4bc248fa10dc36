/**
 * @file
 * Little-endian binary encoding: the byte helpers every binary format
 * here uses (store segments, repl frames, the batch wire format) and
 * an Encoder/Decoder pair for store values. The store itself treats
 * values as opaque bytes; layers above it (the characterization store
 * in particular) need an exact, compact serialization — doubles must
 * round-trip bit-identically, because warm-started evaluations are
 * required to be byte-equal to cold ones. Encoding by bit image
 * guarantees that; JSON would too, but at several times the size for
 * numeric bulk data like gap vectors.
 */

#ifndef FOSM_STORE_CODEC_HH
#define FOSM_STORE_CODEC_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fosm::store {

/** Write v at p as 4 little-endian bytes. */
inline void
putU32(char *p, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        p[i] = static_cast<char>(v >> (8 * i));
}

/** Write v at p as 8 little-endian bytes. */
inline void
putU64(char *p, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        p[i] = static_cast<char>(v >> (8 * i));
}

/** Read 4 little-endian bytes at p. */
inline std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

/** Read 8 little-endian bytes at p. */
inline std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Appends fixed-width little-endian fields to a byte string. */
class Encoder
{
  public:
    void
    u32(std::uint32_t v)
    {
        char b[4];
        putU32(b, v);
        buf_.append(b, sizeof(b));
    }

    void
    u64(std::uint64_t v)
    {
        char b[8];
        putU64(b, v);
        buf_.append(b, sizeof(b));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    /** Length-prefixed byte string. */
    void
    bytes(std::string_view s)
    {
        u64(s.size());
        buf_.append(s.data(), s.size());
    }

    void
    u32Vector(const std::vector<std::uint32_t> &v)
    {
        u64(v.size());
        for (const std::uint32_t x : v)
            u32(x);
    }

    void
    u64Vector(const std::vector<std::uint64_t> &v)
    {
        u64(v.size());
        for (const std::uint64_t x : v)
            u64(x);
    }

    void
    f64Vector(const std::vector<double> &v)
    {
        u64(v.size());
        for (const double x : v)
            f64(x);
    }

    const std::string &str() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Reads Encoder output back. All getters return false once the input
 * is exhausted or malformed; callers check ok() (or the last getter)
 * and treat failure as a cache miss, never an error.
 */
class Decoder
{
  public:
    explicit Decoder(std::string_view data) : data_(data) {}

    bool
    u32(std::uint32_t &out)
    {
        const unsigned char *p = next(4);
        if (p)
            out = getU32(p);
        return p != nullptr;
    }

    bool
    u64(std::uint64_t &out)
    {
        const unsigned char *p = next(8);
        if (p)
            out = getU64(p);
        return p != nullptr;
    }

    bool
    f64(double &out)
    {
        std::uint64_t bits;
        if (!u64(bits))
            return false;
        out = std::bit_cast<double>(bits);
        return true;
    }

    bool
    bytes(std::string &out)
    {
        std::uint64_t n;
        if (!u64(n) || n > data_.size() - pos_)
            return fail();
        out.assign(data_.data() + pos_, n);
        pos_ += n;
        return true;
    }

    bool
    u32Vector(std::vector<std::uint32_t> &out)
    {
        std::uint64_t n;
        // Each element needs 4 bytes; bound before reserving so a
        // corrupt length can't trigger a huge allocation.
        if (!u64(n) || n > (data_.size() - pos_) / 4)
            return fail();
        out.clear();
        out.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint32_t v;
            if (!u32(v))
                return false;
            out.push_back(v);
        }
        return true;
    }

    bool
    u64Vector(std::vector<std::uint64_t> &out)
    {
        std::uint64_t n;
        if (!u64(n) || n > (data_.size() - pos_) / 8)
            return fail();
        out.clear();
        out.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t v;
            if (!u64(v))
                return false;
            out.push_back(v);
        }
        return true;
    }

    bool
    f64Vector(std::vector<double> &out)
    {
        std::uint64_t n;
        if (!u64(n) || n > (data_.size() - pos_) / 8)
            return fail();
        out.clear();
        out.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            double v;
            if (!f64(v))
                return false;
            out.push_back(v);
        }
        return true;
    }

    /** True while no getter has failed. */
    bool ok() const { return ok_; }

    /** True when the whole input has been consumed exactly. */
    bool atEnd() const { return ok_ && pos_ == data_.size(); }

  private:
    /** Consume n bytes; null (and failed) when fewer remain. */
    const unsigned char *
    next(std::size_t n)
    {
        if (!ok_ || data_.size() - pos_ < n) {
            fail();
            return nullptr;
        }
        const auto *p =
            reinterpret_cast<const unsigned char *>(data_.data()) + pos_;
        pos_ += n;
        return p;
    }

    bool
    fail()
    {
        ok_ = false;
        return false;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace fosm::store

#endif // FOSM_STORE_CODEC_HH
