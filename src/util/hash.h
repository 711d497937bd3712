/**
 * @file
 * Shared FNV-1a hashing. One implementation for every subsystem that
 * needs a fast, seedable, endian-stable content hash: the serve-layer
 * result cache and request keys, the fleet consistent-hash ring, and
 * the SoC snapshot / convergence-memo state hashes. Deduplicating the
 * copies keeps the constants (and therefore every on-disk digest and
 * ring placement) in one place.
 */

#ifndef FS_UTIL_HASH_H_
#define FS_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fs {
namespace util {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** 64-bit FNV-1a over a byte range; chainable via the seed. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len,
        std::uint64_t seed = kFnvOffsetBasis)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Convenience overload for byte vectors (memory images). */
inline std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &bytes,
        std::uint64_t seed = kFnvOffsetBasis)
{
    return fnv1a64(bytes.data(), bytes.size(), seed);
}

/**
 * One word step of hashImage64(): FNV-1a's xor-multiply plus a
 * xorshift. A multiply only carries bits upward, so without the shift
 * two inputs differing only in high bits keep a difference confined
 * to those bits forever, and a second high-bit difference cancels it
 * with probability ~2^-8 (two FRAM death images differing only in the
 * top byte of two words did collide). The shift folds high bits back
 * down, so every later step sees the difference.
 */
inline std::uint64_t
mixWord64(std::uint64_t h, std::uint64_t w)
{
    h = (h ^ w) * kFnvPrime;
    return h ^ (h >> 32);
}

/**
 * Bulk image hash: mixWord64() over 8-byte words with a byte-wise
 * tail, several times the throughput of the canonical byte stream on
 * large images. NOT the same digest as fnv1a64() -- use it only for
 * hashes that never leave the process (memo keys, dedup tables) and
 * are backed by a byte-exact comparison.
 */
inline std::uint64_t
hashImage64(const void *data, std::size_t len,
            std::uint64_t seed = kFnvOffsetBasis)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w; // memcpy: p has no alignment guarantee
        __builtin_memcpy(&w, p + i, 8);
        h = mixWord64(h, w);
    }
    for (; i < len; ++i)
        h = mixWord64(h, p[i]);
    return h;
}

/** Convenience overload for byte vectors (memory images). */
inline std::uint64_t
hashImage64(const std::vector<std::uint8_t> &bytes,
            std::uint64_t seed = kFnvOffsetBasis)
{
    return hashImage64(bytes.data(), bytes.size(), seed);
}

} // namespace util
} // namespace fs

#endif // FS_UTIL_HASH_H_
