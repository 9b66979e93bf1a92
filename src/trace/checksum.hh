/**
 * @file
 * The bulk checksum of the on-disk packed-trace tier: XXH64 (Yann
 * Collet's xxHash, 64-bit variant). Four independent 64-bit lanes
 * consume 32-byte stripes a word at a time, so a multi-MB trace body
 * hashes at memory speed instead of FNV-1a's one multiply per byte.
 * Words are read in host byte order: like the rest of the trace tier,
 * the format is same-host. On a little-endian host the result equals
 * the reference XXH64; tests/test_trace_packed.cc pins known answers,
 * because stored traces depend on them.
 */

#ifndef SWAN_TRACE_CHECKSUM_HH
#define SWAN_TRACE_CHECKSUM_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace swan::trace
{

namespace checksum_detail
{

constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

template <typename T>
inline T
load(const uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline uint64_t
round(uint64_t acc, uint64_t in)
{
    return std::rotl(acc + in * kP2, 31) * kP1;
}

inline uint64_t
merge(uint64_t h, uint64_t lane)
{
    return (h ^ round(0, lane)) * kP1 + kP4;
}

} // namespace checksum_detail

/** XXH64 of @p n bytes at @p data. */
inline uint64_t
checksum64(const void *data, size_t n, uint64_t seed = 0)
{
    using namespace checksum_detail;
    const auto *p = static_cast<const uint8_t *>(data);
    const uint8_t *const end = p + n;
    uint64_t h;
    if (n >= 32) {
        uint64_t v[4] = {seed + kP1 + kP2, seed + kP2, seed, seed - kP1};
        for (; end - p >= 32; p += 32)
            for (int i = 0; i < 4; ++i)
                v[i] = round(v[i], load<uint64_t>(p + 8 * i));
        h = std::rotl(v[0], 1) + std::rotl(v[1], 7) + std::rotl(v[2], 12) +
            std::rotl(v[3], 18);
        for (uint64_t lane : v)
            h = merge(h, lane);
    } else {
        h = seed + kP5;
    }
    h += uint64_t(n);
    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ round(0, load<uint64_t>(p)), 27) * kP1 + kP4;
    if (end - p >= 4) {
        h = std::rotl(h ^ (load<uint32_t>(p) * kP1), 23) * kP2 + kP3;
        p += 4;
    }
    for (; p < end; ++p)
        h = std::rotl(h ^ (*p * kP5), 11) * kP1;
    h = (h ^ (h >> 33)) * kP2;
    h = (h ^ (h >> 29)) * kP3;
    return h ^ (h >> 32);
}

} // namespace swan::trace

#endif // SWAN_TRACE_CHECKSUM_HH
