/**
 * @file
 * Versioned binary access-trace format.
 *
 * A trace file is:
 *
 *   header   magic (u64), format version (u32), recorded design (u32),
 *            config fingerprint (u64, FNV-1a over the serialized
 *            SimConfig), thread count (u32), workload name, the full
 *            serialized SimConfig (so a trace is self-contained), and
 *            the event count.
 *   records  delta/varint-encoded event stream (below).
 *
 * Every record starts with a head byte: op in the high nibble, tid in
 * the low nibble (0xF = escaped, varint tid follows). Lengths, cycle
 * counts and file descriptors are LEB128 varints; virtual addresses
 * are zigzag varint deltas against a per-thread cursor that advances
 * to (vaddr + len) after each record — sequential streams encode as
 * zero deltas. Write-class records carry their payload verbatim:
 * replay must reproduce checksum/parity *contents*, not just
 * addresses, for Stats to be bit-identical under every design.
 *
 * Op payloads (after the head byte):
 *
 *   Read             zig(dvaddr) len
 *   Write            zig(dvaddr) len payload[len]
 *   Compute          cycles
 *   ComputeChecksum  bytes
 *   DropCaches       -
 *   Commit           flags{runScheme,countsTxCommit} nranges ranges...
 *   FsCreate         namelen name[..] bytes fd
 *   FsDaxMap/FsDaxUnmap/FsRemove   fd
 *   FsPwrite         fd offset len payload[len]
 *   FsPread          fd offset len
 *   Marker           subtype
 *   FsInit           fd offset len payload[len]
 *
 * Commit ranges (see redundancy/scheme.hh: DirtyRange) encode per
 * range: a flags byte (appData, has-object, has-checksum-slot,
 * object-is-own-line for the RawCoverage common case), zig(dvaddr),
 * len, then the optional object base/length and checksum-slot
 * address, all relative to the range's vaddr.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace tvarak::trace {

/** "TVRKTRC" + format generation, as a little-endian u64. */
constexpr std::uint64_t kTraceMagic = 0x0143'5254'4b52'5654ull;
constexpr std::uint32_t kTraceVersion = 1;

/** Event opcode (high nibble of the head byte). */
enum class Op : std::uint8_t {
    Read = 0,
    Write = 1,
    Compute = 2,
    ComputeChecksum = 3,
    DropCaches = 4,
    Commit = 5,
    FsCreate = 6,
    FsDaxMap = 7,
    FsDaxUnmap = 8,
    FsRemove = 9,
    FsPwrite = 10,
    FsPread = 11,
    Marker = 12,
    /** DaxFs::initialize: file contents written at rest. Its
     *  writes are not recorded as Write events, and replay calls
     *  DaxFs::initialize. */
    FsInit = 13,
};

/** Marker subtypes. */
constexpr std::uint64_t kMarkerResetStats = 0;

/** Head-byte tid escape: real tid follows as a varint. */
constexpr std::uint8_t kTidEscape = 0xF;

/** Commit-event flag bits. */
constexpr std::uint8_t kCommitRunScheme = 0x1;
constexpr std::uint8_t kCommitCountsTx = 0x2;

/** Commit-range flag bits. */
constexpr std::uint8_t kRangeAppData = 0x1;
constexpr std::uint8_t kRangeHasObj = 0x2;
constexpr std::uint8_t kRangeHasCsum = 0x4;
constexpr std::uint8_t kRangeObjIsOwnLine = 0x8;

/** LEB128 unsigned varint append. */
inline void
putVarint(std::vector<std::uint8_t> &buf, std::uint64_t value)
{
    while (value >= 0x80) {
        buf.push_back(static_cast<std::uint8_t>(value) | 0x80);
        value >>= 7;
    }
    buf.push_back(static_cast<std::uint8_t>(value));
}

/**
 * LEB128 unsigned varint decode; advances @p p (bounded by @p end).
 *
 * @return false if the encoding runs off @p end with its continuation
 * bit still set (truncation) or spans more than the ten groups a
 * 64-bit value can need (a corrupt continuation run). The shift is
 * capped below the word size, so garbage input is never undefined
 * behaviour.
 */
inline bool
getVarintChecked(const std::uint8_t *&p, const std::uint8_t *end,
                 std::uint64_t &value)
{
    value = 0;
    unsigned shift = 0;
    while (p < end) {
        std::uint8_t b = *p++;
        value |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if ((b & 0x80) == 0)
            return true;
        shift += 7;
        if (shift >= 64)
            return false;
    }
    return false;
}

/** Unchecked decode for streams validated at load time. */
inline std::uint64_t
getVarint(const std::uint8_t *&p, const std::uint8_t *end)
{
    std::uint64_t value = 0;
    getVarintChecked(p, end, value);
    return value;
}

/** Zigzag-map a signed delta into an unsigned varint-friendly value. */
inline std::uint64_t
zigzag(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
        static_cast<std::uint64_t>(value >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
        -static_cast<std::int64_t>(value & 1);
}

/** FNV-1a over a byte blob (the config fingerprint). */
inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t len)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < len; i++) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace tvarak::trace
