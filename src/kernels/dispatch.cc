/**
 * @file
 * Backend detection and dispatch for the data-plane kernels.
 *
 * The active table is a single pointer: ops() costs one load, and the
 * kernels themselves are reached through the table's function pointers
 * — no per-call CPUID or feature branches. The pointer starts at the
 * scalar table (safe under any static-initialization order) and is
 * upgraded once during startup to the best available backend.
 */

#include "kernels/tables.hh"

#include <cstring>

namespace tvarak::kernels {

namespace detail {
constinit const KernelOps *gActive = &kScalarOps;
}  // namespace detail

namespace {

bool
cpuHasAvx2()
{
#if defined(__x86_64__)
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("sse4.2") != 0;
#else
    return false;
#endif
}

const KernelOps &
tableOf(Backend b)
{
    return b == Backend::Avx2 ? kAvx2Ops : kScalarOps;
}

/** Route ops() to the best backend once at startup. */
struct DispatchInit {
    DispatchInit() { selectBackend(bestBackend()); }
};

const DispatchInit gDispatchInit;

}  // namespace

const KernelOps &
opsFor(Backend b)
{
    return tableOf(b);
}

const char *
backendName(Backend b)
{
    return tableOf(b).name;
}

bool
backendAvailable(Backend b)
{
    static const bool haveAvx2 = cpuHasAvx2();
    return b == Backend::Scalar || haveAvx2;
}

Backend
activeBackend()
{
    return detail::gActive == &kAvx2Ops ? Backend::Avx2
                                        : Backend::Scalar;
}

Backend
bestBackend()
{
    return backendAvailable(Backend::Avx2) ? Backend::Avx2
                                           : Backend::Scalar;
}

bool
selectBackend(Backend b)
{
    if (!backendAvailable(b))
        return false;
    detail::gActive = &tableOf(b);
    return true;
}

std::uint64_t
fletcher64(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t lo = 0, hi = 0;
    std::size_t words = n / 4;
    for (std::size_t i = 0; i < words; i++) {
        std::uint32_t w;
        std::memcpy(&w, p + i * 4, 4);
        lo += w;
        hi += lo;
    }
    // Trailing bytes (if any) are folded in one at a time.
    for (std::size_t i = words * 4; i < n; i++) {
        lo += p[i];
        hi += lo;
    }
    return (hi << 32) | (lo & 0xffffffffull);
}

}  // namespace tvarak::kernels
