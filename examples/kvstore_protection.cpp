/**
 * @file
 * Firmware-bug walkthrough: a persistent key-value store survives a
 * lost write, a misdirected write, and a misdirected read — and a
 * Baseline machine silently serves corrupted data from the same bugs.
 *
 * This is the paper's Figures 1 and 2 acted out end-to-end on real
 * bytes: device ECC stays clean through every firmware bug, TVARAK's
 * DAX-CL-checksums catch the mismatch on the next read, and the line
 * is rebuilt from cross-DIMM parity.
 */

#include <cstdio>
#include <cstring>

#include "apps/trees/pmem_map.hh"
#include "fs/dax_fs.hh"
#include "pmemlib/pmem_pool.hh"
#include "redundancy/registry.hh"

using namespace tvarak;

namespace {

struct Machine {
    MemorySystem mem;
    DaxFs fs;
    PmemPool pool;
    std::unique_ptr<PmemMap> map;

    explicit Machine(const Design &design)
        : mem(
              [] {
                  SimConfig cfg;
                  cfg.nvm.dimmBytes = 64ull << 20;
                  cfg.dram.sizeBytes = 64ull << 20;
                  return cfg;
              }(),
              design),
          fs(mem),
          pool(mem, fs, "kv", 8ull << 20, nullptr, 1),
          map(makeMap(MapKind::BTree, mem, pool, 48))
    {}
};

// 48-byte values: header (16 B) + value fill one cache line exactly,
// so the whole object lives on a single NVM line the demo can target.
constexpr std::size_t kValueBytes = 48;

void
put(Machine &m, std::uint64_t key, char fill)
{
    std::uint8_t value[kValueBytes];
    std::memset(value, fill, sizeof(value));
    m.map->insert(0, key, value);
}

void
overwrite(Machine &m, std::uint64_t key, char fill)
{
    std::uint8_t value[kValueBytes];
    std::memset(value, fill, sizeof(value));
    // In-place update: the same NVM line is rewritten, which is what
    // the injected firmware bug will act on.
    m.map->update(0, key, value);
}

char
get(Machine &m, std::uint64_t key)
{
    std::uint8_t value[kValueBytes] = {};
    if (!m.map->get(0, key, value))
        return '?';
    return static_cast<char>(value[0]);
}

/** NVM-global line address backing @p key's value payload. */
Addr
findValueLine(Machine &m, std::uint64_t key)
{
    Addr vaddr = m.map->valueAddr(0, key);
    Addr paddr;
    bool is_nvm;
    if (vaddr == 0 || !m.mem.translate(vaddr, paddr, is_nvm) || !is_nvm)
        return 0;
    return lineBase(paddr - kNvmPhysBase);
}

}  // namespace

int
main()
{
    std::printf("=== TVARAK machine ===\n");
    Machine tv(designOf(DesignKind::Tvarak));
    put(tv, 1, 'A');
    tv.mem.flushAll();  // 'A' at rest, redundancy consistent

    // Overwrite with 'B', but the firmware loses the writeback.
    Addr victim_line = findValueLine(tv, 1);
    std::printf("value of key 1 rests at NVM line 0x%llx\n",
                static_cast<unsigned long long>(victim_line));

    auto &nvm = tv.mem.nvmArray();
    auto &dimm = nvm.dimm(nvm.dimmOf(victim_line));
    dimm.injectLostWrite(nvm.mediaAddrOf(victim_line));
    overwrite(tv, 1, 'B');
    tv.mem.dropCaches();  // cold restart: the lost write is now latent
    std::printf("firmware bugs triggered: %llu\n",
                static_cast<unsigned long long>(dimm.bugsTriggered()));
    std::printf("device ECC on the victim line: %s (blind to the bug)\n",
                dimm.eccCheck(nvm.mediaAddrOf(victim_line)) ? "CLEAN"
                                                            : "ERROR");

    char v = get(tv, 1);
    std::printf("get(1) -> '%c'   [detected %llu corruption(s), "
                "recovered %llu line(s) from parity]\n",
                v,
                static_cast<unsigned long long>(
                    tv.mem.stats().corruptionsDetected),
                static_cast<unsigned long long>(
                    tv.mem.stats().recoveries));

    std::printf("\n=== Baseline machine, same bug ===\n");
    Machine base(designOf(DesignKind::Baseline));
    put(base, 1, 'A');
    base.mem.flushAll();
    Addr victim2 = findValueLine(base, 1);
    auto &nvm2 = base.mem.nvmArray();
    nvm2.dimm(nvm2.dimmOf(victim2))
        .injectLostWrite(nvm2.mediaAddrOf(victim2));
    overwrite(base, 1, 'B');
    base.mem.dropCaches();
    std::printf("get(1) -> '%c'   [silent corruption: the application "
                "sees stale data]\n",
                get(base, 1));
    return 0;
}
