/**
 * @file
 * nvmctl: an operator's tour of the storage stack — layout inspection,
 * fault injection, scrubbing and repair, the kind of tooling a
 * deployment of TVARAK-protected NVM would ship with.
 *
 *   ./build/examples/nvmctl
 */

#include <cstdio>
#include <cstring>

#include "fs/dax_fs.hh"
#include "mem/memory_system.hh"
#include "redundancy/registry.hh"
#include "sim/rng.hh"

using namespace tvarak;

int
main()
{
    SimConfig cfg;
    cfg.nvm.dimmBytes = 64ull << 20;
    cfg.dram.sizeBytes = 64ull << 20;
    MemorySystem mem(cfg, designOf(DesignKind::Tvarak));
    DaxFs fs(mem);
    const Layout &layout = mem.layout();

    std::printf("== layout ==\n");
    std::printf("NVM array: %zu DIMMs x %zu MB, %zu-wide RAID-5 "
                "stripes\n",
                mem.nvmArray().numDimms(), cfg.nvm.dimmBytes >> 20,
                layout.dimms());
    std::printf("page-checksum region:  [0x%08llx, 0x%08llx)\n",
                0ull,
                static_cast<unsigned long long>(layout.daxClBase()));
    std::printf("DAX-CL-checksum region:[0x%08llx, 0x%08llx)\n",
                static_cast<unsigned long long>(layout.daxClBase()),
                static_cast<unsigned long long>(layout.dataBase()));
    std::printf("data region:           [0x%08llx, 0x%08llx), "
                "%zu stripes\n",
                static_cast<unsigned long long>(layout.dataBase()),
                static_cast<unsigned long long>(layout.end()),
                layout.stripes());

    std::printf("\n== create and fill a volume ==\n");
    int fd = fs.create("volume", 128 * kPageBytes);
    Addr base = fs.daxMap(fd);
    Rng rng(42);
    for (int i = 0; i < 4096; i++) {
        mem.write64(0, base + rng.nextBounded(128 * kPageBytes - 8),
                    rng.next());
    }
    mem.flushAll();
    std::printf("512 KB volume, 4096 random writes, flushed.\n");
    std::printf("scrub: %zu bad lines, parity: %zu bad stripes\n",
                fs.scrub(false), fs.verifyParity());

    std::printf("\n== simulate a firmware corruption event ==\n");
    // Corrupt five random at-rest lines behind everyone's back (the
    // aftermath of, say, a misdirected-write firmware bug burst).
    auto &nvm = mem.nvmArray();
    std::uint8_t junk[kLineBytes];
    std::memset(junk, 0x66, sizeof(junk));
    for (int i = 0; i < 5; i++) {
        Addr page = fs.filePage(
            fd, rng.nextBounded(fs.filePages(fd)));
        Addr line = page + rng.nextBounded(kLinesPerPage) * kLineBytes;
        nvm.dimm(nvm.dimmOf(line))
            .rawWrite(nvm.mediaAddrOf(line), junk, kLineBytes);
    }
    std::size_t bad = fs.scrub(false);
    std::printf("scrub detects %zu corrupted lines\n", bad);

    std::printf("\n== repair from cross-DIMM parity ==\n");
    fs.scrub(true);
    std::printf("after repair: %zu bad lines, %zu bad stripes, "
                "%llu lines rebuilt\n",
                fs.scrub(false), fs.verifyParity(),
                static_cast<unsigned long long>(
                    mem.stats().recoveries));

    std::printf("\n== per-DIMM occupancy of this session ==\n");
    for (std::size_t d = 0; d < mem.stats().dimmBusyCycles.size();
         d++) {
        std::printf("  DIMM %zu: %llu busy cycles\n", d,
                    static_cast<unsigned long long>(
                        mem.stats().dimmBusyCycles[d]));
    }
    return 0;
}
