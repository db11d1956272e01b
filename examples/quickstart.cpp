/**
 * @file
 * Quickstart: build a TVARAK-protected machine, DAX-map a file, do
 * some I/O, and look at what the redundancy controller did.
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <cstring>
#include <iostream>

#include "fs/dax_fs.hh"
#include "mem/memory_system.hh"
#include "redundancy/registry.hh"

using namespace tvarak;

int
main()
{
    // 1. A Table III machine (12 cores, 24 MB LLC, 4 NVM DIMMs) with
    //    the TVARAK controllers enabled. findDesign("baseline"),
    //    "txb-object-csums", "vilamb" or any other registered name
    //    selects a comparison design.
    SimConfig cfg;
    cfg.nvm.dimmBytes = 64ull << 20;
    cfg.dram.sizeBytes = 64ull << 20;
    MemorySystem mem(cfg, designOf(DesignKind::Tvarak));
    DaxFs fs(mem);

    // 2. Create a file and DAX-map it. The file system registers every
    //    page with TVARAK and installs DAX-CL-checksums; from here on,
    //    loads/stores through `mem` are hardware-protected.
    int fd = fs.create("mydata", 256 * kPageBytes);
    Addr base = fs.daxMap(fd);
    std::printf("mapped 1 MB file at vaddr 0x%llx\n",
                static_cast<unsigned long long>(base));

    // 3. Direct access: ordinary loads and stores, no system calls.
    const int tid = 0;
    const char msg[] = "hello, direct-access NVM";
    mem.write(tid, base + 4096, msg, sizeof(msg));
    char back[sizeof(msg)] = {};
    mem.read(tid, base + 4096, back, sizeof(back));
    std::printf("read back: \"%s\"\n", back);

    // 4. Dirty data reaches the NVM media on writeback; TVARAK updates
    //    checksums and cross-DIMM parity on the way out.
    mem.flushAll();
    std::printf("after flush: %llu redundancy updates, "
                "%llu verified fills\n",
                static_cast<unsigned long long>(
                    mem.stats().redundancyUpdates),
                static_cast<unsigned long long>(
                    mem.stats().readVerifications));

    // 5. The at-rest invariants the FS can check any time:
    std::printf("scrub: %zu corrupted lines, parity: %zu bad stripes\n",
                fs.scrub(false), fs.verifyParity());

    // 6. The full Fig 8-style statistics block:
    std::printf("\n-- statistics --\n");
    mem.stats().dump(std::cout);
    return 0;
}
