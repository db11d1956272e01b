/**
 * @file
 * DaxFs: the NVM file system that cooperates with TVARAK.
 *
 * Responsibilities (paper Sections II-B, III-B):
 *
 *  - allocate files over the RAID-5 data pages (virtually contiguous,
 *    physically skipping parity pages, Fig 3);
 *  - dax_map / dax_unmap: register/unregister file pages with the
 *    TVARAK engine and convert between page-granular system-checksums
 *    (held while a file is only reachable through FS calls) and
 *    DAX-CL-checksums (held while it is DAX mapped);
 *  - a Nova-Fortis-style non-DAX I/O path (pread/pwrite) that updates
 *    and verifies page system-checksums and parity in software;
 *  - scrubbing and recovery entry points.
 *
 * Files are always present in the DAX page table (the kernel direct
 * map); daxMap() only flips redundancy-coverage state and hands the
 * application its virtual base address.
 *
 * The namespace persists in a superblock (the first data page), so a
 * DaxFs constructed over an existing NVM image (see
 * MemorySystem::loadNvmImage) rediscovers its files — files come back
 * unmapped, exactly like a real DAX file system after reboot.
 */

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/types.hh"

namespace tvarak {

class DaxFs
{
  public:
    explicit DaxFs(MemorySystem &mem);

    /** @name Namespace & allocation */
    /**@{*/
    /** Create a file of @p bytes (page-rounded), zero-filled.
     *  @return file descriptor. */
    int create(const std::string &name, std::size_t bytes);
    /** Look up an existing file. @return fd or -1. */
    int open(const std::string &name) const;
    /**
     * Delete a file: unmaps it if mapped, zeroes its pages (with the
     * parity/page-checksum updates that implies) and recycles them
     * for future create() calls. The fd becomes invalid.
     */
    void remove(int fd);
    std::size_t fileBytes(int fd) const;
    std::size_t filePages(int fd) const;
    /**@}*/

    /** @name DAX mapping */
    /**@{*/
    /**
     * Map the file into the application's address space. Registers
     * every page with TVARAK and installs DAX-CL-checksums (the
     * map-time checksum conversion is software work outside the
     * measured steady state and is untimed).
     * @return virtual base address of the mapping.
     */
    Addr daxMap(int fd);
    /** Flush the file's dirty lines and convert checksums back to
     *  page granularity; unregisters from TVARAK. */
    void daxUnmap(int fd);
    bool isMapped(int fd) const;
    /** Virtual base address (valid whether or not DAX mapped). */
    Addr vbase(int fd) const;
    /**@}*/

    /**
     * Cold-start initialisation of a mapped file: write @p len bytes
     * at @p offset straight into the state that timed writes, their
     * writebacks and a dropCaches would leave — media, current values
     * and the design's redundancy at rest (DESIGN.md §3, "Cold-start
     * initialisation"). Untimed and charge-free, so it fits set-up
     * that a dropCaches closes before measurement. Panics if the file
     * is unmapped, a DIMM is degraded, or a cache holds dirty one of
     * the data, checksum or parity lines it writes.
     */
    void initialize(int fd, std::size_t offset, const void *buf,
                    std::size_t len);

    /** @name Non-DAX I/O path (page system-checksums in software) */
    /**@{*/
    void pwrite(int tid, int fd, std::size_t offset, const void *buf,
                std::size_t len);
    /** @return false if a verification failed and recovery also
     *  failed (never expected under the single-fault model). */
    bool pread(int tid, int fd, std::size_t offset, void *buf,
               std::size_t len);
    /**@}*/

    /** @name Integrity utilities (untimed) */
    /**@{*/
    /**
     * Verify every page of every file against its at-rest redundancy
     * (DAX-CL-checksums for mapped files, page checksums otherwise).
     * Call flushAll() first for a meaningful at-rest check.
     * @param repair  rebuild corrupted lines from parity.
     * @return number of corrupted lines found.
     */
    std::size_t scrub(bool repair);
    /** Verify the stripe parity invariant over all allocated stripes.
     *  @return number of violating stripes (0 after a flush). */
    std::size_t verifyParity();
    /**@}*/

    /** NVM-global address of file page @p pageIdx. */
    Addr filePage(int fd, std::size_t pageIdx) const;

    /** Number of files ever created (fds; removed slots included). */
    std::size_t fileSlots() const { return files_.size(); }
    /** True iff @p fd still names a live file. */
    bool fdLive(int fd) const;
    /** Allocation high-water mark in vpages (superblock excluded).
     *  Page-checksum slots of vpages at or above this were never
     *  written; the rebuild engine restores them to zero. */
    std::size_t vpageCursor() const { return nextDataPage_; }

    /**
     * Scrub one page of one file against its at-rest redundancy
     * (the per-page unit the background Scrubber iterates). Skips —
     * without counting — pages whose data or checksum storage is
     * degraded: those are served by reconstruction until the rebuild
     * engine passes them. Updates the scrubLines/scrubRepairs stats.
     * @return number of corrupted lines found.
     */
    std::size_t scrubPage(int fd, std::size_t pageIdx, bool repair);
    /** True iff @p fd's redundancy coverage is scrubbable under the
     *  active design (Table I). */
    bool scrubbable(int fd) const;

    /** Rebuild one file page from parity (untimed).
     *  @return true if the page verifies after repair. */
    bool recoverPage(int fd, std::size_t pageIdx);

  private:
    struct File {
        std::string name;
        std::size_t bytes;
        std::size_t firstVpage;  //!< contiguous vpage range
        std::size_t pages;
        bool mapped = false;
    };

    const File &file(int fd) const;
    /** NVM-global page backing vpage index @p vpage. */
    Addr pageOfVpage(std::size_t vpage) const;
    /** Recompute + store (raw) the page checksum of @p nvmPage. */
    void writePageChecksumRaw(Addr nvmPage);
    /** Software page-checksum update for the timed pwrite path. */
    void updatePageChecksum(int tid, Addr vpageBase, Addr nvmPage);

    /** Claim @p pages contiguous vpages (free list first). */
    std::size_t allocVpages(std::size_t pages);
    /** Persist the namespace to the superblock page (raw). */
    void writeSuperblock();
    /** Load the namespace from the superblock, if one exists. */
    void loadSuperblock();

    MemorySystem &mem_;
    std::vector<File> files_;
    std::unordered_map<std::string, int> byName_;
    std::size_t nextDataPage_ = 0;  //!< allocation cursor
    /** Recycled extents: (firstVpage, pages). */
    std::vector<std::pair<std::size_t, std::size_t>> freeExtents_;
};

}  // namespace tvarak

