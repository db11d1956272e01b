/**
 * @file
 * TraceSink: the observer interface the access-trace recorder plugs
 * into the simulator with.
 *
 * MemorySystem (and the components that sit above it: DaxFs, PmemPool,
 * RawCoverage) hold a nullable TraceSink pointer and report events to
 * it. The hooks are zero-overhead when recording is off: a single
 * pointer compare per timed API call, no virtual dispatch.
 *
 * The suspend/resume depth counter lets a hook site execute internal
 * work without re-recording its nested timed accesses — e.g. DaxFs
 * records one high-level FsPwrite event and replays the call natively,
 * so the pwrite body's own reads/writes must not be recorded again.
 * SinkSuspend is the RAII guard for that pattern (null-safe, so call
 * sites need no recording-enabled branch).
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tvarak {

struct DirtyRange;

namespace trace {

class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** True while events should be reported (not suspended). */
    bool active() const { return suspendDepth_ == 0; }
    void suspend() { suspendDepth_++; }
    void resume() { suspendDepth_--; }

    /** @name MemorySystem timed-API events */
    /**@{*/
    virtual void onRead(int tid, Addr vaddr, std::size_t len) = 0;
    /** Writes carry their payload: replay must reproduce checksum and
     *  parity contents bit-identically. */
    virtual void onWrite(int tid, Addr vaddr, const void *buf,
                         std::size_t len) = 0;
    virtual void onCompute(int tid, Cycles cycles) = 0;
    virtual void onComputeChecksum(int tid, std::size_t bytes) = 0;
    virtual void onDropCaches() = 0;
    /**@}*/

    /**
     * A redundancy-coverage point (PmemPool::txCommit/coverImmediate,
     * RawCoverage::onWrite). Recorded even when the recording design
     * has no scheme: replay under a TxB design re-executes the
     * scheme's timed work from these ranges.
     *
     * @param runScheme       the replay design's scheme (if any) must
     *                        run onCommit with @p ranges.
     * @param countsTxCommit  the site incremented Stats::txCommits.
     */
    virtual void onCommit(int tid, const std::vector<DirtyRange> &ranges,
                          bool runScheme, bool countsTxCommit) = 0;

    /** @name DaxFs operations (replayed natively; bodies suspended) */
    /**@{*/
    virtual void onFsCreate(const std::string &name, std::size_t bytes,
                            int fd) = 0;
    virtual void onFsDaxMap(int fd) = 0;
    virtual void onFsDaxUnmap(int fd) = 0;
    virtual void onFsRemove(int fd) = 0;
    virtual void onFsPwrite(int tid, int fd, std::size_t offset,
                            const void *buf, std::size_t len) = 0;
    virtual void onFsPread(int tid, int fd, std::size_t offset,
                           std::size_t len) = 0;
    /** DaxFs::initialize (untimed: no nested accesses to suspend). */
    virtual void onFsInit(int fd, std::size_t offset, const void *buf,
                          std::size_t len) = 0;
    /**@}*/

    /** Out-of-band barrier marker (see format.hh for subtypes). */
    virtual void onMarker(std::uint64_t subtype) = 0;

  private:
    int suspendDepth_ = 0;
};

/** Suspend @p sink (if any) for the current scope. */
class SinkSuspend
{
  public:
    explicit SinkSuspend(TraceSink *sink) : sink_(sink)
    {
        if (sink_ != nullptr)
            sink_->suspend();
    }
    ~SinkSuspend()
    {
        if (sink_ != nullptr)
            sink_->resume();
    }
    SinkSuspend(const SinkSuspend &) = delete;
    SinkSuspend &operator=(const SinkSuspend &) = delete;

  private:
    TraceSink *sink_;
};

}  // namespace trace
}  // namespace tvarak
