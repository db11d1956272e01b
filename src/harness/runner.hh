/**
 * @file
 * Experiment runner: builds a machine, runs a workload set under one
 * registered redundancy Design, returns the Fig 8 quantities. The
 * result carries that Design, so every variant keeps its identity in
 * reports, JSON and tool output.
 */

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "harness/workload.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace tvarak {

class Design;

/** Everything the paper plots, for one (workload, design) run. */
struct RunResult {
    const Design *design = nullptr;  //!< the registered design run
    Cycles runtimeCycles = 0;
    double runtimeMs = 0;
    double energyMj = 0;            //!< millijoules
    std::uint64_t nvmDataAccesses = 0;
    std::uint64_t nvmRedAccesses = 0;
    std::uint64_t cacheAccesses = 0;  //!< L1+L2+LLC+on-TVARAK
    Stats stats{1, 1};
};

/**
 * A bundle of per-thread workloads plus optional shared state that
 * must live as long as they do (shared pools, schemes, drivers).
 */
struct WorkloadSet {
    std::vector<std::unique_ptr<Workload>> workloads;
    /** Opaque keep-alive for state shared between the workloads. */
    std::shared_ptr<void> shared;
    /** Runs after all setup() calls, before stats reset — e.g.
     *  MemorySystem::dropCaches for cold-start workloads (fio). */
    std::function<void(MemorySystem &)> beforeMeasure;
};

/** Builds the workload set against a fresh machine. */
using WorkloadFactory =
    std::function<WorkloadSet(MemorySystem &, DaxFs &)>;

/**
 * Optional observation points in runExperiment, in call order. All
 * default to absent; the trace recorder (src/trace/) is the client.
 */
struct RunHooks {
    /** After machine + file system construction, before setup(). */
    std::function<void(MemorySystem &, DaxFs &)> onMachine;
    /** After beforeMeasure, immediately before the stats reset. */
    std::function<void(MemorySystem &)> beforeReset;
    /** After every round-robin scheduling pass over the workload set,
     *  with the number of passes completed so far (1-based). Lets a
     *  driver inject faults or run maintenance (rebuild, scrubbing)
     *  interleaved with the measured run. */
    std::function<void(MemorySystem &, std::size_t)> onStep;
    /** After the last step(), immediately before the final flushAll. */
    std::function<void(MemorySystem &)> beforeFlush;
};

/**
 * Run @p make's workloads to completion under @p design (any
 * registered Design, variants included).
 *
 * Order: build machine -> setup() all -> stats reset -> round-robin
 * step() until all done -> flushAll() (the writeback tail is part of
 * the measured NVM occupancy) -> collect.
 */
RunResult runExperiment(const SimConfig &cfg, const Design &design,
                        const WorkloadFactory &make);

/** As above, with observation hooks. */
RunResult runExperiment(const SimConfig &cfg, const Design &design,
                        const WorkloadFactory &make,
                        const RunHooks &hooks);

}  // namespace tvarak

