/**
 * @file
 * Table printers for the bench binaries: each Fig 8 panel group prints
 * one table per plotted quantity (runtime, energy, NVM accesses split
 * data/redundancy, cache accesses), with values normalized to
 * Baseline exactly as the paper's bar charts are.
 */

#pragma once

#include <string>
#include <vector>

#include "harness/runner.hh"

namespace tvarak {

/**
 * One cluster of bars: a workload under every measured design. The
 * runs are kept in report column order: the four paper designs first,
 * then every other registered design, in registry order.
 */
struct FigureRow {
    std::string workload;
    std::vector<RunResult> results;

    /** Insert @p run at its column; at most one run per design. */
    void add(RunResult run);
    /** The run under @p design, or nullptr if it was not measured. */
    const RunResult *find(const Design &design) const;
};

/** Print all four panels (runtime/energy/NVM/cache) of a Fig 8 group. */
void printFigureGroup(const std::string &caption,
                      const std::vector<FigureRow> &rows);

/**
 * Print the resilience-event counters (detection, recovery, degraded
 * mode, rebuild, scrubbing) for every (workload, design) run that saw
 * at least one such event. Runs where nothing failed print nothing, so
 * fault-free benches keep their familiar output; printFigureGroup
 * appends this section automatically when any counter is nonzero.
 */
void printResilienceSection(const std::vector<FigureRow> &rows);

/** Print a single quantity table (used by Fig 9 / Fig 10 benches). */
void printRuntimeTable(const std::string &caption,
                       const std::vector<std::string> &columnNames,
                       const std::vector<std::string> &rowNames,
                       const std::vector<std::vector<double>> &normRuntime);

/** Runtime of @p row's run under @p design over its Baseline run. */
double normRuntime(const FigureRow &row, const Design &design);

/** CSV emission alongside the human tables (for plotting). */
void printFigureCsv(const std::string &figureId,
                    const std::vector<FigureRow> &rows);

/**
 * One measured point of a latency-vs-offered-load sweep. Plain data:
 * the service layer (src/service/, a layer above the harness) fills
 * these in, so the printer stays free of upward dependencies.
 */
struct LatencyPoint {
    std::string design;        //!< display label (registry cliName)
    double loadFrac = 0;       //!< offered / the design's capacity
    double offeredPerMcycle = 0;
    double achievedPerMcycle = 0;
    Cycles p50 = 0;            //!< latency percentiles, sim cycles
    Cycles p99 = 0;
    Cycles p999 = 0;
    Cycles maxLatency = 0;
    bool sustained = false;    //!< achieved kept up with offered
};

/** Print the latency sweep table: one line per (design, load) point,
 *  percentiles in simulated cycles, saturation marked. */
void printLatencySection(const std::string &caption,
                         const std::vector<LatencyPoint> &points);

/** One design's knee-of-the-curve summary line. */
struct KneeRow {
    std::string design;
    double capacityPerMcycle = 0;  //!< closed-loop ceiling
    bool found = false;         //!< false: saturated at every point
    double kneeFrac = 0;
    double kneeAchievedPerMcycle = 0;
    Cycles p999AtKnee = 0;
};

/** Print the knee summary table (one line per design). */
void printKneeTable(const std::string &caption,
                    const std::vector<KneeRow> &rows);

}  // namespace tvarak

