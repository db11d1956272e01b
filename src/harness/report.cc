#include "harness/report.hh"

#include <algorithm>
#include <cstdio>

#include "redundancy/registry.hh"
#include "sim/log.hh"

namespace tvarak {

namespace {

/** Every registered design in report column order: the paper four,
 *  then the rest in registry order. */
std::vector<const Design *>
columnOrder()
{
    std::vector<const Design *> order = paperDesigns();
    for (const Design *d : allRegisteredDesigns()) {
        if (std::find(order.begin(), order.end(), d) == order.end())
            order.push_back(d);
    }
    return order;
}

const RunResult &
baselineOf(const FigureRow &row)
{
    // Paper order starts with Baseline (the normalization reference).
    const RunResult *base = row.find(*paperDesigns().front());
    panic_if(base == nullptr, "row %s lacks a Baseline run",
             row.workload.c_str());
    return *base;
}

/**
 * Report columns: the paper's four designs, plus any other registered
 * design (e.g. Vilamb, tvarak-naive) that actually appears in @p rows,
 * in registry order. Keeps the classic four-column layout
 * byte-identical while extra designs opt in by being measured.
 */
std::vector<const Design *>
columns(const std::vector<FigureRow> &rows)
{
    std::vector<const Design *> cols = paperDesigns();
    for (const Design *d : columnOrder()) {
        if (std::find(cols.begin(), cols.end(), d) != cols.end())
            continue;
        bool present = false;
        for (const FigureRow &row : rows)
            present = present || row.find(*d) != nullptr;
        if (present)
            cols.push_back(d);
    }
    return cols;
}

void
printPanel(const char *title, const std::vector<FigureRow> &rows,
           double (*value)(const RunResult &))
{
    std::vector<const Design *> cols = columns(rows);
    std::printf("\n  %s (normalized to Baseline)\n", title);
    std::printf("  %-26s", "workload");
    for (const Design *d : cols)
        std::printf(" %18s", d->displayName());
    std::printf("\n");
    for (const FigureRow &row : rows) {
        double base = value(baselineOf(row));
        std::printf("  %-26s", row.workload.c_str());
        for (const Design *d : cols) {
            const RunResult *r = row.find(*d);
            if (r == nullptr)
                std::printf(" %18s", "-");
            else
                std::printf(" %18.3f", base > 0 ? value(*r) / base : 0.0);
        }
        std::printf("\n");
    }
}

double runtimeValue(const RunResult &r)
{
    return static_cast<double>(r.runtimeCycles);
}
double energyValue(const RunResult &r) { return r.energyMj; }
double nvmValue(const RunResult &r)
{
    return static_cast<double>(r.nvmDataAccesses + r.nvmRedAccesses);
}
double cacheValue(const RunResult &r)
{
    return static_cast<double>(r.cacheAccesses);
}

bool
sawResilienceEvents(const Stats &s)
{
    return s.corruptionsDetected || s.recoveries || s.degradedReads ||
        s.degradedReadsMulti || s.degradedWritesDropped ||
        s.degradedRedSkips || s.rebuildLines || s.rebuildRestarts ||
        s.scrubLines || s.scrubRepairs;
}

}  // namespace

void
FigureRow::add(RunResult run)
{
    panic_if(run.design == nullptr || find(*run.design) != nullptr,
             "row %s: a run needs a design not yet in the row",
             workload.c_str());
    std::vector<const Design *> order = columnOrder();
    auto rank = [&order](const RunResult &r) {
        return std::find(order.begin(), order.end(), r.design) -
            order.begin();
    };
    auto at = std::find_if(results.begin(), results.end(),
                           [&](const RunResult &r) {
                               return rank(r) > rank(run);
                           });
    results.insert(at, std::move(run));
}

const RunResult *
FigureRow::find(const Design &design) const
{
    for (const RunResult &r : results) {
        if (r.design == &design)
            return &r;
    }
    return nullptr;
}

double
normRuntime(const FigureRow &row, const Design &design)
{
    const RunResult *r = row.find(design);
    panic_if(r == nullptr, "row %s lacks a %s run", row.workload.c_str(),
             design.displayName());
    return static_cast<double>(r->runtimeCycles) /
        static_cast<double>(baselineOf(row).runtimeCycles);
}

void
printFigureGroup(const std::string &caption,
                 const std::vector<FigureRow> &rows)
{
    std::printf("\n== %s ==\n", caption.c_str());
    printPanel("Runtime", rows, runtimeValue);
    printPanel("Energy", rows, energyValue);
    printPanel("NVM accesses", rows, nvmValue);
    printPanel("Cache accesses", rows, cacheValue);

    std::printf("\n  NVM access split (absolute, data + redundancy)\n");
    for (const FigureRow &row : rows) {
        for (const RunResult &r : row.results) {
            std::printf("  %-26s %-18s data=%-12llu red=%llu\n",
                        row.workload.c_str(), r.design->displayName(),
                        static_cast<unsigned long long>(
                            r.nvmDataAccesses),
                        static_cast<unsigned long long>(
                            r.nvmRedAccesses));
        }
    }

    printResilienceSection(rows);
}

void
printResilienceSection(const std::vector<FigureRow> &rows)
{
    bool any = false;
    for (const FigureRow &row : rows)
        for (const RunResult &r : row.results)
            any = any || sawResilienceEvents(r.stats);
    if (!any)
        return;

    std::printf("\n  Resilience events (absolute; faults, recovery, "
                "degraded mode)\n");
    for (const FigureRow &row : rows) {
        for (const RunResult &r : row.results) {
            if (!sawResilienceEvents(r.stats))
                continue;
            const Stats &s = r.stats;
            // dread counts degraded reads served with one DIMM down,
            // mread those served with >= 2 down (the erasure-coded
            // designs' extra budget); restart counts rebuild sweeps
            // aborted by a fault landing mid-rebuild.
            std::printf("  %-26s %-18s det=%-8llu rec=%-8llu "
                        "dread=%-8llu mread=%-8llu wdrop=%-8llu "
                        "rskip=%-8llu rebuild=%-10llu restart=%-4llu "
                        "scrub=%-10llu fix=%llu\n",
                        row.workload.c_str(), r.design->displayName(),
                        static_cast<unsigned long long>(
                            s.corruptionsDetected),
                        static_cast<unsigned long long>(s.recoveries),
                        static_cast<unsigned long long>(s.degradedReads),
                        static_cast<unsigned long long>(
                            s.degradedReadsMulti),
                        static_cast<unsigned long long>(
                            s.degradedWritesDropped),
                        static_cast<unsigned long long>(
                            s.degradedRedSkips),
                        static_cast<unsigned long long>(s.rebuildLines),
                        static_cast<unsigned long long>(
                            s.rebuildRestarts),
                        static_cast<unsigned long long>(s.scrubLines),
                        static_cast<unsigned long long>(s.scrubRepairs));
        }
    }
}

void
printFigureCsv(const std::string &figureId,
               const std::vector<FigureRow> &rows)
{
    std::printf("\ncsv,%s,workload,design,runtime_cycles,norm_runtime,"
                "energy_mj,nvm_data,nvm_red,cache_accesses\n",
                figureId.c_str());
    for (const FigureRow &row : rows) {
        double base =
            static_cast<double>(baselineOf(row).runtimeCycles);
        for (const RunResult &r : row.results) {
            std::printf(
                "csv,%s,%s,%s,%llu,%.4f,%.4f,%llu,%llu,%llu\n",
                figureId.c_str(), row.workload.c_str(),
                r.design->displayName(),
                static_cast<unsigned long long>(r.runtimeCycles),
                static_cast<double>(r.runtimeCycles) / base, r.energyMj,
                static_cast<unsigned long long>(r.nvmDataAccesses),
                static_cast<unsigned long long>(r.nvmRedAccesses),
                static_cast<unsigned long long>(r.cacheAccesses));
        }
    }
}

void
printRuntimeTable(const std::string &caption,
                  const std::vector<std::string> &columnNames,
                  const std::vector<std::string> &rowNames,
                  const std::vector<std::vector<double>> &normRuntime)
{
    std::printf("\n== %s ==\n  %-26s", caption.c_str(), "workload");
    for (const auto &c : columnNames)
        std::printf(" %16s", c.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < rowNames.size(); i++) {
        std::printf("  %-26s", rowNames[i].c_str());
        for (double v : normRuntime[i])
            std::printf(" %16.3f", v);
        std::printf("\n");
    }
}

void
printLatencySection(const std::string &caption,
                    const std::vector<LatencyPoint> &points)
{
    std::printf("\n== %s ==\n", caption.c_str());
    std::printf("  %-20s %6s %12s %12s %10s %10s %10s %12s %4s\n",
                "design", "load", "offered/Mc", "achieved/Mc", "p50",
                "p99", "p999", "max", "sat");
    const std::string *prev = nullptr;
    for (const LatencyPoint &p : points) {
        if (prev != nullptr && *prev != p.design)
            std::printf("\n");
        prev = &p.design;
        std::printf("  %-20s %6.2f %12.2f %12.2f %10llu %10llu %10llu "
                    "%12llu %4s\n",
                    p.design.c_str(), p.loadFrac, p.offeredPerMcycle,
                    p.achievedPerMcycle,
                    static_cast<unsigned long long>(p.p50),
                    static_cast<unsigned long long>(p.p99),
                    static_cast<unsigned long long>(p.p999),
                    static_cast<unsigned long long>(p.maxLatency),
                    p.sustained ? "" : "SAT");
    }
}

void
printKneeTable(const std::string &caption,
               const std::vector<KneeRow> &rows)
{
    std::printf("\n== %s ==\n", caption.c_str());
    std::printf("  %-20s %12s %10s %14s %12s\n", "design",
                "capacity/Mc", "knee load", "achieved/Mc", "p999@knee");
    for (const KneeRow &r : rows) {
        if (!r.found) {
            std::printf("  %-20s %12.2f %10s %14s %12s\n",
                        r.design.c_str(), r.capacityPerMcycle, "-",
                        "saturated", "-");
            continue;
        }
        std::printf("  %-20s %12.2f %10.2f %14.2f %12llu\n",
                    r.design.c_str(), r.capacityPerMcycle, r.kneeFrac,
                    r.kneeAchievedPerMcycle,
                    static_cast<unsigned long long>(r.p999AtKnee));
    }
}

}  // namespace tvarak
