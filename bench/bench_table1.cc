/**
 * @file
 * Table I: trade-offs among the DAX NVM storage redundancy designs.
 * The qualitative rows come from the paper; the measured column is
 * produced live by running a small write-heavy workload (C-Tree
 * insert-only) under every design on this build.
 */

#include <cstdio>

#include "apps/trees/tree_workload.hh"
#include "bench_common.hh"

using namespace tvarak;
using namespace tvarak::bench;

namespace {

WorkloadFactory
smallInsertFactory()
{
    return [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        TreeWorkload::Params p;
        p.kind = MapKind::CTree;
        p.mix = TreeWorkload::Mix::InsertOnly;
        p.preload = 8192;
        p.ops = 8192;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<TreeWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        return set;
    };
}

}  // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(
        argc, argv, "Table I: design-space trade-offs", "table1");
    SimConfig cfg = evalConfig();
    FigureRow row = sweepDesigns("ctree-insert-only", cfg,
                                 smallInsertFactory(), args);

    std::printf(
        "\n== Table I: trade-offs among DAX NVM redundancy designs ==\n"
        "%-22s %-12s %-26s %-26s %-18s\n",
        "design", "csum gran.", "update for DAX data", "verification",
        "measured overhead");
    struct QualRow {
        const char *design;
        DesignKind kind;
        bool measured;
        const char *gran, *update, *verify;
    };
    const QualRow qual[] = {
        {"Nova-Fortis/Plexistore", DesignKind::Baseline, false, "page",
         "no updates while mapped", "none while mapped"},
        {"Mojim/HotPot (TxB-Page)", DesignKind::TxBPageCsums, true,
         "page", "on application flush", "background scrubbing"},
        {"Pangolin (TxB-Object)", DesignKind::TxBObjectCsums, true,
         "object", "on application flush", "on NVM->DRAM copy"},
        // Measured when swept: pass --design vilamb (epoch details in
        // bench_vilamb).
        {"Vilamb", DesignKind::Vilamb, true, "page", "periodically",
         "background scrubbing"},
        {"TVARAK", DesignKind::Tvarak, true, "page (CL while mapped)",
         "on LLC->NVM writeback", "on NVM->LLC read"},
    };
    double base =
        static_cast<double>(row.results[DesignKind::Baseline]
                                .runtimeCycles);
    for (const QualRow &q : qual) {
        char measured[32] = "- (not built)";
        if (q.measured && row.results.count(q.kind) != 0) {
            double r = static_cast<double>(
                           row.results[q.kind].runtimeCycles) /
                base;
            std::snprintf(measured, sizeof(measured), "%+.1f%%",
                          (r - 1.0) * 100.0);
        } else if (q.measured) {
            std::snprintf(measured, sizeof(measured),
                          "- (not swept)");
        }
        std::printf("%-22s %-12s %-26s %-26s %-18s\n", q.design, q.gran,
                    q.update, q.verify, measured);
    }
    std::printf("\n(coverage semantics per paper Table I; 'measured "
                "overhead' is this build's C-Tree insert-only runtime "
                "vs Baseline)\n");
    writeBenchJson(args, jsonEntries({row}));
    return 0;
}
