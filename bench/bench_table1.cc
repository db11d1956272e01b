/**
 * @file
 * Table I: trade-offs among the DAX NVM storage redundancy designs.
 * The qualitative rows come from the paper; the measured column is
 * produced live by running a small write-heavy workload (C-Tree
 * insert-only) under every design on this build.
 */

#include <cstdio>
#include <string>

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
        const Design *measuredAs;  //!< nullptr: no runnable model
        const char *gran, *update, *verify;
    };
    const QualRow qual[] = {
        {"Nova-Fortis/Plexistore", nullptr, "page",
         "no updates while mapped", "none while mapped"},
        {"Mojim/HotPot (TxB-Page)", &designOf(DesignKind::TxBPageCsums),
         "page", "on application flush", "background scrubbing"},
        {"Pangolin (TxB-Object)", &designOf(DesignKind::TxBObjectCsums),
         "object", "on application flush", "on NVM->DRAM copy"},
        // Measured when swept: pass --design vilamb (epoch details in
        // bench_vilamb).
        {"Vilamb", &designOf(DesignKind::Vilamb), "page", "periodically",
         "background scrubbing"},
        {"TVARAK", &designOf(DesignKind::Tvarak), "page (CL while mapped)",
         "on LLC->NVM writeback", "on NVM->LLC read"},
    };
    auto overhead = [&row](const RunResult &r) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%+.1f%%",
                      (normRuntime(row, *r.design) - 1.0) * 100.0);
        return std::string(buf);
    };
    auto printRow = [](const char *design, const char *gran,
                       const char *update, const char *verify,
                       const std::string &measured) {
        std::printf("%-22s %-12s %-26s %-26s %-18s\n", design, gran,
                    update, verify, measured.c_str());
    };
    for (const QualRow &q : qual) {
        std::string measured = "- (not built)";
        if (q.measuredAs != nullptr) {
            const RunResult *r = row.find(*q.measuredAs);
            measured = r != nullptr ? overhead(*r) : "- (not swept)";
        }
        printRow(q.design, q.gran, q.update, q.verify, measured);
    }
    // Swept designs without a qualitative row (e.g. tvarak-naive):
    // measured overhead only, under the design's own name.
    for (const RunResult &r : row.results) {
        bool listed = r.design == &designOf(DesignKind::Baseline);
        for (const QualRow &q : qual)
            listed = listed || q.measuredAs == r.design;
        if (!listed)
            printRow(r.design->displayName(), "-", "-", "-", overhead(r));
    }
    std::printf("\n(coverage semantics per paper Table I; 'measured "
                "overhead' is this build's C-Tree insert-only runtime "
                "vs Baseline)\n");
    writeBenchJson(args, jsonEntries({row}));
    return 0;
}
