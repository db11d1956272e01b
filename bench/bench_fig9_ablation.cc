/**
 * @file
 * Figure 9: impact of TVARAK's design choices. Starting from the
 * naive redundancy controller (page-granular checksums recomputed by
 * reading whole pages, no redundancy caching, old-data reads instead
 * of diffs), the optimizations are enabled cumulatively:
 *
 *   naive -> +DAX-CL-checksums -> +redundancy caching -> +data diffs
 *
 * The last configuration is full TVARAK; the one before it (diffs
 * off) is also the recommended configuration for exclusive-LLC
 * systems (paper Section IV-G).
 *
 * Expected shape: every step helps Redis, C-Tree and stream-triad;
 * redundancy caching and data diffs *hurt* N-Store and fio random
 * writes (taking LLC space from application data buys nothing when
 * redundancy lines have no reuse).
 */

#include "bench_workloads.hh"

using namespace tvarak;
using namespace tvarak::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(
        argc, argv, "Fig 9: TVARAK design-choice ablation",
        "fig9_ablation", SweepFlags::None);

    // The cumulative ablation points are registered design variants
    // (each owns its TvarakLadder point); the classic Fig-9 column
    // labels stay as output labels.
    struct Config {
        const char *name;
        const Design *design;
    };
    const std::vector<Config> configs = {
        {"naive", findDesign("tvarak-naive")},
        {"+dax-cl-csums", findDesign("tvarak-no-red-cache")},
        {"+red-caching", findDesign("tvarak-no-diffs")},
        {"+data-diffs (TVARAK)", findDesign("tvarak")},
    };

    std::vector<WorkloadSpec> specs;
    for (const auto &w : fig9Workloads(args.scale)) {
        SimConfig cfg = evalConfig();
        cfg.nvm.dimmBytes = w.dimmBytes;
        specs.push_back({w.name, cfg, w.factory});
    }
    std::vector<const Design *> designs = {&designOf(DesignKind::Baseline)};
    for (const Config &c : configs)
        designs.push_back(c.design);
    std::vector<FigureRow> rows = sweepRows(specs, designs, args.jobs);

    std::vector<std::string> row_names;
    std::vector<std::vector<double>> table;
    std::vector<BenchJsonEntry> entries;
    for (const FigureRow &fr : rows) {
        entries.push_back(jsonEntry(fr.workload, "baseline",
                                    *fr.find(*designs.front()), 1.0));
        std::vector<double> row;
        for (const Config &c : configs) {
            double norm = normRuntime(fr, *c.design);
            row.push_back(norm);
            entries.push_back(
                jsonEntry(fr.workload, c.name, *fr.find(*c.design), norm));
        }
        row_names.push_back(fr.workload);
        table.push_back(row);
    }

    std::vector<std::string> columns;
    for (const Config &c : configs)
        columns.emplace_back(c.name);
    printRuntimeTable(
        "Figure 9: design ablation (runtime / Baseline)", columns,
        row_names, table);

    std::printf("\ncsv,fig9,workload");
    for (const Config &c : configs)
        std::printf(",%s", c.name);
    std::printf("\n");
    for (std::size_t i = 0; i < row_names.size(); i++) {
        std::printf("csv,fig9,%s", row_names[i].c_str());
        for (double v : table[i])
            std::printf(",%.4f", v);
        std::printf("\n");
    }
    writeBenchJson(args, entries);
    return 0;
}
