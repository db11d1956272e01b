/**
 * @file
 * Table I extension: the Vilamb row. Vilamb trades coverage for a
 * *configurable* overhead by batching page-granular redundancy work
 * over epochs. This bench sweeps the epoch length on a C-Tree
 * insert-only workload and prints the overhead alongside TVARAK's —
 * quantifying Table I's qualitative entries (Vilamb: configurable
 * overhead with vulnerability windows; TVARAK: low overhead, no
 * windows).
 */

#include <memory>

#include "apps/trees/tree_workload.hh"
#include "bench_common.hh"
#include "redundancy/vilamb.hh"

using namespace tvarak;
using namespace tvarak::bench;

namespace {

WorkloadFactory
treeFactory(RedundancyScheme *sharedScheme, std::size_t scale)
{
    return [sharedScheme, scale](MemorySystem &mem,
                                 DaxFs &fs) -> WorkloadSet {
        // For Vilamb rows the scheme is built per-machine outside;
        // for design rows fall back to the design's own scheme.
        auto own = mem.designObj().makeScheme(mem);
        RedundancyScheme *scheme =
            sharedScheme != nullptr ? sharedScheme : own.get();
        WorkloadSet set;
        TreeWorkload::Params p;
        p.kind = MapKind::CTree;
        // Update-only: transactions re-dirty the same value pages, the
        // access pattern Vilamb's epoch batching amortizes best.
        p.mix = TreeWorkload::Mix::UpdateOnly;
        p.preload = 8192 * scale;
        p.ops = 16384 * scale;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<TreeWorkload>(
                mem, fs, t, scheme, p));
        }
        set.shared = std::shared_ptr<void>(
            own.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        return set;
    };
}

/** Vilamb runs over the TxB-Page machine model (software,
 *  page-granular), differing only in *when* it does the work. */
WorkloadFactory
vilambFactory(std::size_t epoch, std::size_t scale)
{
    return [epoch, scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = std::make_shared<VilambAsyncCsums>(mem, epoch);
        WorkloadSet set;
        TreeWorkload::Params p;
        p.kind = MapKind::CTree;
        p.mix = TreeWorkload::Mix::UpdateOnly;
        p.preload = 8192 * scale;
        p.ops = 16384 * scale;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<TreeWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = scheme;
        return set;
    };
}

}  // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(
        argc, argv, "Table I extension: Vilamb epoch sweep vs TVARAK",
        "vilamb");
    SimConfig cfg = evalConfig();
    const std::vector<std::size_t> epochs = {1, 16, 64, 256};

    // One batch: the three design rows plus every epoch variant. The
    // epoch rows run on the registered Vilamb design's machine (same
    // model as TxB-Page-Csums) with the factory overriding the scheme
    // for the sweep.
    const Design *vilamb = findDesign("vilamb");
    std::vector<ExperimentJob> batch = {
        {"baseline", cfg, &designOf(DesignKind::Baseline),
         treeFactory(nullptr, args.scale)},
        {"tvarak", cfg, &designOf(DesignKind::Tvarak),
         treeFactory(nullptr, args.scale)},
        {"txb-page (sync)", cfg, &designOf(DesignKind::TxBPageCsums),
         treeFactory(nullptr, args.scale)},
    };
    for (std::size_t epoch : epochs) {
        batch.push_back({"vilamb epoch " + std::to_string(epoch), cfg,
                         vilamb, vilambFactory(epoch, args.scale)});
    }
    std::vector<RunResult> results = runExperiments(batch, args.jobs);
    const RunResult &base = results[0];
    const RunResult &tvarak = results[1];
    const RunResult &txb_page = results[2];

    std::printf("== Vilamb: configurable overhead (C-Tree update-only, "
                "runtime / Baseline) ==\n");
    std::printf("  %-28s %10s\n", "design", "runtime");
    std::printf("  %-28s %10.3f\n", "Baseline", 1.0);
    auto norm = [&](const RunResult &r) {
        return static_cast<double>(r.runtimeCycles) /
            static_cast<double>(base.runtimeCycles);
    };
    std::printf("  %-28s %10.3f\n", "TxB-Page-Csums (sync)",
                norm(txb_page));
    for (std::size_t k = 0; k < epochs.size(); k++) {
        std::printf("  Vilamb, epoch %-13zu %10.3f\n", epochs[k],
                    norm(results[3 + k]));
    }
    std::printf("  %-28s %10.3f\n", "TVARAK (hw, no windows)",
                norm(tvarak));
    std::printf("\ncsv,vilamb,design,norm_runtime\n");

    std::vector<BenchJsonEntry> entries;
    for (std::size_t i = 0; i < batch.size(); i++) {
        BenchJsonEntry e;
        e.workload = "ctree-update-only";
        e.design = batch[i].label;
        e.runtimeCycles = results[i].runtimeCycles;
        e.normRuntime = norm(results[i]);
        e.energyMj = results[i].energyMj;
        e.nvmDataAccesses = results[i].nvmDataAccesses;
        e.nvmRedAccesses = results[i].nvmRedAccesses;
        e.cacheAccesses = results[i].cacheAccesses;
        entries.push_back(std::move(e));
    }
    writeBenchJson(args, entries);
    return 0;
}
