/**
 * @file
 * Design-space exploration: how many LLC ways should TVARAK borrow?
 *
 * The paper's Section IV-H shows the answer is workload dependent:
 * redundancy-hungry workloads (random writes) want a bigger
 * redundancy partition, cache-sensitive workloads want none of their
 * LLC taken. This example sweeps the redundancy-partition size for a
 * write-heavy and a read-heavy key-value workload and prints a small
 * recommendation table — the kind of tuning a deployment would do
 * with the `TvarakParams` knobs.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/fio/fio.hh"
#include "apps/trees/tree_workload.hh"
#include "harness/runner.hh"
#include "redundancy/registry.hh"
#include "redundancy/scheme.hh"

using namespace tvarak;

namespace {

/** Random 64 B writes: redundancy traffic with no reuse — the
 *  workload that wants a big redundancy partition. */
WorkloadFactory
fioRandWriteFactory()
{
    return [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        FioWorkload::Params p;
        p.pattern = FioWorkload::Pattern::RandWrite;
        p.regionBytes = 2ull << 20;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<FioWorkload>(
                mem, fs, t, nullptr, p));
        }
        set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

/** Read-only trees whose working set is near the LLC capacity — the
 *  workload that suffers when ways are taken away. */
WorkloadFactory
btreeReadFactory()
{
    return [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        TreeWorkload::Params p;
        p.kind = MapKind::BTree;
        p.mix = TreeWorkload::Mix::ReadOnly;
        p.preload = 32768;
        p.ops = 32768;
        p.poolBytes = 16ull << 20;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<TreeWorkload>(
                mem, fs, t, nullptr, p));
        }
        return set;
    };
}

}  // namespace

int
main()
{
    SimConfig cfg;
    cfg.nvm.dimmBytes = 96ull << 20;
    cfg.dram.sizeBytes = 64ull << 20;

    struct Scenario {
        const char *name;
        WorkloadFactory factory;
    };
    const std::vector<Scenario> scenarios = {
        {"fio rand-write (redundancy-hungry)", fioRandWriteFactory()},
        {"btree read-only (cache-sensitive)", btreeReadFactory()},
    };
    const std::vector<std::size_t> way_options = {1, 2, 4, 8};

    std::printf("%-36s", "workload \\ redundancy ways");
    for (std::size_t w : way_options)
        std::printf(" %8zu", w);
    std::printf("   best\n");

    for (const Scenario &s : scenarios) {
        RunResult base =
            runExperiment(cfg, designOf(DesignKind::Baseline), s.factory);
        std::printf("%-36s", s.name);
        double best = 1e9;
        std::size_t best_ways = 0;
        for (std::size_t w : way_options) {
            SimConfig vcfg = cfg;
            vcfg.tvarak.redundancyWays = w;
            RunResult r =
                runExperiment(vcfg, designOf(DesignKind::Tvarak), s.factory);
            double norm = static_cast<double>(r.runtimeCycles) /
                static_cast<double>(base.runtimeCycles);
            std::printf(" %8.3f", norm);
            if (norm < best) {
                best = norm;
                best_ways = w;
            }
        }
        std::printf("   %zu ways\n", best_ways);
    }
    std::printf("\n(values are runtime normalized to a no-redundancy "
                "Baseline; lower is better)\n");
    return 0;
}
