/**
 * @file
 * Figure 8: the application panels under Baseline / TVARAK /
 * TxB-Object-Csums / TxB-Page-Csums. One table row per panel holds
 * its title, its result names and its spec builder; every panel's
 * experiments run in one parallel batch, then each panel prints its
 * table and CSV lines and (with --json) writes
 * results/bench_<json>.json.
 *
 * Expected shapes (paper Section IV):
 *   - (a-d) Redis, 6 instances (the paper shows 1-6; trends are
 *     identical): TVARAK ~+3% on both workloads; TxB-Object-Csums
 *     ~+50% (set) / <=+5% (get); TxB-Page-Csums ~+200% (set) /
 *     <=+28% (get). Gets cost the software schemes because Redis runs
 *     transactions (with metadata writes) even for gets.
 *   - (e-h) C-Tree, B-Tree, RB-Tree, insert-only and balanced (50:50
 *     updates:reads), 12 single-threaded instances: TVARAK within
 *     ~1.5% of Baseline for insert-only and ~5% for balanced;
 *     TxB-Object-Csums ~+43% / ~+20%; TxB-Page-Csums ~+171% / worse.
 *   - (i-l) N-Store YCSB, 4 clients, 90% of transactions to 10% of
 *     tuples: TVARAK +27..41% (its largest application overhead — the
 *     linked-list WAL's random writes defeat redundancy-cache reuse);
 *     TxB-Object-Csums +70..117%; TxB-Page-Csums +264..600%.
 *   - (m-p) fio sequential/random reads/writes at 64 B granularity,
 *     12 threads on non-overlapping regions: TVARAK ~0% for
 *     sequential accesses, ~2% for random reads, ~33% for random
 *     writes; the TxB schemes cost nothing on reads (they do not
 *     verify reads) and far more than TVARAK on writes.
 *   - (q-t) stream copy/scale/add/triad, 12 threads: the largest
 *     relative overheads of every design (simple kernels, no reuse),
 *     decreasing from copy to triad; TVARAK stays within a few tens
 *     of percent while TxB-Object-Csums and TxB-Page-Csums are ~8-13x
 *     and ~19-33x slower.
 */

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "apps/fio/fio.hh"
#include "apps/nstore/nstore.hh"
#include "apps/redis/redis.hh"
#include "apps/stream/stream.hh"
#include "apps/trees/tree_workload.hh"
#include "bench_common.hh"

using namespace tvarak;
using namespace tvarak::bench;

namespace {

/** Keep the design's software scheme alive as long as the set. */
void
keepScheme(WorkloadSet &set, std::unique_ptr<RedundancyScheme> scheme)
{
    set.shared = std::shared_ptr<void>(
        scheme.release(),
        [](void *q) { delete static_cast<RedundancyScheme *>(q); });
}

WorkloadFactory
redisFactory(RedisWorkload::Mode mode, std::size_t scale)
{
    return [mode, scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        RedisWorkload::Params p;
        p.mode = mode;
        p.requests = 65536 * scale;
        p.keyspace = 65536 * scale;
        for (int t = 0; t < 6; t++) {
            set.workloads.push_back(std::make_unique<RedisWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        keepScheme(set, std::move(scheme));
        return set;
    };
}

std::vector<WorkloadSpec>
redisSpecs(std::size_t scale)
{
    SimConfig cfg = evalConfig();
    return {
        {"redis-set-only", cfg,
         redisFactory(RedisWorkload::Mode::SetOnly, scale)},
        {"redis-get-only", cfg,
         redisFactory(RedisWorkload::Mode::GetOnly, scale)},
    };
}

WorkloadFactory
treeFactory(MapKind kind, TreeWorkload::Mix mix, std::size_t scale)
{
    return [kind, mix, scale](MemorySystem &mem,
                              DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        TreeWorkload::Params p;
        p.kind = kind;
        p.mix = mix;
        p.preload = 32768 * scale;
        p.ops = 8192 * scale;
        p.poolBytes = (16ull << 20) * scale;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<TreeWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        keepScheme(set, std::move(scheme));
        return set;
    };
}

std::vector<WorkloadSpec>
kvstructsSpecs(std::size_t scale)
{
    SimConfig cfg = evalConfig();
    std::vector<WorkloadSpec> specs;
    for (MapKind kind :
         {MapKind::CTree, MapKind::BTree, MapKind::RBTree}) {
        for (TreeWorkload::Mix mix :
             {TreeWorkload::Mix::InsertOnly,
              TreeWorkload::Mix::Balanced}) {
            std::string label = std::string(mapKindName(kind)) + "-" +
                TreeWorkload::mixName(mix);
            specs.push_back({label, cfg, treeFactory(kind, mix, scale)});
        }
    }
    return specs;
}

WorkloadFactory
nstoreFactory(NStoreWorkload::Mix mix, std::size_t scale)
{
    return [mix, scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        // 262144 x 1KB tuples: the 8% hot set (~21.5 MB) fits the full
        // 24 MB LLC but not TVARAK's 19.5 MB data partition,
        // reproducing the paper's cache sensitivity.
        auto store = std::make_shared<NStore>(
            mem, fs, scheme.get(), 262144 * scale, 16384 * scale, 4);
        WorkloadSet set;
        NStoreWorkload::Params p;
        p.mix = mix;
        p.txPerClient = 131072 * scale;
        for (int t = 0; t < 4; t++) {
            set.workloads.push_back(std::make_unique<NStoreWorkload>(
                mem, store, t, p));
        }
        struct Keep {
            std::shared_ptr<NStore> store;
            std::unique_ptr<RedundancyScheme> scheme;
        };
        set.shared = std::make_shared<Keep>(
            Keep{store, std::move(scheme)});
        return set;
    };
}

std::vector<WorkloadSpec>
nstoreSpecs(std::size_t scale)
{
    SimConfig cfg = evalConfig();
    cfg.nvm.dimmBytes = 256ull << 20;  // room for the 268 MB table
    std::vector<WorkloadSpec> specs;
    for (auto mix :
         {NStoreWorkload::Mix::ReadHeavy, NStoreWorkload::Mix::Balanced,
          NStoreWorkload::Mix::UpdateHeavy}) {
        specs.push_back(
            {std::string("nstore-") + NStoreWorkload::mixName(mix), cfg,
             nstoreFactory(mix, scale)});
    }
    return specs;
}

WorkloadFactory
fioFactory(FioWorkload::Pattern pattern, std::size_t regionBytes)
{
    return [pattern, regionBytes](MemorySystem &mem,
                                  DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        FioWorkload::Params p;
        p.pattern = pattern;
        p.regionBytes = regionBytes;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<FioWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        keepScheme(set, std::move(scheme));
        // Paper: no cache line is accessed twice -> cold caches.
        set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

std::vector<WorkloadSpec>
fioSpecs(std::size_t scale)
{
    SimConfig cfg = evalConfig();
    std::vector<WorkloadSpec> specs;
    for (auto pattern :
         {FioWorkload::Pattern::SeqRead, FioWorkload::Pattern::SeqWrite,
          FioWorkload::Pattern::RandRead,
          FioWorkload::Pattern::RandWrite}) {
        specs.push_back({FioWorkload::patternName(pattern), cfg,
                         fioFactory(pattern, scale * (4ull << 20))});
    }
    return specs;
}

WorkloadFactory
streamFactory(StreamWorkload::Kernel kernel, std::size_t chunkBytes)
{
    return [kernel, chunkBytes](MemorySystem &mem,
                                DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        StreamWorkload::Params p;
        p.kernel = kernel;
        p.chunkBytes = chunkBytes;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<StreamWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        keepScheme(set, std::move(scheme));
        set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

std::vector<WorkloadSpec>
streamSpecs(std::size_t scale)
{
    SimConfig cfg = evalConfig();
    std::vector<WorkloadSpec> specs;
    for (auto kernel :
         {StreamWorkload::Kernel::Copy, StreamWorkload::Kernel::Scale,
          StreamWorkload::Kernel::Add, StreamWorkload::Kernel::Triad}) {
        specs.push_back({StreamWorkload::kernelName(kernel), cfg,
                         streamFactory(kernel, scale * (2ull << 20))});
    }
    return specs;
}

/** One Figure 8 panel group. */
struct Panel {
    const char *title;  //!< printed table heading
    const char *csv;    //!< figure tag of the `csv,` lines
    const char *json;   //!< results/bench_<json>.json
    std::vector<WorkloadSpec> (*specs)(std::size_t scale);
};

const Panel kPanels[] = {
    {"Figure 8(a-d): Redis, 6 instances", "fig8-redis", "fig8_redis",
     redisSpecs},
    {"Figure 8(e-h): key-value structures, 12 instances",
     "fig8-kvstructs", "fig8_kvstructs", kvstructsSpecs},
    {"Figure 8(i-l): N-Store YCSB, 4 clients", "fig8-nstore",
     "fig8_nstore", nstoreSpecs},
    {"Figure 8(m-p): fio, 12 threads, 64B accesses", "fig8-fio",
     "fig8_fio", fioSpecs},
    {"Figure 8(q-t): stream, 12 threads", "fig8-stream", "fig8_stream",
     streamSpecs},
};

}  // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(
        argc, argv,
        "Fig 8(a-t): Redis, key-value structures, N-Store, fio, stream",
        "fig8");

    std::vector<WorkloadSpec> specs;
    std::vector<std::size_t> counts;
    for (const Panel &panel : kPanels) {
        std::vector<WorkloadSpec> mine = panel.specs(args.scale);
        counts.push_back(mine.size());
        for (WorkloadSpec &spec : mine)
            specs.push_back(std::move(spec));
    }
    std::vector<FigureRow> rows = sweepRows(specs, args);

    auto next = rows.begin();
    for (std::size_t i = 0; i < std::size(kPanels); i++) {
        std::vector<FigureRow> mine(next, next + counts[i]);
        next += counts[i];
        printFigureGroup(kPanels[i].title, mine);
        printFigureCsv(kPanels[i].csv, mine);
        BenchArgs out = args;
        out.benchName = kPanels[i].json;
        writeBenchJson(out, jsonEntries(mine));
    }
    return 0;
}
