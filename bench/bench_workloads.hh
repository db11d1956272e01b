/**
 * @file
 * The five representative workloads the paper uses for the design
 * ablation (Fig 9) and partition sensitivity (Fig 10) studies:
 * Redis set-only (6 instances), C-Tree insert-only, N-Store balanced,
 * fio random write, and stream triad. Sized smaller than the Fig 8
 * runs because these benches sweep many configurations.
 */

#pragma once

#include <memory>

#include "apps/fio/fio.hh"
#include "apps/nstore/nstore.hh"
#include "apps/redis/redis.hh"
#include "apps/stream/stream.hh"
#include "apps/trees/tree_workload.hh"
#include "bench_common.hh"

namespace tvarak::bench {

inline WorkloadFactory
redisSetFactory(std::size_t scale)
{
    return [scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        RedisWorkload::Params p;
        p.requests = 16384 * scale;
        p.keyspace = 16384 * scale;
        for (int t = 0; t < 6; t++) {
            set.workloads.push_back(std::make_unique<RedisWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        return set;
    };
}

inline WorkloadFactory
ctreeInsertFactory(std::size_t scale)
{
    return [scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        TreeWorkload::Params p;
        p.kind = MapKind::CTree;
        p.mix = TreeWorkload::Mix::InsertOnly;
        p.preload = 16384 * scale;
        p.ops = 8192 * scale;
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

inline WorkloadFactory
nstoreBalancedFactory(std::size_t scale)
{
    return [scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        auto store = std::make_shared<NStore>(
            mem, fs, scheme.get(), 262144 * scale, 16384 * scale, 4);
        WorkloadSet set;
        NStoreWorkload::Params p;
        p.mix = NStoreWorkload::Mix::Balanced;
        p.txPerClient = 32768 * scale;
        for (int t = 0; t < 4; t++) {
            set.workloads.push_back(std::make_unique<NStoreWorkload>(
                mem, store, t, p));
        }
        struct Keep {
            std::shared_ptr<NStore> store;
            std::unique_ptr<RedundancyScheme> scheme;
        };
        set.shared =
            std::make_shared<Keep>(Keep{store, std::move(scheme)});
        return set;
    };
}

inline WorkloadFactory
fioRandWriteFactory(std::size_t scale)
{
    return [scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        FioWorkload::Params p;
        p.pattern = FioWorkload::Pattern::RandWrite;
        p.regionBytes = (2ull << 20) * scale;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<FioWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

inline WorkloadFactory
streamTriadFactory(std::size_t scale)
{
    return [scale](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        StreamWorkload::Params p;
        p.kernel = StreamWorkload::Kernel::Triad;
        p.chunkBytes = (1ull << 20) * scale;
        for (int t = 0; t < 12; t++) {
            set.workloads.push_back(std::make_unique<StreamWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

/** The Fig 9 / Fig 10 workload list, in paper order. */
struct NamedFactory {
    const char *name;
    WorkloadFactory factory;
    /** NVM DIMM capacity this workload needs. */
    std::size_t dimmBytes;
};

inline std::vector<NamedFactory>
fig9Workloads(std::size_t scale)
{
    return {
        {"redis-set", redisSetFactory(scale), 96ull << 20},
        {"ctree-insert", ctreeInsertFactory(scale), 96ull << 20},
        {"nstore-balanced", nstoreBalancedFactory(scale), 256ull << 20},
        {"fio-rand-write", fioRandWriteFactory(scale), 96ull << 20},
        {"stream-triad", streamTriadFactory(scale), 96ull << 20},
    };
}

}  // namespace tvarak::bench

