/**
 * @file
 * Section IV-H (second part): sensitivity to the number of NVM DIMMs
 * and to the underlying NVM technology. The paper reports the same
 * relative trends with 8 DIMMs and with battery-backed DRAM timing
 * as NVM; TVARAK keeps outperforming the TxB schemes "by orders of
 * magnitude for the stream microbenchmarks".
 */

#include "apps/stream/stream.hh"
#include "bench_common.hh"

using namespace tvarak;
using namespace tvarak::bench;

namespace {

WorkloadFactory
streamCopyFactory(std::size_t chunk)
{
    return [chunk](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        StreamWorkload::Params p;
        p.kernel = StreamWorkload::Kernel::Copy;
        p.chunkBytes = chunk;
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

}  // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(
        argc, argv, "Sec IV-H: NVM DIMM count & technology sweep",
        "sec4h_dimms");
    std::size_t chunk = (1ull << 20) * args.scale;

    struct Variant {
        const char *name;
        std::size_t dimms;
        double readNs, writeNs;
    };
    const std::vector<Variant> variants = {
        {"4-dimms-pcm", 4, 60.0, 150.0},       // Table III default
        {"8-dimms-pcm", 8, 60.0, 150.0},
        {"4-dimms-bb-dram", 4, 15.0, 15.0},    // battery-backed DRAM
    };

    std::vector<WorkloadSpec> specs;
    for (const Variant &v : variants) {
        SimConfig cfg = evalConfig();
        cfg.nvm.dimms = v.dimms;
        cfg.nvm.readNs = v.readNs;
        cfg.nvm.writeNs = v.writeNs;
        specs.push_back({v.name, cfg, streamCopyFactory(chunk)});
    }
    std::vector<FigureRow> rows =
        sweepRows(specs, args);
    printFigureGroup(
        "Section IV-H: stream copy across NVM configurations", rows);
    printFigureCsv("sec4h", rows);
    writeBenchJson(args, jsonEntries(rows));
    return 0;
}
