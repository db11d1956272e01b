#include "sim/config.hh"

#include "sim/log.hh"

namespace tvarak {

// designName(DesignKind) is implemented by the design registry
// (src/redundancy/registry.cc), the single source of truth for
// design names.

void
SimConfig::validate() const
{
    fatal_if(cores == 0, "need at least one core");
    fatal_if(llcBanks == 0, "need at least one LLC bank");
    auto check_cache = [](const char *name, const CacheParams &p) {
        fatal_if(p.sizeBytes == 0 || p.ways == 0,
                 "%s: zero size or ways", name);
        fatal_if(p.sizeBytes % (p.ways * kLineBytes) != 0,
                 "%s: size %zu not divisible into %zu ways of 64B lines",
                 name, p.sizeBytes, p.ways);
        std::size_t sets = p.sizeBytes / (p.ways * kLineBytes);
        fatal_if((sets & (sets - 1)) != 0,
                 "%s: set count %zu not a power of two", name, sets);
    };
    check_cache("L1", l1);
    check_cache("L2", l2);
    check_cache("LLC bank", llcBank);

    fatal_if(tvarak.redundancyWays + tvarak.diffWays >= llcBank.ways,
             "TVARAK partitions (%zu red + %zu diff) leave no data ways "
             "out of %zu",
             tvarak.redundancyWays, tvarak.diffWays, llcBank.ways);
    fatal_if(tvarak.cacheBytes % kLineBytes != 0,
             "on-controller cache must hold whole lines");
    fatal_if(nvm.dimms < 2, "striped parity needs at least 2 NVM DIMMs");
    fatal_if(nvm.parityDimms < 1 || nvm.parityDimms >= nvm.dimms,
             "parity count %zu needs at least %zu NVM DIMMs (n+k with "
             "n >= 1)",
             nvm.parityDimms, nvm.parityDimms + 1);
    fatal_if(nvm.dimmBytes % kPageBytes != 0,
             "NVM DIMM capacity must be page aligned");
    fatal_if(dram.sizeBytes % kPageBytes != 0,
             "DRAM capacity must be page aligned");
}

}  // namespace tvarak
