#include "harness/runner.hh"

#include "redundancy/registry.hh"
#include "sim/log.hh"

namespace tvarak {

RunResult
runExperiment(const SimConfig &cfg, const Design &design,
              const WorkloadFactory &make)
{
    return runExperiment(cfg, design, make, RunHooks{});
}

RunResult
runExperiment(const SimConfig &cfg, const Design &design,
              const WorkloadFactory &make, const RunHooks &hooks)
{
    MemorySystem mem(cfg, design);
    DaxFs fs(mem);
    if (hooks.onMachine)
        hooks.onMachine(mem, fs);
    WorkloadSet set = make(mem, fs);
    panic_if(set.workloads.empty(), "empty workload set");

    for (auto &w : set.workloads)
        w->setup();
    if (set.beforeMeasure)
        set.beforeMeasure(mem);
    if (hooks.beforeReset)
        hooks.beforeReset(mem);
    mem.stats().reset();

    std::vector<bool> done(set.workloads.size(), false);
    std::size_t remaining = set.workloads.size();
    std::size_t passes = 0;
    while (remaining > 0) {
        for (std::size_t i = 0; i < set.workloads.size(); i++) {
            if (done[i])
                continue;
            if (!set.workloads[i]->step()) {
                done[i] = true;
                remaining--;
            }
        }
        passes++;
        if (hooks.onStep)
            hooks.onStep(mem, passes);
    }
    if (hooks.beforeFlush)
        hooks.beforeFlush(mem);
    mem.flushAll();

    const Stats &s = mem.stats();
    RunResult r;
    r.design = &design;
    r.runtimeCycles = s.runtimeCycles();
    r.runtimeMs = static_cast<double>(r.runtimeCycles) /
        (cfg.coreGhz * 1e6);
    r.energyMj = s.totalEnergy() * 1e-9;
    r.nvmDataAccesses = s.nvmDataReads + s.nvmDataWrites;
    r.nvmRedAccesses = s.nvmRedundancyReads + s.nvmRedundancyWrites;
    r.cacheAccesses = s.cacheAccesses();
    r.stats = s;
    return r;
}

}  // namespace tvarak
