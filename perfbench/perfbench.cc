/**
 * @file
 * Repository benchmark: how fast the simulator runs on the host, on
 * three fixed experiments, with correctness and identity checks.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out DIR] [--negative-control]
 *
 * One run repeats one experiment of the named workload, sequentially
 * on the calling thread, until --seconds have passed, and prints the
 * medians over the repetitions, in process CPU seconds so that time
 * spent waiting for a host CPU does not count. The first repetition
 * is the checked one (parity, scrub, service invariants) and is not
 * timed. The time metrics are divided by a host memory-latency probe
 * walked after every repetition (LatencyProbe). --trace 1 instead
 * reports per-layer numbers: wall-clock spans taken around the calls
 * into each layer during one traced repetition, the exact
 * Stats/ServiceStats counts, and a rerun on the scalar kernel backend
 * that must reproduce every count. --negative-control corrupts one
 * media line before the checks, which must then fail.
 *
 * The last stdout line is the JSON result
 * {"correct", "attempted", "failed", "metrics"}; the line before it
 * carries the host metadata. The exit code is 0 only if every check
 * passed. perfbench/README.md documents workloads and metrics.
 */

#include <cpuid.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/stream/stream.hh"
#include "apps/trees/tree_workload.hh"
#include "harness/runner.hh"
#include "kernels/kernels.hh"
#include "redundancy/registry.hh"
#include "redundancy/scheme.hh"
#include "service/dispatcher.hh"
#include "service/source.hh"

using namespace tvarak;

namespace {

/** @name Fixed workload sizes (see README.md) */
/**@{*/
constexpr int kThreads = 12;
constexpr std::size_t kStreamDimmMiB = 32;
constexpr std::size_t kTreeDimmMiB = 48;
constexpr std::size_t kRedisDimmMiB = 16;
constexpr std::size_t kStreamChunkBytes = 2ull << 20;
constexpr std::size_t kTreePreload = 4096;
constexpr std::size_t kTreeOps = 4096;
constexpr std::size_t kRedisServers = 4;
constexpr std::size_t kRedisRequests = 12000;
/** Offered rate, requests per simulated Mcycle: about 54% of the
 *  closed-loop capacity under the same fault schedule (~14800), so
 *  below the knee but with visible queueing. */
constexpr double kRedisRatePerMcycle = 8000.0;
constexpr std::size_t kRedisFailedDimm = 1;
/** Timed repetitions per run, at least, however long they take. */
constexpr std::size_t kMinReps = 3;
/** Latency probe: a random cycle over 64 MiB, walked this far. */
constexpr std::size_t kProbeWords = 8u << 20;
constexpr std::size_t kProbeHops = 250000;
/**@}*/

/** Wall-clock seconds: spans, and the run's --seconds deadline. */
double
now()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
        Clock::now().time_since_epoch()).count();
}

/**
 * One instant on both host clocks. The end-to-end metrics use the
 * process CPU clock: the work of one repetition is fixed, and on a
 * shared host the wall clock also counts the time the process waited
 * for a CPU (runnable but descheduled, or its vCPU stolen by the
 * hypervisor), which varies run to run with other load.
 */
struct Stamp {
    double wall = 0.0;
    double cpu = 0.0;
};

Stamp
stamp()
{
    timespec ts {};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return {now(), static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec};
}

Stamp
operator-(Stamp a, Stamp b)
{
    return {a.wall - b.wall, a.cpu - b.cpu};
}

/**
 * The evaluation machine (Table III) with 4 DIMMs of @p dimmMiB each.
 * Each workload gets the smallest DIMMs its files fit in: full-media
 * sweeps (dropCaches syncs, DIMM rebuild) are host-memory-bandwidth
 * bound, and that is the host time that varies most with other load
 * on the host.
 */
SimConfig
machineConfig(std::size_t dimmMiB)
{
    SimConfig cfg;
    cfg.nvm.dimmBytes = dimmMiB << 20;
    cfg.dram.sizeBytes = 128ull << 20;
    return cfg;
}

struct Span {
    std::string name;
    double start;
    double end;
};

/** Host-time spans of one traced experiment, kept in memory. */
class SpanLog
{
  public:
    void add(const char *name, double start, double end)
    {
        spans_.push_back({name, start, end});
    }

    /** Summed duration of every span called @p name. */
    double total(const std::string &name) const
    {
        double sum = 0.0;
        for (const Span &s : spans_)
            if (s.name == name)
                sum += s.end - s.start;
        return sum;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

/** Times @p fn into @p log under @p name when tracing is on. */
template <typename Fn>
void
timed(SpanLog *log, const char *name, Fn &&fn)
{
    if (log == nullptr) {
        fn();
        return;
    }
    double t = now();
    fn();
    log->add(name, t, now());
}

/** Workload decorator: one span per setup() and per step(). */
class TimedWorkload final : public Workload
{
  public:
    TimedWorkload(std::unique_ptr<Workload> inner, SpanLog &log)
        : inner_(std::move(inner)), log_(log)
    {}

    void setup() override
    {
        timed(&log_, "apps.setup_s", [this] { inner_->setup(); });
    }

    bool step() override
    {
        bool more = false;
        timed(&log_, "harness.run_s", [&] { more = inner_->step(); });
        return more;
    }

    int tid() const override { return inner_->tid(); }
    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<Workload> inner_;
    SpanLog &log_;
};

/** Correctness checks attempted and failed in one run. */
struct Checks {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Stale parity stripes left by a preload snapshot (unchecked). */
    std::size_t staleStripes = 0;

    void expect(bool ok, const std::string &what)
    {
        attempted++;
        if (!ok) {
            failed++;
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
        }
    }
};

/** What one experiment observes besides its own timing. */
struct Probe {
    SpanLog *spans = nullptr;    //!< null: untraced
    Checks *checks = nullptr;    //!< null: unchecked repetition
    bool corrupt = false;        //!< negative control
};

/** One experiment's host times (s) and simulated counts. */
struct Sample {
    Stamp total;     //!< construction to collected results
    Stamp setup;     //!< construction to the stats reset
    Stamp measured;  //!< stats reset to the end of the flush
    Stats sim{1, 1};
    service::ServiceStats svc;
};

/** Flip one byte of the first line of file 0 on the NVM media. */
void
corruptMediaLine(MemorySystem &mem, DaxFs &fs)
{
    Addr line = fs.filePage(0, 0);
    std::uint8_t buf[kLineBytes];
    mem.nvmArray().rawRead(line, buf, kLineBytes);
    buf[0] ^= 0xff;
    mem.nvmArray().rawWrite(line, buf, kLineBytes);
}

/**
 * At-rest redundancy checks on a flushed machine. The checks are
 * untimed observations: they leave the run's Stats as they found
 * them. @p parityCovered is false for workloads that preload with
 * the design's software redundancy switched off (the
 * PmemPool::setSchemeEnabled snapshot convention); their stale
 * stripes are counted and reported, not failed.
 */
void
checkAtRest(MemorySystem &mem, DaxFs &fs, bool parityCovered,
            const Probe &p)
{
    if (p.corrupt)
        corruptMediaLine(mem, fs);
    if (!mem.designObj().maintainsMappedParity())
        return;
    Stats before = mem.stats();
    std::size_t badStripes = fs.verifyParity();
    std::size_t badLines = fs.scrub(false);
    mem.stats() = before;
    if (!parityCovered) {
        p.checks->staleStripes = badStripes;
    } else {
        p.checks->expect(badStripes == 0,
                         std::to_string(badStripes) + " stripe(s) "
                         "violate parity after the flush");
    }
    p.checks->expect(badLines == 0,
                     std::to_string(badLines) + " line(s) fail the "
                     "at-rest scrub after the flush");
}

/** A harness workload: a factory run through runExperiment. */
Sample
runHarness(const SimConfig &cfg, const Design &design,
           const WorkloadFactory &make, bool parityCovered, const Probe &p)
{
    Sample s;
    Stamp t0 = stamp(), tReset, tFlushed, checkTime;
    DaxFs *fsSeen = nullptr;

    RunHooks hooks;
    hooks.onMachine = [&](MemorySystem &, DaxFs &fs) {
        fsSeen = &fs;
        if (p.spans)
            p.spans->add("harness.ctor_s", t0.wall, now());
    };
    hooks.beforeReset = [&](MemorySystem &) { tReset = stamp(); };
    // The flush runs here so its end can be timed and the checks can
    // see the flushed machine; runExperiment's own flushAll then
    // finds nothing dirty.
    hooks.beforeFlush = [&](MemorySystem &mem) {
        timed(p.spans, "mem.flush_s", [&] { mem.flushAll(); });
        tFlushed = stamp();
        if (p.checks) {
            timed(p.spans, "fs.verify_s",
                  [&] {
                      checkAtRest(mem, *fsSeen, parityCovered, p);
                  });
            checkTime = stamp() - tFlushed;
        }
    };

    WorkloadFactory factory = [&](MemorySystem &mem, DaxFs &fs) {
        WorkloadSet set = make(mem, fs);
        if (p.spans == nullptr)
            return set;
        for (auto &w : set.workloads)
            w = std::make_unique<TimedWorkload>(std::move(w), *p.spans);
        if (set.beforeMeasure) {
            auto inner = std::move(set.beforeMeasure);
            set.beforeMeasure = [inner, log = p.spans](MemorySystem &m) {
                timed(log, "mem.drop_caches_s", [&] { inner(m); });
            };
        }
        return set;
    };

    RunResult r = runExperiment(cfg, design, factory, hooks);
    s.total = stamp() - t0 - checkTime;
    s.setup = tReset - t0;
    s.measured = tFlushed - tReset;
    s.sim = r.stats;
    if (p.checks) {
        p.checks->expect(s.sim.corruptionsDetected == 0,
                         "fault-free run detected " +
                         std::to_string(s.sim.corruptionsDetected) +
                         " corruption(s)");
    }
    return s;
}

/** Twelve threads of one workload type sharing the design's scheme. */
template <typename W, typename Params>
WorkloadFactory
twelveThreads(Params params, bool dropCaches)
{
    return [params, dropCaches](MemorySystem &mem, DaxFs &fs) {
        std::shared_ptr<RedundancyScheme> scheme =
            mem.designObj().makeScheme(mem);
        WorkloadSet set;
        for (int t = 0; t < kThreads; t++) {
            set.workloads.push_back(
                std::make_unique<W>(mem, fs, t, scheme.get(), params));
        }
        set.shared = scheme;
        if (dropCaches)
            set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

service::ServiceConfig
redisConfig(std::uint64_t seed)
{
    service::ServiceConfig svc;
    svc.workload = "redis-set";
    svc.servers = kRedisServers;
    svc.requests = kRedisRequests;
    svc.arrival.kind = service::ArrivalKind::Poisson;
    svc.arrival.meanGapCycles = 1e6 / kRedisRatePerMcycle;
    svc.arrival.seed = seed;
    svc.faultDimm = kRedisFailedDimm;
    svc.failAtRequest = kRedisRequests / 4;
    svc.replaceAtRequest = kRedisRequests / 2;
    return svc;
}

/**
 * redis-degraded. runService builds its machine internally, so the
 * set-up phase is timed on a replica that makes the same public calls
 * in the same order (machine, sources, setup, drain, flush); the
 * at-rest checks run on that replica. The measured phase is the
 * service run minus the replica's set-up time.
 */
Sample
runRedis(const SimConfig &cfg, const Design &design,
         const service::ServiceConfig &svc, const Probe &p)
{
    Sample s;
    {
        Stamp t0 = stamp();
        MemorySystem mem(cfg, design);
        DaxFs fs(mem);
        std::unique_ptr<RedundancyScheme> scheme = design.makeScheme(mem);
        if (p.spans)
            p.spans->add("harness.ctor_s", t0.wall, now());
        std::vector<std::unique_ptr<service::RequestSource>> sources;
        for (std::size_t i = 0; i < svc.servers; i++) {
            sources.push_back(service::makeSource(
                svc.workload, mem, fs, static_cast<int>(i), scheme.get(),
                svc.scale, svc.arrival.seed));
        }
        timed(p.spans, "apps.setup_s", [&] {
            for (auto &src : sources)
                src->setup();
        });
        timed(p.spans, "mem.flush_s", [&] {
            if (scheme)
                for (std::size_t i = 0; i < svc.servers; i++)
                    scheme->drain(static_cast<int>(i));
            mem.flushAll();
        });
        s.setup = stamp() - t0;
        if (p.checks)
            timed(p.spans, "fs.verify_s",
                  [&] { checkAtRest(mem, fs, true, p); });
    }

    Stamp t0 = stamp();
    service::ServiceResult r;
    timed(p.spans, "service.run_s",
          [&] { r = service::runService(cfg, design, svc); });
    s.total = stamp() - t0;
    s.measured = s.total - s.setup;
    s.sim = r.sim;
    s.svc = r.service;

    if (p.checks) {
        const service::ServiceStats &v = s.svc;
        Checks &c = *p.checks;
        c.expect(v.completed == v.requests,
                 std::to_string(v.requests - v.completed) +
                 " request(s) not completed");
        c.expect(v.totalLatencyCycles ==
                 v.totalQueueCycles + v.totalServiceCycles,
                 "latency != queue + service");
        std::uint64_t dimmLines = cfg.nvm.dimmBytes / kLineBytes;
        c.expect(s.sim.rebuildLines == dimmLines &&
                 s.sim.rebuildRestarts == 0,
                 "rebuild restored " + std::to_string(s.sim.rebuildLines) +
                 " of " + std::to_string(dimmLines) + " lines");
        c.expect(s.sim.corruptionsDetected == 0,
                 "degraded run detected " +
                 std::to_string(s.sim.corruptionsDetected) +
                 " lost line(s)");
        // Requests that did not complete also count as failures.
        c.attempted += v.requests;
        c.failed += v.requests - v.completed;
    }
    return s;
}

struct WorkloadDef {
    const char *name;
    const char *design;
    std::function<Sample(const Probe &)> run;
};

std::vector<WorkloadDef>
workloads(std::uint64_t seed)
{
    StreamWorkload::Params triad;
    triad.kernel = StreamWorkload::Kernel::Triad;
    triad.chunkBytes = kStreamChunkBytes;

    TreeWorkload::Params ctree;
    ctree.kind = MapKind::CTree;
    ctree.mix = TreeWorkload::Mix::InsertOnly;
    ctree.preload = kTreePreload;
    ctree.ops = kTreeOps;

    const Design *tvarak = findDesign("tvarak");
    const Design *txbObject = findDesign("txb-object-csums");
    service::ServiceConfig svc = redisConfig(seed);
    return {
        {"stream-tvarak-cold", "tvarak",
         [tvarak, triad](const Probe &p) {
             return runHarness(
                 machineConfig(kStreamDimmMiB), *tvarak,
                 twelveThreads<StreamWorkload>(triad, true), true, p);
         }},
        {"ctree-txb-object", "txb-object-csums",
         [txbObject, ctree](const Probe &p) {
             return runHarness(
                 machineConfig(kTreeDimmMiB), *txbObject,
                 twelveThreads<TreeWorkload>(ctree, false), false, p);
         }},
        {"redis-degraded", "tvarak",
         [tvarak, svc](const Probe &p) {
             return runRedis(machineConfig(kRedisDimmMiB), *tvarak, svc,
                             p);
         }},
    };
}

/** Compare @p s's counts with the reference; a mismatch fails. */
void
checkIdentity(const Sample &ref, const Sample &s, const char *what,
              Checks &checks)
{
    std::string diff = statsDiff(ref.sim, s.sim);
    if (diff.empty())
        diff = service::serviceStatsDiff(ref.svc, s.svc);
    checks.expect(diff.empty(),
                  std::string(what) + " changed a count: " + diff);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One reported metric. */
struct Metric {
    std::string name;
    double value;
    const char *unit;
};

std::string
fmtNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Every exact count of @p s, under its per-layer name. */
std::vector<Metric>
countMetrics(const Sample &s)
{
    const Stats &st = s.sim;
    const service::ServiceStats &v = s.svc;
    auto d = [](std::uint64_t x) { return static_cast<double>(x); };
    std::uint64_t data = st.nvmDataReads + st.nvmDataWrites;
    std::uint64_t red = st.nvmRedundancyReads + st.nvmRedundancyWrites;
    return {
        {"mem.l1_accesses", d(st.l1Accesses), "count"},
        {"mem.l1_miss_ratio", ratio(d(st.l1Misses), d(st.l1Accesses)),
         "ratio"},
        {"mem.l2_miss_ratio", ratio(d(st.l2Misses), d(st.l2Accesses)),
         "ratio"},
        {"mem.llc_accesses", d(st.llcAccesses), "count"},
        {"mem.llc_miss_ratio", ratio(d(st.llcMisses), d(st.llcAccesses)),
         "ratio"},
        {"mem.dram_accesses", d(st.dramReads + st.dramWrites), "count"},
        {"nvm.data_reads", d(st.nvmDataReads), "count"},
        {"nvm.data_writes", d(st.nvmDataWrites), "count"},
        {"nvm.red_reads", d(st.nvmRedundancyReads), "count"},
        {"nvm.red_writes", d(st.nvmRedundancyWrites), "count"},
        {"nvm.max_dimm_busy_mcycles", d(st.maxDimmBusyCycles()) / 1e6,
         "Mcycles"},
        {"nvm.energy_mj", st.nvmEnergy * 1e-9, "mJ"},
        {"core.read_verifications", d(st.readVerifications), "count"},
        {"core.redundancy_updates", d(st.redundancyUpdates), "count"},
        {"core.diff_captures", d(st.diffCaptures), "count"},
        {"core.diff_evictions", d(st.diffEvictions), "count"},
        {"core.cache_accesses", d(st.tvarakCacheAccesses), "count"},
        {"core.cache_miss_ratio",
         ratio(d(st.tvarakCacheMisses), d(st.tvarakCacheAccesses)),
         "ratio"},
        {"pmemlib.tx_commits", d(st.txCommits), "count"},
        {"redundancy.sw_checksum_bytes", d(st.swChecksumBytes), "bytes"},
        {"redundancy.red_per_data", ratio(d(red), d(data)), "ratio"},
        {"redundancy.degraded_reads", d(st.degradedReads), "count"},
        {"redundancy.rebuild_lines", d(st.rebuildLines), "count"},
        {"redundancy.rebuild_restarts", d(st.rebuildRestarts), "count"},
        {"redundancy.recoveries", d(st.recoveries), "count"},
        {"service.requests", d(v.requests), "count"},
        {"service.p50_cycles", d(v.latency.percentile(0.50)), "cycles"},
        {"service.p999_cycles", d(v.latency.percentile(0.999)), "cycles"},
        {"service.achieved_per_mcycle", v.achievedPerMcycle,
         "1/Mcycle"},
        {"service.queue_share",
         ratio(d(v.totalQueueCycles), d(v.totalLatencyCycles)), "ratio"},
        {"service.max_outstanding", d(v.maxOutstanding), "count"},
        {"service.idle_drain_mcycles", d(v.idleDrainCycles) / 1e6,
         "Mcycles"},
        {"sim.runtime_mcycles", d(st.runtimeCycles()) / 1e6, "Mcycles"},
        {"sim.max_thread_mcycles", d(st.maxThreadCycles()) / 1e6,
         "Mcycles"},
        {"sim.energy_mj", st.totalEnergy() * 1e-9, "mJ"},
    };
}

/** FNV-1a over the text of every count, to compare runs by eye. */
std::string
countsDigest(const Sample &s)
{
    std::ostringstream os;
    s.sim.dump(os);
    for (const Metric &m : countMetrics(s))
        os << m.name << '=' << fmtNumber(m.value) << '\n';
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : os.str()) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/**
 * Host memory-latency probe: the CPU ns of one dependent load in a
 * random cycle over 64 MiB, walked after every repetition. It runs in
 * a child process, forked before the first experiment, so its buffer
 * stays out of the benchmark's peak RSS and no change to src/ can
 * change it. The simulator's host time is bound by memory latency,
 * and on a shared host that latency drifts with other load for
 * minutes at a time; the end-to-end metrics divide by it (README.md,
 * Host noise).
 */
class LatencyProbe
{
  public:
    LatencyProbe()
    {
        int down[2], up[2];
        if (pipe(down) != 0 || pipe(up) != 0) {
            std::perror("perfbench: pipe");
            std::exit(2);
        }
        std::fflush(nullptr);
        pid_ = fork();
        if (pid_ < 0) {
            std::perror("perfbench: fork");
            std::exit(2);
        }
        if (pid_ == 0) {
            close(down[1]);
            close(up[0]);
            serve(down[0], up[1]);
        }
        close(down[0]);
        close(up[1]);
        toChild_ = down[1];
        fromChild_ = up[0];
    }

    LatencyProbe(const LatencyProbe &) = delete;
    LatencyProbe &operator=(const LatencyProbe &) = delete;

    /** Ends the child and waits for it. */
    ~LatencyProbe()
    {
        close(toChild_);
        close(fromChild_);
        int status = 0;
        waitpid(pid_, &status, 0);
    }

    /** One walk, measured now: CPU ns per hop. */
    double measure()
    {
        char go = 1;
        double ns = NAN;
        if (write(toChild_, &go, 1) != 1 ||
            read(fromChild_, &ns, sizeof(ns)) !=
                static_cast<ssize_t>(sizeof(ns))) {
            std::fprintf(stderr, "perfbench: latency probe failed\n");
            std::exit(2);
        }
        return ns;
    }

  private:
    /** The child: build the cycle, then walk it once per request. */
    [[noreturn]] static void serve(int in, int out)
    {
        // Sattolo's shuffle: one cycle through every word, fixed seed.
        std::vector<std::uint64_t> next(kProbeWords);
        for (std::size_t i = 0; i < kProbeWords; i++)
            next[i] = i;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::size_t i = kProbeWords - 1; i > 0; i--) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(next[i], next[x % i]);
        }
        volatile std::uint64_t end = 0;
        std::uint64_t at = 0;
        char go;
        while (read(in, &go, 1) == 1) {
            timespec t0 {}, t1 {};
            clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t0);
            for (std::size_t h = 0; h < kProbeHops; h++)
                at = next[at];
            end = at;  // before the clock read, so the walk is timed
            clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t1);
            double ns = (1e9 * static_cast<double>(t1.tv_sec - t0.tv_sec) +
                         static_cast<double>(t1.tv_nsec - t0.tv_nsec)) /
                        kProbeHops;
            if (write(out, &ns, sizeof(ns)) !=
                static_cast<ssize_t>(sizeof(ns)))
                break;
        }
        _exit(0);
    }

    pid_t pid_ = -1;
    int toChild_ = -1;
    int fromChild_ = -1;
};

std::string
cpuModel()
{
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; i++) {
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    return s;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool negativeControl = false;
    std::string outDir;
};

[[noreturn]] void
usage(const char *prog, const std::string &msg)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR] "
                 "[--negative-control]\n",
                 prog, msg.c_str(), prog);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--negative-control") {
            o.negativeControl = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(argv[0], a + " needs a value");
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usage(argv[0], "bad --seed '" + v + "'");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0.0))
                usage(argv[0], "bad --seconds '" + v + "'");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage(argv[0], "--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--out") {
            o.outDir = v;
        } else {
            usage(argv[0], "unknown argument '" + a + "'");
        }
    }
    if (!haveWorkload)
        usage(argv[0], "--workload is required");
    return o;
}

/** Write the traced run's spans (relative to its first) as JSON. */
void
writeSpans(const std::string &path, const SpanLog &log)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }
    double base = log.spans().empty() ? 0.0 : log.spans().front().start;
    for (const Span &s : log.spans())
        base = std::min(base, s.start);
    out << "[\n";
    for (std::size_t i = 0; i < log.spans().size(); i++) {
        const Span &s = log.spans()[i];
        out << "  {\"name\": " << jsonString(s.name)
            << ", \"start_s\": " << fmtNumber(s.start - base)
            << ", \"end_s\": " << fmtNumber(s.end - base) << "}"
            << (i + 1 < log.spans().size() ? "," : "") << "\n";
    }
    out << "]\n";
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    std::vector<WorkloadDef> defs = workloads(opt.seed);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : defs)
        if (opt.workload == d.name)
            def = &d;
    if (def == nullptr)
        usage(argv[0], "unknown workload '" + opt.workload + "'");
    LatencyProbe probe;

    // The checked repetition: correctness checks plus, when tracing,
    // the per-layer spans. It also warms the host up and is the
    // reference every later repetition's counts must equal.
    Checks checks;
    SpanLog spans;
    Probe checked;
    checked.checks = &checks;
    checked.spans = opt.trace ? &spans : nullptr;
    checked.corrupt = opt.negativeControl;
    Sample ref = def->run(checked);

    // Untraced, unchecked repetitions for the host-time medians (CPU
    // seconds; wall seconds for the record), each followed by one
    // latency-probe walk.
    std::vector<double> cpu, wall, setup, measured, hop;
    double start = now();
    while (cpu.size() < kMinReps || now() - start < opt.seconds) {
        Sample s = def->run(Probe{});
        checkIdentity(ref, s, "a repetition", checks);
        cpu.push_back(s.total.cpu);
        wall.push_back(s.total.wall);
        setup.push_back(s.setup.cpu);
        measured.push_back(s.measured.cpu);
        hop.push_back(probe.measure());
        std::fprintf(stderr,
                     "  rep %zu: cpu %.3f s (wall %.3f s), setup %.3f s, "
                     "measured %.3f s, hop %.1f ns\n",
                     cpu.size(), s.total.cpu, s.total.wall, s.setup.cpu,
                     s.measured.cpu, hop.back());
    }

    kernels::Backend active = kernels::activeBackend();
    if (opt.trace) {
        // The cross-backend contract: scalar kernels, same counts.
        kernels::selectBackend(kernels::Backend::Scalar);
        Sample s = def->run(Probe{});
        kernels::selectBackend(active);
        checkIdentity(ref, s, "the scalar kernel backend", checks);
    }

    // Host times in seconds, and in probe hops: the same time divided
    // by the host's memory latency while it was measured.
    double simCycles = static_cast<double>(ref.sim.runtimeCycles());
    double accesses = static_cast<double>(ref.sim.cacheAccesses());
    double cpuMed = median(cpu);
    double measuredMed = median(measured);
    double hopNs = median(hop);
    double measuredHops = measuredMed * 1e9 / hopNs;
    std::vector<Metric> record = {
        {"cpu_s", cpuMed, "s"},
        {"sim_mcycles_per_s", ratio(simCycles / 1e6, measuredMed),
         "Mcycles/s"},
        {"host_ns_per_access", ratio(measuredMed * 1e9, accesses), "ns"},
        {"wall_s", median(wall), "s"},
        {"hop_ns", hopNs, "ns"},
    };
    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"cpu_mhops", cpuMed * 1e3 / hopNs, "Mhop"},
            {"setup_s", median(setup), "s"},
            {"sim_cycles_per_hop", ratio(simCycles, measuredHops),
             "cycles/hop"},
            {"hops_per_access", ratio(measuredHops, accesses), "hop"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
    } else {
        // Spans a workload does not reach report 0.
        for (const char *name :
             {"harness.ctor_s", "apps.setup_s", "mem.drop_caches_s",
              "harness.run_s", "mem.flush_s", "fs.verify_s",
              "service.run_s"})
            metrics.push_back({name, spans.total(name), "s"});
        metrics.push_back({"trace.overhead_s",
                           ref.total.wall - median(wall), "s"});
        metrics.push_back({"host.hop_ns", hopNs, "ns"});
        for (const Metric &m : countMetrics(ref))
            metrics.push_back(m);
        if (!opt.outDir.empty()) {
            writeSpans(opt.outDir + "/spans-" + opt.workload + "-" +
                       std::to_string(opt.seed) + ".json", spans);
        }
    }

    double failFrac = ratio(static_cast<double>(checks.failed),
                            static_cast<double>(checks.attempted));
    std::printf("%-28s %20s  %s\n", "metric", "value", "unit");
    for (const Metric &m : metrics)
        std::printf("%-28s %20.6f  %s\n", m.name.c_str(), m.value, m.unit);
    // Printed for the record, not BENCHMARK.json metrics: the plain
    // host times drift with other load on the host, and the fraction
    // is 0 on a correct tree.
    std::string recordJson;
    for (const Metric &m : record) {
        std::printf("%-28s %20.6f  %s\n", m.name.c_str(), m.value, m.unit);
        recordJson += jsonString(m.name) + ": " + fmtNumber(m.value) + ", ";
    }
    std::printf("%-28s %20.6f  %s\n", "check_fail_frac", failFrac,
                "ratio");

    // Host metadata: numbers from different hosts are not comparable.
#ifdef NDEBUG
    const char *ndebug = "yes";
#else
    const char *ndebug = "no";
#endif
#ifdef __clang__
    const char *compiler = "clang " __clang_version__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    std::printf("{\"meta\": {\"workload\": %s, \"design\": %s, "
                "\"seed\": %llu, \"trace\": %d, \"reps\": %zu, %s"
                "\"nproc\": %ld, \"cpu\": %s, \"kernel\": %s, "
                "\"compiler\": %s, \"build_type\": %s, "
                "\"ndebug\": \"%s\", \"scale\": 1, "
                "\"counts_digest\": \"%s\", \"check_fail_frac\": %s, "
                "\"unchecked_stale_parity_stripes\": %zu}}\n",
                jsonString(def->name).c_str(),
                jsonString(def->design).c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, wall.size(), recordJson.c_str(),
                sysconf(_SC_NPROCESSORS_ONLN),
                jsonString(cpuModel()).c_str(),
                jsonString(kernels::backendName(active)).c_str(),
                jsonString(compiler).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(), ndebug,
                countsDigest(ref).c_str(), fmtNumber(failFrac).c_str(),
                checks.staleStripes);

    std::string out = "{\"correct\": ";
    out += checks.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted);
    out += ", \"failed\": " + std::to_string(checks.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        const Metric &m = metrics[i];
        out += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
            fmtNumber(m.value) + ", \"unit\": " + jsonString(m.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return checks.failed == 0 ? 0 : 1;
}
