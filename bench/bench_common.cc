#include "bench_common.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "trace/trace.hh"

namespace tvarak::bench {

SimConfig
evalConfig()
{
    SimConfig cfg;  // Table III defaults
    cfg.nvm.dimmBytes = 96ull << 20;  // 4 x 96 MB: fits every bench
    cfg.dram.sizeBytes = 128ull << 20;
    return cfg;
}

namespace {

/** Prog name + extra-flag usage of the parse in progress, so the
 *  exported parse*Value helpers (called from ExtraFlag::apply during
 *  parseBenchArgs) can print a full usage message. */
std::string gProg = "bench";
std::string gSweepUsage;
std::string gExtraUsage;

/** The usage text of the sweep flags @p sweep accepts. */
std::string
sweepUsage(SweepFlags sweep)
{
    std::string u;
    if (sweep != SweepFlags::None)
        u += " [--design NAME]...";
    if (sweep == SweepFlags::DesignsAndTraces)
        u += " [--trace-record F | --trace-replay F]";
    return u;
}

[[noreturn]] void
usageError(const char *prog, const char *msg, const char *arg)
{
    std::fprintf(stderr, "%s: %s%s%s\n", prog, msg, arg ? ": " : "",
                 arg ? arg : "");
    std::fprintf(stderr, "usage: %s [--scale N] [--jobs N] [--json]%s%s\n",
                 prog, gSweepUsage.c_str(), gExtraUsage.c_str());
    std::exit(2);
}

/** True if argv[i] is `--flag` or `--flag=value`. */
bool
matchesFlag(const char *arg, const char *flag)
{
    std::size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 &&
        (arg[n] == '\0' || arg[n] == '=');
}

/** The value of `--flag=value` or `--flag value`; advances @p i in
 *  the space-separated form. Empty values are usage errors. */
std::string
flagValue(const char *prog, const char *flag, int argc, char **argv,
          int &i)
{
    const char *arg = argv[i];
    std::size_t n = std::strlen(flag);
    std::string value;
    if (arg[n] == '=') {
        value = arg + n + 1;
    } else {
        if (i + 1 >= argc) {
            std::string msg = std::string(flag) + " needs a value";
            usageError(prog, msg.c_str(), nullptr);
        }
        value = argv[++i];
    }
    if (value.empty()) {
        std::string msg = std::string("empty value for ") + flag;
        usageError(prog, msg.c_str(), nullptr);
    }
    return value;
}

/** Strict decimal parse of a flag value: the whole string must be a
 *  number, and zero / negative / overflow are rejected. */
std::size_t
parseCount(const char *prog, const char *flag, const char *value)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-' || errno == ERANGE ||
        v == 0) {
        std::string msg = std::string("invalid value for ") + flag;
        usageError(prog, msg.c_str(), value);
    }
    return static_cast<std::size_t>(v);
}

}  // namespace

std::size_t
parseCountValue(const char *flag, const std::string &value)
{
    return parseCount(gProg.c_str(), flag, value.c_str());
}

double
parseFracValue(const char *flag, const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        !(v > 0.0) || v != v || v > 1e18) {
        std::string msg = std::string("invalid value for ") + flag;
        usageError(gProg.c_str(), msg.c_str(), value.c_str());
    }
    return v;
}

void
benchUsageError(const std::string &msg)
{
    usageError(gProg.c_str(), msg.c_str(), nullptr);
}

BenchArgs
parseBenchArgs(int argc, char **argv, const char *what,
               const char *benchName, SweepFlags sweep)
{
    BenchArgsSpec spec;
    spec.what = what;
    spec.benchName = benchName;
    spec.sweep = sweep;
    return parseBenchArgs(argc, argv, spec);
}

BenchArgs
parseBenchArgs(int argc, char **argv, const BenchArgsSpec &spec)
{
    gProg = argv[0];
    gSweepUsage = sweepUsage(spec.sweep);
    gExtraUsage.clear();
    for (const ExtraFlag &x : spec.extras) {
        gExtraUsage += std::string(" [") + x.flag;
        if (x.valueName != nullptr)
            gExtraUsage += std::string(" ") + x.valueName;
        gExtraUsage += "]";
    }
    const char *what = spec.what;
    const char *benchName = spec.benchName;
    const bool designs = spec.sweep != SweepFlags::None;
    const bool traces = spec.sweep == SweepFlags::DesignsAndTraces;

    BenchArgs args;
    args.benchName = benchName;
    args.start = std::chrono::steady_clock::now();
    for (int i = 1; i < argc; i++) {
        const ExtraFlag *extra = nullptr;
        for (const ExtraFlag &x : spec.extras) {
            bool match = x.valueName != nullptr
                ? matchesFlag(argv[i], x.flag)
                : std::strcmp(argv[i], x.flag) == 0;
            if (match) {
                extra = &x;
                break;
            }
        }
        if (extra != nullptr) {
            std::string value;
            if (extra->valueName != nullptr)
                value = flagValue(argv[0], extra->flag, argc, argv, i);
            extra->apply(value);
            continue;
        }
        if (std::strcmp(argv[i], "--scale") == 0) {
            if (i + 1 >= argc)
                usageError(argv[0], "--scale needs a value", nullptr);
            args.scale = parseCount(argv[0], "--scale", argv[++i]);
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            if (i + 1 >= argc)
                usageError(argv[0], "--jobs needs a value", nullptr);
            args.jobs = parseCount(argv[0], "--jobs", argv[++i]);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            args.json = true;
        } else if (!traces && (matchesFlag(argv[i], "--trace-record") ||
                               matchesFlag(argv[i], "--trace-replay"))) {
            usageError(argv[0],
                       "this bench does not record or replay traces",
                       nullptr);
        } else if (!designs && matchesFlag(argv[i], "--design")) {
            usageError(argv[0],
                       "--design: this bench runs a fixed design set",
                       nullptr);
        } else if (matchesFlag(argv[i], "--trace-record")) {
            args.traceRecord =
                flagValue(argv[0], "--trace-record", argc, argv, i);
        } else if (matchesFlag(argv[i], "--trace-replay")) {
            args.traceReplay =
                flagValue(argv[0], "--trace-replay", argc, argv, i);
        } else if (matchesFlag(argv[i], "--design")) {
            std::string name =
                flagValue(argv[0], "--design", argc, argv, i);
            const Design *d = findDesign(name);
            if (d == nullptr) {
                std::string msg = "unknown design '" + name +
                    "' (registered: " + registeredNameList() + ")";
                usageError(argv[0], msg.c_str(), nullptr);
            }
            for (const Design *prev : args.designs) {
                if (prev == d) {
                    std::string msg = std::string("design '") +
                        d->cliName() + "' selected twice";
                    usageError(argv[0], msg.c_str(), nullptr);
                }
            }
            args.designs.push_back(d);
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf("%s\nusage: %s [--scale N] [--jobs N] [--json]"
                        "%s%s\n"
                        "  --scale N  workload size multiplier "
                        "(default 1)\n"
                        "  --jobs N   experiment worker threads "
                        "(default: hardware concurrency)\n"
                        "  --json     write results/bench_%s.json\n",
                        what, argv[0], gSweepUsage.c_str(),
                        gExtraUsage.c_str(), benchName);
            if (designs) {
                std::printf("  --design NAME  sweep only the named design "
                            "(repeatable; registered: %s)\n",
                            registeredNameList().c_str());
            }
            if (traces) {
                std::printf("  --trace-record F  record once under "
                            "Baseline into F, replay the other designs\n"
                            "  --trace-replay F  replay every design from "
                            "a previously recorded F\n");
            }
            for (const ExtraFlag &x : spec.extras) {
                std::string head = x.flag;
                if (x.valueName != nullptr)
                    head += std::string(" ") + x.valueName;
                std::printf("  %-14s %s\n", head.c_str(), x.help);
            }
            std::exit(0);
        } else {
            usageError(argv[0], "unknown argument", argv[i]);
        }
    }
    if (!args.traceRecord.empty() && !args.traceReplay.empty()) {
        usageError(argv[0],
                   "--trace-record and --trace-replay are exclusive",
                   nullptr);
    }
    const Design *baseline = &designOf(DesignKind::Baseline);
    if (!args.designs.empty() &&
        std::find(args.designs.begin(), args.designs.end(), baseline) ==
            args.designs.end()) {
        // Baseline is the normalization reference of every report.
        args.designs.insert(args.designs.begin(), baseline);
    }
    return args;
}

std::vector<const Design *>
selectedDesigns(const BenchArgs &args)
{
    return args.designs.empty() ? paperDesigns() : args.designs;
}

std::vector<FigureRow>
sweepRows(const std::vector<WorkloadSpec> &specs,
          const std::vector<const Design *> &designs, std::size_t jobs)
{
    std::vector<ExperimentJob> batch;
    batch.reserve(specs.size() * designs.size());
    for (const WorkloadSpec &spec : specs) {
        for (const Design *d : designs)
            batch.push_back({spec.name, spec.cfg, d, spec.make});
    }

    std::vector<RunResult> results = runExperiments(batch, jobs);

    std::vector<FigureRow> rows(specs.size());
    std::size_t k = 0;
    for (std::size_t s = 0; s < specs.size(); s++) {
        rows[s].workload = specs[s].name;
        for (std::size_t d = 0; d < designs.size(); d++)
            rows[s].add(std::move(results[k++]));
    }
    return rows;
}

namespace {

/** One trace file per workload: the flag value as-is for single-spec
 *  benches, "<file>.<workload>" when a bench sweeps several specs. */
std::string
tracePath(const std::string &base,
          const std::vector<WorkloadSpec> &specs, std::size_t s)
{
    return specs.size() == 1 ? base : base + "." + specs[s].name;
}

/** A replay batch and the figure row each of its jobs belongs to. */
struct ReplayBatch {
    std::vector<ExperimentJob> jobs;
    std::vector<std::size_t> rowOf;

    /** Replay @p designs (minus @p skip, the recording run's design)
     *  from @p trace into row @p row. */
    void push(std::size_t row, const std::string &label,
              const std::shared_ptr<trace::TraceData> &trace,
              const std::vector<const Design *> &designs,
              const Design *skip)
    {
        for (const Design *d : designs) {
            if (d == skip)
                continue;
            jobs.push_back({label, trace->cfg, d,
                            trace::makeReplayFactory(trace)});
            rowOf.push_back(row);
        }
    }

    /** Run the batch and add each result to its row. */
    void run(std::vector<FigureRow> &rows, std::size_t workers)
    {
        std::vector<RunResult> results = runExperiments(jobs, workers);
        for (std::size_t i = 0; i < results.size(); i++)
            rows[rowOf[i]].add(std::move(results[i]));
    }
};

/** Record each spec once under Baseline, replay the other designs. */
std::vector<FigureRow>
recordAndReplayRows(const std::vector<WorkloadSpec> &specs,
                    const std::vector<const Design *> &designs,
                    const BenchArgs &args)
{
    const Design &baseline = designOf(DesignKind::Baseline);
    std::vector<FigureRow> rows(specs.size());
    ReplayBatch batch;
    for (std::size_t s = 0; s < specs.size(); s++) {
        std::string path = tracePath(args.traceRecord, specs, s);
        std::fprintf(stderr, "  recording %s -> %s\n",
                     specs[s].name.c_str(), path.c_str());
        trace::RecordResult rec = trace::recordExperiment(
            specs[s].cfg, baseline, specs[s].make, specs[s].name);
        if (!rec.trace->save(path)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         path.c_str());
            std::exit(1);
        }
        rows[s].workload = specs[s].name;
        rows[s].add(std::move(rec.result));
        batch.push(s, specs[s].name, rec.trace, designs, &baseline);
    }
    batch.run(rows, args.jobs);
    return rows;
}

/** Replay every design from the trace files of a previous record. */
std::vector<FigureRow>
replayRows(const std::vector<WorkloadSpec> &specs,
           const std::vector<const Design *> &designs,
           const BenchArgs &args)
{
    std::vector<FigureRow> rows(specs.size());
    ReplayBatch batch;
    for (std::size_t s = 0; s < specs.size(); s++) {
        std::string path = tracePath(args.traceReplay, specs, s);
        auto trace = trace::TraceData::load(path);
        if (trace == nullptr) {
            std::fprintf(stderr, "error: cannot load trace %s\n",
                         path.c_str());
            std::exit(1);
        }
        if (trace->workloadName != specs[s].name) {
            std::fprintf(stderr,
                         "warning: %s was recorded as '%s', replaying "
                         "as '%s'\n",
                         path.c_str(), trace->workloadName.c_str(),
                         specs[s].name.c_str());
        }
        rows[s].workload = specs[s].name;
        batch.push(s, specs[s].name, trace, designs, nullptr);
    }
    batch.run(rows, args.jobs);
    return rows;
}

}  // namespace

std::vector<FigureRow>
sweepRows(const std::vector<WorkloadSpec> &specs, const BenchArgs &args)
{
    std::vector<const Design *> designs = selectedDesigns(args);
    if (!args.traceReplay.empty())
        return replayRows(specs, designs, args);
    if (!args.traceRecord.empty())
        return recordAndReplayRows(specs, designs, args);
    return sweepRows(specs, designs, args.jobs);
}

FigureRow
sweepDesigns(const std::string &workloadName, const SimConfig &cfg,
             const WorkloadFactory &make, const BenchArgs &args)
{
    return sweepRows({{workloadName, cfg, make}}, args).front();
}

BenchJsonEntry
jsonEntry(const std::string &workload, const std::string &label,
          const RunResult &run, double normRuntime)
{
    BenchJsonEntry e;
    e.workload = workload;
    e.design = label;
    e.runtimeCycles = run.runtimeCycles;
    e.normRuntime = normRuntime;
    e.energyMj = run.energyMj;
    e.nvmDataAccesses = run.nvmDataAccesses;
    e.nvmRedAccesses = run.nvmRedAccesses;
    e.cacheAccesses = run.cacheAccesses;
    return e;
}

std::vector<BenchJsonEntry>
jsonEntries(const std::vector<FigureRow> &rows)
{
    std::vector<BenchJsonEntry> entries;
    for (const FigureRow &row : rows) {
        for (const RunResult &r : row.results) {
            entries.push_back(jsonEntry(row.workload,
                                        r.design->displayName(), r,
                                        normRuntime(row, *r.design)));
        }
    }
    return entries;
}

namespace {

/** Minimal JSON string escape: the labels only contain printable
 *  ASCII, but quote/backslash must never corrupt the file. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

}  // namespace

void
writeBenchJson(const BenchArgs &args,
               const std::vector<BenchJsonEntry> &entries)
{
    if (!args.json)
        return;

    double wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - args.start).count();

    std::filesystem::create_directories("results");
    std::string path = "results/bench_" + args.benchName + ".json";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }

    std::size_t jobs = args.jobs == 0 ? defaultJobs() : args.jobs;
    out << "{\n"
        << "  \"bench\": \"" << jsonEscape(args.benchName) << "\",\n"
        << "  \"scale\": " << args.scale << ",\n"
        << "  \"jobs\": " << jobs << ",\n"
        << "  \"wall_seconds\": " << wall << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < entries.size(); i++) {
        const BenchJsonEntry &e = entries[i];
        out << "    {\"workload\": \"" << jsonEscape(e.workload)
            << "\", \"design\": \"" << jsonEscape(e.design)
            << "\", \"runtime_cycles\": " << e.runtimeCycles
            << ", \"norm_runtime\": " << e.normRuntime
            << ", \"energy_mj\": " << e.energyMj
            << ", \"nvm_data_accesses\": " << e.nvmDataAccesses
            << ", \"nvm_red_accesses\": " << e.nvmRedAccesses
            << ", \"cache_accesses\": " << e.cacheAccesses << "}"
            << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "  wrote %s\n", path.c_str());
}

}  // namespace tvarak::bench
