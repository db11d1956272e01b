/**
 * @file
 * Parallel experiment engine tests: results arrive in submission
 * order, statistics are bit-identical for every worker count (the
 * property that makes --jobs safe to default on), and the edge cases
 * (empty batch, more workers than jobs) behave.
 *
 * Deliberately uses only the runExperiments() API — tvarak-lint rule
 * R6 confines raw threading primitives to src/harness/.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/parallel.hh"
#include "redundancy/registry.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

/** Small DAX read/write workload; step count varies per job so every
 *  job produces distinct statistics. */
class ChurnWorkload final : public Workload
{
  public:
    ChurnWorkload(MemorySystem &mem, DaxFs &fs, int tid, int steps)
        : mem_(mem), fs_(fs), tid_(tid), steps_(steps)
    {}

    void setup() override
    {
        constexpr std::size_t kFilePages = 8;
        int fd = fs_.create("churn" + std::to_string(tid_),
                            kFilePages * kPageBytes);
        base_ = fs_.daxMap(fd);
    }

    bool step() override
    {
        constexpr Addr kWordBytes = sizeof(std::uint64_t);
        Addr a = base_ + kWordBytes * ((stepsRun_ * 7) % 512);
        mem_.write64(tid_, a, static_cast<std::uint64_t>(stepsRun_));
        (void)mem_.read64(tid_, a);
        stepsRun_++;
        return stepsRun_ < steps_;
    }

    int tid() const override { return tid_; }
    std::string name() const override { return "churn"; }

  private:
    MemorySystem &mem_;
    DaxFs &fs_;
    int tid_;
    int steps_;
    Addr base_ = 0;
    int stepsRun_ = 0;
};

WorkloadFactory
churnFactory(int steps)
{
    return [steps](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<ChurnWorkload>(mem, fs, 0, steps));
        set.workloads.push_back(
            std::make_unique<ChurnWorkload>(mem, fs, 1, steps / 2));
        return set;
    };
}

std::vector<ExperimentJob>
mixedBatch()
{
    SimConfig cfg = test::smallConfig();
    std::vector<ExperimentJob> jobs;
    int steps = 100;
    for (const Design *d : paperDesigns()) {
        jobs.push_back({std::string("churn-") + d->displayName(), cfg, d,
                        churnFactory(steps)});
        steps += 60;  // distinct stats per job
    }
    return jobs;
}

TEST(Parallel, JobsInvariantBitIdenticalStats)
{
    // The ISSUE acceptance criterion: jobs=1 vs jobs=4 produce
    // identical Stats dumps for every experiment in the batch.
    auto jobs = mixedBatch();
    auto seq = runExperiments(jobs, 1);
    auto par = runExperiments(jobs, 4);
    ASSERT_EQ(seq.size(), jobs.size());
    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        EXPECT_EQ(statsDiff(seq[i].stats, par[i].stats), "")
            << jobs[i].label;
        EXPECT_EQ(seq[i].runtimeCycles, par[i].runtimeCycles);
        EXPECT_EQ(seq[i].design, par[i].design);
        EXPECT_DOUBLE_EQ(seq[i].energyMj, par[i].energyMj);
    }
}

TEST(Parallel, ResultsInSubmissionOrder)
{
    // Every result slot must hold its own job's outcome, not whichever
    // experiment finished first.
    auto jobs = mixedBatch();
    auto results = runExperiments(jobs, 3);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); i++) {
        EXPECT_EQ(results[i].design, jobs[i].design);
        RunResult direct = runExperiment(jobs[i].cfg, *jobs[i].design,
                                         jobs[i].make);
        EXPECT_EQ(statsDiff(results[i].stats, direct.stats), "")
            << jobs[i].label;
    }
}

TEST(Parallel, EmptyBatch)
{
    EXPECT_TRUE(runExperiments({}, 4).empty());
    EXPECT_TRUE(runExperiments({}).empty());
}

TEST(Parallel, MoreWorkersThanJobs)
{
    auto jobs = mixedBatch();
    jobs.resize(2);
    auto results = runExperiments(jobs, 64);
    ASSERT_EQ(results.size(), 2u);
    RunResult direct =
        runExperiment(jobs[0].cfg, *jobs[0].design, jobs[0].make);
    EXPECT_EQ(statsDiff(results[0].stats, direct.stats), "");
}

TEST(Parallel, ZeroWorkersMeansHardwareConcurrency)
{
    EXPECT_GE(defaultJobs(), 1u);
    auto jobs = mixedBatch();
    jobs.resize(1);
    auto results = runExperiments(jobs, 0);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].design, jobs[0].design);
}

}  // namespace
}  // namespace tvarak
