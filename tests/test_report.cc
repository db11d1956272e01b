/**
 * @file
 * Golden-file tests for the harness report printers. The bench
 * drivers' human tables and csv lines are parsed by plotting scripts
 * and eyeballed in CI logs, so the exact formatting (column widths,
 * precision, normalization) is pinned here against synthetic rows
 * with hand-checkable values.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/report.hh"
#include "redundancy/registry.hh"

namespace tvarak {
namespace {

const Design &kBaseline = designOf(DesignKind::Baseline);
const Design &kTvarak = designOf(DesignKind::Tvarak);
const Design &kTxBObject = designOf(DesignKind::TxBObjectCsums);
const Design &kTxBPage = designOf(DesignKind::TxBPageCsums);

RunResult
makeResult(const Design &d, Cycles cycles, double energyMj,
           std::uint64_t data, std::uint64_t red, std::uint64_t cache)
{
    RunResult r;
    r.design = &d;
    r.runtimeCycles = cycles;
    r.energyMj = energyMj;
    r.nvmDataAccesses = data;
    r.nvmRedAccesses = red;
    r.cacheAccesses = cache;
    return r;
}

/** Two workloads; "beta" lacks the TxB designs (the "-" cells). */
std::vector<FigureRow>
sampleRows()
{
    FigureRow alpha;
    alpha.workload = "alpha";
    alpha.add(makeResult(kBaseline, 1000, 1.0, 100, 0, 1000));
    alpha.add(makeResult(kTvarak, 1250, 1.5, 100, 50, 1200));
    alpha.add(makeResult(kTxBObject, 1500, 2.0, 100, 100, 1400));
    alpha.add(makeResult(kTxBPage, 2000, 4.0, 100, 300, 1600));

    FigureRow beta;
    beta.workload = "beta";
    beta.add(makeResult(kBaseline, 500, 0.5, 40, 0, 800));
    beta.add(makeResult(kTvarak, 600, 0.8, 40, 10, 880));
    return {alpha, beta};
}

TEST(Report, NormRuntime)
{
    auto rows = sampleRows();
    EXPECT_DOUBLE_EQ(normRuntime(rows[0], kBaseline), 1.0);
    EXPECT_DOUBLE_EQ(normRuntime(rows[0], kTvarak), 1.25);
    EXPECT_DOUBLE_EQ(normRuntime(rows[1], kTvarak), 1.2);
}

TEST(Report, FigureGroupGolden)
{
    testing::internal::CaptureStdout();
    printFigureGroup("Fig X: sample", sampleRows());
    std::string out = testing::internal::GetCapturedStdout();
    const std::string golden = R"(
== Fig X: sample ==

  Runtime (normalized to Baseline)
  workload                             Baseline             Tvarak   TxB-Object-Csums     TxB-Page-Csums
  alpha                                   1.000              1.250              1.500              2.000
  beta                                    1.000              1.200                  -                  -

  Energy (normalized to Baseline)
  workload                             Baseline             Tvarak   TxB-Object-Csums     TxB-Page-Csums
  alpha                                   1.000              1.500              2.000              4.000
  beta                                    1.000              1.600                  -                  -

  NVM accesses (normalized to Baseline)
  workload                             Baseline             Tvarak   TxB-Object-Csums     TxB-Page-Csums
  alpha                                   1.000              1.500              2.000              4.000
  beta                                    1.000              1.250                  -                  -

  Cache accesses (normalized to Baseline)
  workload                             Baseline             Tvarak   TxB-Object-Csums     TxB-Page-Csums
  alpha                                   1.000              1.200              1.400              1.600
  beta                                    1.000              1.100                  -                  -

  NVM access split (absolute, data + redundancy)
  alpha                      Baseline           data=100          red=0
  alpha                      Tvarak             data=100          red=50
  alpha                      TxB-Object-Csums   data=100          red=100
  alpha                      TxB-Page-Csums     data=100          red=300
  beta                       Baseline           data=40           red=0
  beta                       Tvarak             data=40           red=10
)";
    EXPECT_EQ(out, golden);
}

/**
 * Rows with fault activity grow a resilience section; the all-zero
 * rows of FigureGroupGolden above pin that fault-free benches do not.
 */
TEST(Report, ResilienceSectionGolden)
{
    auto rows = sampleRows();
    // Column order: Baseline, then Tvarak.
    ASSERT_EQ(rows[0].results[1].design, &kTvarak);
    ASSERT_EQ(rows[1].results[1].design, &kTvarak);
    Stats &tv = rows[0].results[1].stats;
    tv.corruptionsDetected = 3;
    tv.recoveries = 3;
    tv.degradedReads = 19390;
    tv.degradedReadsMulti = 421;
    tv.degradedWritesDropped = 12;
    tv.degradedRedSkips = 7;
    tv.rebuildLines = 1572864;
    tv.rebuildRestarts = 2;
    tv.scrubLines = 4096;
    tv.scrubRepairs = 1;
    Stats &pg = rows[1].results[1].stats;
    pg.scrubLines = 128;

    testing::internal::CaptureStdout();
    printResilienceSection(rows);
    std::string out = testing::internal::GetCapturedStdout();
    const std::string golden = R"(
  Resilience events (absolute; faults, recovery, degraded mode)
  alpha                      Tvarak             det=3        rec=3        dread=19390    mread=421      wdrop=12       rskip=7        rebuild=1572864    restart=2    scrub=4096       fix=1
  beta                       Tvarak             det=0        rec=0        dread=0        mread=0        wdrop=0        rskip=0        rebuild=0          restart=0    scrub=128        fix=0
)";
    EXPECT_EQ(out, golden);

    // Event-free rows print nothing at all (no header, no blank line).
    testing::internal::CaptureStdout();
    printResilienceSection(sampleRows());
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");

    // printFigureGroup appends the section when events are present.
    testing::internal::CaptureStdout();
    printFigureGroup("Fig Z: faulty", rows);
    out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("Resilience events"), std::string::npos);
    EXPECT_NE(out.find("rebuild=1572864"), std::string::npos);
}

TEST(Report, FigureCsvGolden)
{
    testing::internal::CaptureStdout();
    printFigureCsv("fig_x", sampleRows());
    std::string out = testing::internal::GetCapturedStdout();
    const std::string golden = R"(
csv,fig_x,workload,design,runtime_cycles,norm_runtime,energy_mj,nvm_data,nvm_red,cache_accesses
csv,fig_x,alpha,Baseline,1000,1.0000,1.0000,100,0,1000
csv,fig_x,alpha,Tvarak,1250,1.2500,1.5000,100,50,1200
csv,fig_x,alpha,TxB-Object-Csums,1500,1.5000,2.0000,100,100,1400
csv,fig_x,alpha,TxB-Page-Csums,2000,2.0000,4.0000,100,300,1600
csv,fig_x,beta,Baseline,500,1.0000,0.5000,40,0,800
csv,fig_x,beta,Tvarak,600,1.2000,0.8000,40,10,880
)";
    EXPECT_EQ(out, golden);
}

/**
 * A Fig-9 variant measured next to plain TVARAK keeps its own column
 * and csv line under its own name, in registry order after the paper
 * four, whatever order the runs were added in.
 */
TEST(Report, VariantGetsItsOwnColumn)
{
    const Design &naive = *findDesign("tvarak-naive");
    FigureRow row;
    row.workload = "gamma";
    row.add(makeResult(naive, 4000, 3.0, 100, 400, 2000));
    row.add(makeResult(kTvarak, 1100, 1.2, 100, 20, 1100));
    row.add(makeResult(kBaseline, 1000, 1.0, 100, 0, 1000));
    ASSERT_EQ(row.results.size(), 3u);
    EXPECT_EQ(row.find(naive)->runtimeCycles, 4000u);
    EXPECT_EQ(row.find(kTvarak)->runtimeCycles, 1100u);
    EXPECT_EQ(row.find(kTxBPage), nullptr);

    testing::internal::CaptureStdout();
    printFigureGroup("Fig V: variants", {row});
    std::string out = testing::internal::GetCapturedStdout();
    const std::string runtimePanel = R"(
  Runtime (normalized to Baseline)
  workload                             Baseline             Tvarak   TxB-Object-Csums     TxB-Page-Csums       Tvarak-Naive
  gamma                                   1.000              1.100                  -                  -              4.000
)";
    EXPECT_NE(out.find(runtimePanel), std::string::npos) << out;

    testing::internal::CaptureStdout();
    printFigureCsv("fig_v", {row});
    out = testing::internal::GetCapturedStdout();
    const std::string golden = R"(
csv,fig_v,workload,design,runtime_cycles,norm_runtime,energy_mj,nvm_data,nvm_red,cache_accesses
csv,fig_v,gamma,Baseline,1000,1.0000,1.0000,100,0,1000
csv,fig_v,gamma,Tvarak,1100,1.1000,1.2000,100,20,1100
csv,fig_v,gamma,Tvarak-Naive,4000,4.0000,3.0000,100,400,2000
)";
    EXPECT_EQ(out, golden);
}

TEST(Report, RuntimeTableGolden)
{
    testing::internal::CaptureStdout();
    printRuntimeTable("Fig Y: sensitivity", {"cfg-a", "cfg-b"},
                      {"stream", "ctree"},
                      {{1.0, 1.125}, {1.25, 1.5}});
    std::string out = testing::internal::GetCapturedStdout();
    const std::string golden = R"(
== Fig Y: sensitivity ==
  workload                              cfg-a            cfg-b
  stream                                1.000            1.125
  ctree                                 1.250            1.500
)";
    EXPECT_EQ(out, golden);
}

}  // namespace
}  // namespace tvarak
