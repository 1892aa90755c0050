/**
 * @file
 * Tests of the benchmark itself: the replay path reproduces
 * runExperiment, seeds repeat bit-exactly and differ from each other,
 * and the printed metric names are exactly those of BENCHMARK.json.
 *
 *   cmake --build .bench_build --target perfbench_tests
 *   .bench_build/perfbench_tests
 */

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "harness/sweep.hh"
#include "perfbench.hh"

namespace
{

using namespace perfbench;

/** The workload's runs, shortened so a test stays fast. */
std::vector<RunSpec>
shortRuns(Workload w, std::uint64_t seed)
{
    std::vector<RunSpec> runs = workloadRuns(w, seed);
    for (RunSpec &s : runs) {
        s.config.warmupCycles = 200;
        s.config.measureCycles = 400;
    }
    return runs;
}

std::string
fingerprint(const noc::RunResult &r)
{
    return noc::sweepFingerprint(r);
}

class PerWorkload : public ::testing::TestWithParam<Workload>
{
};

TEST_P(PerWorkload, ReplayReproducesRunExperiment)
{
    for (const RunSpec &s : shortRuns(GetParam(), 3)) {
        const noc::RunResult ref =
            noc::runExperiment(s.config, s.pattern, s.rates);
        ASSERT_GT(ref.totalPackets, 0u) << s.label;
        EXPECT_EQ(fingerprint(replayRun(s, {}).result), fingerprint(ref))
            << s.label;

        // The traced form: chunked, counted, with spans.
        SpanRecorder spans;
        ReplayOptions traced;
        traced.chunkCycles = 7;
        traced.countEvents = true;
        traced.spans = &spans;
        const ReplayResult tr = replayRun(s, traced);
        EXPECT_EQ(fingerprint(tr.result), fingerprint(ref)) << s.label;
        EXPECT_EQ(tr.chunkSeconds.size(), (400u + 6u) / 7u);
        EXPECT_GT(tr.measureEvents.events, 0u);
        EXPECT_GT(spans.size(), 5u);
    }
}

TEST_P(PerWorkload, SameSeedRepeatsOtherSeedDiffers)
{
    auto fp = [](std::uint64_t seed) {
        std::vector<noc::RunResult> results;
        for (const RunSpec &s : shortRuns(GetParam(), seed))
            results.push_back(replayRun(s, {}).result);
        return workloadFingerprint(results);
    };
    const std::string a = fp(11);
    EXPECT_EQ(a, fp(11));
    EXPECT_NE(a, fp(12));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PerWorkload,
    ::testing::Values(Workload::LoftUniform16, Workload::LoftNeighbor32,
                      Workload::DosObserved8),
    [](const ::testing::TestParamInfo<Workload> &info) {
        return std::string(workloadName(info.param));
    });

/** The "name" values of one metric list of BENCHMARK.json. */
std::set<std::string>
manifestNames(const std::string &manifest, const std::string &list)
{
    const auto at = manifest.find("\"" + list + "\"");
    EXPECT_NE(at, std::string::npos) << list;
    const auto open = manifest.find('[', at);
    const auto close = manifest.find(']', open);
    const std::string body = manifest.substr(open, close - open);
    std::set<std::string> names;
    const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
    for (std::sregex_iterator it(body.begin(), body.end(), name_re), end;
         it != end; ++it)
        names.insert((*it)[1]);
    return names;
}

TEST(Manifest, PrintedMetricNamesMatchBenchmarkJson)
{
    std::ifstream f(PERFBENCH_MANIFEST);
    ASSERT_TRUE(f) << PERFBENCH_MANIFEST;
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string manifest = ss.str();

    const auto &e2e = endToEndMetricNames();
    const auto &layer = perLayerMetricNames();
    EXPECT_EQ(manifestNames(manifest, "end_to_end"),
              std::set<std::string>(e2e.begin(), e2e.end()));
    EXPECT_EQ(manifestNames(manifest, "per_layer"),
              std::set<std::string>(layer.begin(), layer.end()));
    const std::set<std::string> workloads = manifestNames(manifest,
                                                          "workloads");
    EXPECT_EQ(workloads, std::set<std::string>(workloadNames().begin(),
                                               workloadNames().end()));
}

TEST(Output, ResultJsonCarriesEveryMetric)
{
    Outcome o;
    o.attempted = 3;
    o.metrics = {{"setup_s", 0.25, "s"}, {"peak_rss_mb", 12.5, "MB"}};
    EXPECT_EQ(resultJson(o),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": "
              "\"s\"}, \"peak_rss_mb\": {\"value\": 12.5, \"unit\": "
              "\"MB\"}}}");
    o.failed = 1;
    EXPECT_NE(resultJson(o).find("\"correct\": false"), std::string::npos);
}

TEST(Stats, MedianAndPercentile)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
}

} // namespace
