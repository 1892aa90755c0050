/**
 * @file
 * perfbench: the LOFT simulator benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--reference FILE] [--span-file PATH]
 *   perfbench --reference-line NAME --seed N
 *
 * With --trace 0 it prints the end-to-end metrics of NAME, with
 * --trace 1 the per-layer metrics of a separate traced run (and writes
 * its Chrome-trace spans to --span-file). The last output line is one
 * JSON object {"correct", "attempted", "failed", "metrics"}; the exit
 * code is 1 when any output check failed. --reference-line prints the
 * reference fingerprint line of (NAME, N), computed through
 * runExperiment.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.hh"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--reference FILE] [--span-file PATH]\n"
                 "       %s --reference-line NAME --seed N\n"
                 "workloads:",
                 argv0, argv0);
    for (const std::string &w : perfbench::workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, reference, span_file, reference_line;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        const auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *arg = argv[i];
        const char *val = next();
        if (!val)
            return usage(argv[0]);
        if (!std::strcmp(arg, "--workload"))
            workload = val;
        else if (!std::strcmp(arg, "--seed"))
            seed = std::strtoull(val, nullptr, 10);
        else if (!std::strcmp(arg, "--seconds"))
            seconds = std::atof(val);
        else if (!std::strcmp(arg, "--trace"))
            trace = std::atoi(val);
        else if (!std::strcmp(arg, "--reference"))
            reference = val;
        else if (!std::strcmp(arg, "--span-file"))
            span_file = val;
        else if (!std::strcmp(arg, "--reference-line"))
            reference_line = val;
        else
            return usage(argv[0]);
    }

    if (!reference_line.empty()) {
        const auto w = perfbench::parseWorkload(reference_line);
        if (!w)
            return usage(argv[0]);
        std::printf("%s\n", perfbench::referenceLine(*w, seed).c_str());
        return 0;
    }

    const auto w = perfbench::parseWorkload(workload);
    if (!w || seconds <= 0.0 || (trace != 0 && trace != 1))
        return usage(argv[0]);
    const perfbench::ReferenceTable refs =
        perfbench::loadReferences(reference);
    if (!reference.empty() && refs.empty()) {
        std::fprintf(stderr, "perfbench: no reference fingerprints in %s\n",
                     reference.c_str());
        return 2;
    }

    const perfbench::Outcome o =
        trace ? perfbench::measurePerLayer(*w, seed, seconds, refs,
                                           span_file)
              : perfbench::measureEndToEnd(*w, seed, seconds, refs);
    for (const std::string &p : o.problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());
    for (const perfbench::Metric &m : o.metrics)
        std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%s\n", perfbench::resultJson(o).c_str());
    std::fflush(stdout);
    return o.correct() ? 0 : 1;
}
