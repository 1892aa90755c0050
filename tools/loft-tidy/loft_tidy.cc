/**
 * @file
 * loft-tidy driver.
 *
 * Runs the five LOFT protocol-invariant checks (see checks.hh and
 * docs/LINT.md) over a set of source files and prints clang-tidy
 * compatible diagnostics:
 *
 *     path:line:col: warning: message [check-name]
 *
 * Exit status: 0 = clean, 1 = diagnostics emitted, 2 = usage/IO error.
 *
 * The engine is self-contained (a lexical analyzer, no libclang
 * dependency) so it runs on any toolchain image; the CMake target
 * `loft-tidy` builds it in seconds and `scripts/run_lint.sh` diffs its
 * output against tools/loft-tidy/baseline.txt.
 *
 * Project headers reached through quoted includes are loaded
 * transitively for *declarations only* (so `foo.cc` iterating a member
 * declared in `foo.hh` is caught); diagnostics are emitted only for
 * the files named on the command line.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checks.hh"
#include "lexer.hh"

namespace fs = std::filesystem;
using namespace loft_tidy;

namespace
{

struct Options
{
    std::vector<std::string> files;
    std::set<std::string> checks; ///< empty = all
    std::string projectRoot = ".";
    std::string compileCommands;
    bool listChecks = false;
    bool quiet = false;
    bool noIncludes = false;
    bool timeReport = false;
    std::string rngType = "Rng";
    std::string clockedBase = "Clocked";
};

const char *const kAllChecks[] = {
    kCheckUnorderedIteration,
    kCheckRngDiscipline,
    kCheckClockedComponent,
    kCheckSteadyStateAlloc,
    kCheckPhaseDiscipline,
    kCheckCrossDomainChannel,
    kCheckStaleSuppression,
};

void
usage(std::ostream &os)
{
    os << "usage: loft-tidy [options] file...\n"
          "  --checks=a,b        comma-separated subset (default: all)\n"
          "  --list-checks       print known checks and exit\n"
          "  --project-root=DIR  root for quoted-include resolution\n"
          "  --compile-commands=FILE\n"
          "                      cross-check inputs against the\n"
          "                      compilation database (warn on src/\n"
          "                      files the build knows but the lint\n"
          "                      run does not cover)\n"
          "  --no-includes       do not load project headers of inputs\n"
          "  --rng-type=NAME     sim RNG type name (default: Rng)\n"
          "  --clocked-base=NAME clock base class (default: Clocked)\n"
          "  --time-report       print parse/include-graph and\n"
          "                      per-check wall time to stderr\n"
          "  --quiet             suppress the summary line\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            std::size_t n = std::strlen(prefix);
            return a.compare(0, n, prefix) == 0 ? a.c_str() + n
                                                : nullptr;
        };
        if (a == "--help" || a == "-h") {
            usage(std::cout);
            std::exit(0);
        } else if (a == "--list-checks") {
            opt.listChecks = true;
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (a == "--no-includes") {
            opt.noIncludes = true;
        } else if (a == "--time-report") {
            opt.timeReport = true;
        } else if (const char *v = value("--checks=")) {
            std::string s = v;
            std::size_t pos = 0;
            while (pos <= s.size()) {
                std::size_t comma = s.find(',', pos);
                if (comma == std::string::npos)
                    comma = s.size();
                if (comma > pos)
                    opt.checks.insert(s.substr(pos, comma - pos));
                pos = comma + 1;
            }
        } else if (const char *v = value("--project-root=")) {
            opt.projectRoot = v;
        } else if (const char *v = value("--compile-commands=")) {
            opt.compileCommands = v;
        } else if (const char *v = value("--rng-type=")) {
            opt.rngType = v;
        } else if (const char *v = value("--clocked-base=")) {
            opt.clockedBase = v;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "loft-tidy: unknown option '" << a << "'\n";
            return false;
        } else {
            opt.files.push_back(a);
        }
    }
    for (const std::string &c : opt.checks) {
        if (std::find_if(std::begin(kAllChecks), std::end(kAllChecks),
                         [&](const char *k) { return c == k; }) ==
            std::end(kAllChecks)) {
            std::cerr << "loft-tidy: unknown check '" << c << "'\n";
            return false;
        }
    }
    return true;
}

std::string
canon(const std::string &p)
{
    std::error_code ec;
    fs::path c = fs::weakly_canonical(p, ec);
    return ec ? p : c.string();
}

/** Resolve a quoted include against the project layout. Memoized on
 *  (includer directory, include text): the same header is resolved
 *  once per unit pass and again for the include graph, and the
 *  fs::exists probes dominate the engine's I/O time. */
std::string
resolveInclude(const Options &opt, const std::string &includer,
               const std::string &inc)
{
    static std::map<std::pair<std::string, std::string>, std::string>
        cache;
    const std::string dir = fs::path(includer).parent_path().string();
    const auto key = std::make_pair(dir, inc);
    auto hit = cache.find(key);
    if (hit != cache.end())
        return hit->second;
    const fs::path candidates[] = {
        fs::path(opt.projectRoot) / "src" / inc,
        fs::path(dir) / inc,
        fs::path(opt.projectRoot) / inc,
        fs::path(opt.projectRoot) / "tools" / "loft-tidy" / inc,
    };
    std::string resolved;
    for (const fs::path &c : candidates) {
        std::error_code ec;
        if (fs::exists(c, ec) && !ec) {
            resolved = canon(c.string());
            break;
        }
    }
    cache.emplace(key, resolved);
    return resolved;
}

/** Minimal "file": "..." extraction from compile_commands.json. */
std::vector<std::string>
compileCommandFiles(const std::string &path)
{
    std::vector<std::string> out;
    std::string text;
    if (!readFile(path, text))
        return out;
    std::size_t pos = 0;
    while ((pos = text.find("\"file\"", pos)) != std::string::npos) {
        pos = text.find(':', pos);
        if (pos == std::string::npos)
            break;
        std::size_t q1 = text.find('"', pos);
        if (q1 == std::string::npos)
            break;
        std::size_t q2 = text.find('"', q1 + 1);
        if (q2 == std::string::npos)
            break;
        out.push_back(text.substr(q1 + 1, q2 - q1 - 1));
        pos = q2 + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage(std::cerr);
        return 2;
    }
    if (opt.listChecks) {
        for (const char *c : kAllChecks)
            std::cout << c << "\n";
        return 0;
    }
    if (opt.files.empty()) {
        std::cerr << "loft-tidy: no input files\n";
        usage(std::cerr);
        return 2;
    }

    using Clock = std::chrono::steady_clock;
    const auto msSince = [](Clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(
                   Clock::now() - t0)
            .count();
    };
    const auto tLoad = Clock::now();

    Context ctx;
    ctx.rngType = opt.rngType;
    ctx.clockedBase = opt.clockedBase;

    std::set<std::string> loaded;
    for (const std::string &f : opt.files) {
        std::string text;
        if (!readFile(f, text)) {
            std::cerr << "loft-tidy: cannot read '" << f << "'\n";
            return 2;
        }
        const std::string cp = canon(f);
        if (!loaded.insert(cp).second)
            continue; // duplicate input
        FileUnit unit = lex(f, text);
        unit.canonPath = cp;
        ctx.units.push_back(std::move(unit));
    }

    // Load project headers transitively, declarations only.
    if (!opt.noIncludes) {
        std::vector<std::pair<std::string, std::string>> work;
        for (const FileUnit &u : ctx.units)
            for (const std::string &inc : u.quotedIncludes)
                work.emplace_back(u.canonPath, inc);
        while (!work.empty()) {
            auto [from, inc] = work.back();
            work.pop_back();
            const std::string path = resolveInclude(opt, from, inc);
            if (path.empty() || !loaded.insert(path).second)
                continue;
            std::string text;
            if (!readFile(path, text))
                continue;
            FileUnit unit = lex(path, text);
            unit.canonPath = path;
            for (const std::string &next : unit.quotedIncludes)
                work.emplace_back(path, next);
            ctx.auxUnits.push_back(std::move(unit));
        }
    }

    // Per-unit transitive include graph (declaration visibility).
    // Built only after both unit vectors are final: includesOf holds
    // raw pointers into them.
    {
        std::map<std::string, const FileUnit *> byPath;
        for (const FileUnit &u : ctx.units)
            byPath[u.canonPath] = &u;
        for (const FileUnit &u : ctx.auxUnits)
            byPath[u.canonPath] = &u;
        ctx.includesOf.resize(ctx.units.size());
        for (std::size_t i = 0; i < ctx.units.size(); ++i) {
            std::set<const FileUnit *> seen;
            std::vector<const FileUnit *> work2{&ctx.units[i]};
            while (!work2.empty()) {
                const FileUnit *u = work2.back();
                work2.pop_back();
                for (const std::string &inc : u->quotedIncludes) {
                    const std::string p =
                        resolveInclude(opt, u->canonPath, inc);
                    auto it = byPath.find(p);
                    if (it == byPath.end() ||
                        !seen.insert(it->second).second)
                        continue;
                    ctx.includesOf[i].push_back(it->second);
                    work2.push_back(it->second);
                }
            }
        }
    }

    // Compilation-database coverage cross-check (advisory).
    if (!opt.compileCommands.empty()) {
        const std::string srcRoot =
            canon((fs::path(opt.projectRoot) / "src").string());
        for (const std::string &f :
             compileCommandFiles(opt.compileCommands)) {
            const std::string cf = canon(f);
            if (cf.compare(0, srcRoot.size(), srcRoot) == 0 &&
                !loaded.count(cf))
                std::cerr << "loft-tidy: note: " << cf
                          << " is in the compilation database but "
                             "not covered by this lint run\n";
        }
    }

    const double loadMs = msSince(tLoad);

    auto enabled = [&](const char *name) {
        return opt.checks.empty() || opt.checks.count(name) != 0;
    };

    std::vector<Diagnostic> diags;
    std::vector<std::pair<const char *, double>> checkMs;
    auto timed = [&](const char *name, auto &&fn) {
        if (!enabled(name))
            return;
        const auto t0 = Clock::now();
        fn();
        checkMs.emplace_back(name, msSince(t0));
    };
    timed(kCheckUnorderedIteration,
          [&] { checkUnorderedIteration(ctx, diags); });
    timed(kCheckRngDiscipline, [&] { checkRngDiscipline(ctx, diags); });
    timed(kCheckClockedComponent,
          [&] { checkClockedComponent(ctx, diags); });
    timed(kCheckSteadyStateAlloc,
          [&] { checkSteadyStateAlloc(ctx, diags); });
    timed(kCheckPhaseDiscipline,
          [&] { checkPhaseDiscipline(ctx, diags); });
    timed(kCheckCrossDomainChannel,
          [&] { checkCrossDomainChannel(ctx, diags); });
    // Last: it audits the suppression hits the other checks recorded.
    {
        std::set<std::string> ran;
        for (const auto &[name, ms] : checkMs)
            ran.insert(name);
        timed(kCheckStaleSuppression,
              [&] { checkStaleSuppression(ctx, ran, diags); });
    }

    if (opt.timeReport) {
        std::cerr << "loft-tidy: time: parse+includes "
                  << static_cast<long>(loadMs + 0.5) << " ms";
        for (const auto &[name, ms] : checkMs)
            std::cerr << ", " << name << " "
                      << static_cast<long>(ms + 0.5) << " ms";
        std::cerr << "\n";
    }

    std::sort(diags.begin(), diags.end());
    diags.erase(std::unique(diags.begin(), diags.end(),
                            [](const Diagnostic &a, const Diagnostic &b) {
                                return !(a < b) && !(b < a);
                            }),
                diags.end());

    for (const Diagnostic &d : diags)
        std::cout << d.file << ":" << d.line << ":" << d.col
                  << ": warning: " << d.message << " [" << d.check
                  << "]\n";
    if (!opt.quiet)
        std::cerr << "loft-tidy: " << diags.size() << " warning"
                  << (diags.size() == 1 ? "" : "s") << " over "
                  << ctx.units.size() << " file"
                  << (ctx.units.size() == 1 ? "" : "s") << " ("
                  << ctx.auxUnits.size()
                  << " headers loaded for declarations)\n";
    return diags.empty() ? 0 : 1;
}
