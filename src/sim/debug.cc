#include "sim/debug.hh"

#include <array>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "sim/logging.hh"

namespace noc::debug
{

namespace
{

constexpr auto kNum =
    static_cast<std::size_t>(Category::NumCategories);

std::array<bool, kNum> g_enabled{};
// The parallel sweep runner calls enabled() from worker threads, so
// the lazy environment parse must be race-free: the flag is flipped
// with release ordering only after g_enabled is fully written, and a
// mutex serialises the (rare) first-use parse.
std::atomic<bool> g_parsedEnv{false};
std::mutex g_parseMutex;

} // namespace

const char *
categoryName(Category c)
{
    switch (c) {
      case Category::Sched: return "sched";
      case Category::Reset: return "reset";
      case Category::La: return "la";
      case Category::Data: return "data";
      case Category::Gsf: return "gsf";
      case Category::NumCategories: break;
    }
    return "?";
}

void
configure(const std::string &spec)
{
    g_enabled.fill(false);
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string tok = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!tok.empty()) {
            if (tok == "all") {
                g_enabled.fill(true);
            } else {
                bool known = false;
                for (std::size_t i = 0; i < kNum; ++i) {
                    if (tok == categoryName(
                                    static_cast<Category>(i))) {
                        g_enabled[i] = true;
                        known = true;
                    }
                }
                if (!known)
                    warn("unknown debug category '%s'", tok.c_str());
            }
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    g_parsedEnv.store(true, std::memory_order_release);
}

void
configureFromEnv()
{
    const char *env = std::getenv("LOFT_DEBUG");
    configure(env ? env : "");
}

bool
enabled(Category c)
{
    if (!g_parsedEnv.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(g_parseMutex);
        if (!g_parsedEnv.load(std::memory_order_relaxed))
            configureFromEnv();
    }
    return g_enabled[static_cast<std::size_t>(c)];
}

void
print(Category c, Cycle now, const char *fmt, ...)
{
    std::fprintf(stderr, "%10llu: [%s] ",
                 static_cast<unsigned long long>(now),
                 categoryName(c));
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
}

} // namespace noc::debug
