/**
 * @file
 * Runtime debug tracing in the gem5 style: named categories that are
 * compiled in but gated by a cheap runtime check, enabled through the
 * LOFT_DEBUG environment variable (comma-separated category names, or
 * "all"). Output lines carry the cycle and category:
 *
 *     LOFT_DEBUG=sched,reset ./build/examples/quickstart
 *
 * Usage in code:
 *     DPRINTF(Sched, now, "flow %u granted slot %llu", flow, slot);
 */

#ifndef NOC_SIM_DEBUG_HH
#define NOC_SIM_DEBUG_HH

#include <string>

#include "sim/types.hh"

namespace noc::debug
{

/** Trace categories. Extend here and in categoryName(). */
enum class Category : unsigned
{
    Sched,   ///< LSF output-scheduler grants/throttles
    Reset,   ///< local status resets
    La,      ///< look-ahead network events
    Data,    ///< data-plane switching
    Gsf,     ///< GSF barrier and source quota events
    NumCategories,
};

/** Human-readable name of a category (lower case). */
const char *categoryName(Category c);

/** True if tracing for @p c is enabled. */
bool enabled(Category c);

/** (Re)parse an enable string ("sched,reset" or "all" or ""). */
void configure(const std::string &spec);

/** Parse LOFT_DEBUG from the environment (done lazily on first use). */
void configureFromEnv();

/** Emit one trace line (used via the DPRINTF macro). */
void print(Category c, Cycle now, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

} // namespace noc::debug

/**
 * Trace macro: evaluates its arguments only when the category is on.
 */
#define DPRINTF(category, now, ...)                                     \
    do {                                                                \
        if (::noc::debug::enabled(::noc::debug::Category::category)) {  \
            ::noc::debug::print(::noc::debug::Category::category,       \
                                (now), __VA_ARGS__);                    \
        }                                                               \
    } while (0)

#endif // NOC_SIM_DEBUG_HH
