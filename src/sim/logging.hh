/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic()  - an internal simulator bug: something that must never happen
 *            regardless of user input. Aborts.
 * fatal()  - the simulation cannot continue due to a user error (bad
 *            configuration, invalid arguments). Exits with code 1.
 * warn()   - something is questionable but the run continues.
 */

#ifndef NOC_SIM_LOGGING_HH
#define NOC_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace noc
{

/** Print an error for an internal bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print an error for a user/configuration problem and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning; the simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace noc

#endif // NOC_SIM_LOGGING_HH
