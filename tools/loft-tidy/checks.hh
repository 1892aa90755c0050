/**
 * @file
 * The LOFT protocol-invariant checks and their shared scaffolding.
 *
 * Each check mirrors the clang-tidy check of the same name described in
 * docs/LINT.md and emits clang-tidy-compatible diagnostics
 * (`file:line:col: warning: message [check-name]`). Suppression follows
 * clang-tidy conventions: `// NOLINT(check)` on the flagged line or
 * `// NOLINTNEXTLINE(check)` on the line above.
 *
 * Structural expectations are communicated through `loft-tidy:`
 * annotation comments:
 *   - `loft-tidy: clocked-base`             intentional non-final
 *     intermediate Clocked base class;
 *   - `loft-tidy: steady-state-hot`         function runs every cycle
 *     in the measurement window and must not heap-allocate;
 *   - `loft-tidy: pooled(reason)`           a flagged line inside a
 *     hot function whose target capacity is pooled/reserved.
 *
 * The concurrency-contract vocabulary (docs/PARALLEL.md), consumed by
 * loft-phase-discipline and loft-cross-domain-channel:
 *   - `loft-tidy: phase-serial`             class-level: a keyless
 *     Clocked component ticked only in the serial prologue/epilogue,
 *     never inside the partitioned phase;
 *   - `loft-tidy: phase-pure`               a function (or, on a class,
 *     every method) that executes inside the partitioned phase and must
 *     obey its write discipline even though it is not reachable from a
 *     tick() in the same unit;
 *   - `loft-tidy: phase-shared(phase)`      a member or function owned
 *     by a serial phase (barrier/prologue/epilogue); any use from
 *     partitioned-phase code is diagnosed;
 *   - `loft-tidy: deferred-endpoint(seam)`  a cross-component handle
 *     whose mutations are buffered per domain and merged at the cycle
 *     barrier (a registered deferred seam) — legal to touch from the
 *     partitioned phase.
 */

#ifndef LOFT_TIDY_CHECKS_HH
#define LOFT_TIDY_CHECKS_HH

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "lexer.hh"

namespace loft_tidy
{

struct Diagnostic
{
    std::string file;
    int line = 0;
    int col = 0;
    std::string message;
    std::string check;

    bool operator<(const Diagnostic &o) const
    {
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        if (col != o.col)
            return col < o.col;
        if (check != o.check)
            return check < o.check;
        return message < o.message;
    }
};

/** A lexically discovered class/struct definition. */
struct ClassDecl
{
    std::string name;
    int line = 0;
    int col = 0;
    bool isFinal = false;
    std::vector<std::string> baseNames; ///< idents in the base clause
    std::size_t bodyBegin = 0;          ///< index of the '{'
    std::size_t bodyEnd = 0;            ///< index just past the '}'
};

/** One `loft-tidy: directive(arg)` annotation comment. */
struct Annotation
{
    int line = 0;
    std::string directive; ///< e.g. "deferred-endpoint"
    std::string arg;       ///< e.g. "ObserverMux" (may be empty)
};

/** A lexically discovered member-function definition (with a body). */
struct MethodDef
{
    std::string className; ///< enclosing / qualifying class
    std::string name;
    int line = 0;
    int col = 0;
    std::size_t bodyBegin = 0; ///< index of the body '{'
    std::size_t bodyEnd = 0;   ///< index just past the '}'
};

/** Per-unit parse results, computed once and shared across checks. */
struct UnitFacts
{
    std::vector<ClassDecl> classes;
    std::vector<Annotation> annotations;
    std::vector<MethodDef> methods;
};

/** Everything a check may look at. */
struct Context
{
    /** Units diagnostics are emitted for (the explicit inputs). */
    std::vector<FileUnit> units;
    /** Units loaded only for declarations (resolved project headers
     *  of the inputs); no diagnostics are emitted for these. */
    std::vector<FileUnit> auxUnits;
    /** Per input unit: the FileUnits of its transitive quoted
     *  includes (pointers into units or auxUnits). Declaration
     *  visibility is scoped through this graph so a name declared in
     *  an unrelated header cannot contaminate another unit. */
    std::vector<std::vector<const FileUnit *>> includesOf;
    /** Name of the simulator RNG type (loft-rng-stream-discipline). */
    std::string rngType = "Rng";
    /** Name of the clocked-component base (loft-clocked-component). */
    std::string clockedBase = "Clocked";
    /** Name of the observer-hook base (concurrency contract checks). */
    std::string observerBase = "NetObserver";
    /** Name of the barrier-merged base (concurrency contract checks). */
    std::string mergedBase = "DomainMerged";

    /** Classes/annotations/methods of @p u, parsed once per unit and
     *  memoized across checks (keyed by unit address; the unit vectors
     *  are frozen before checks run). */
    const UnitFacts &factsOf(const FileUnit &u) const;

  private:
    mutable std::map<const FileUnit *, UnitFacts> factsCache_;
};

/** Check names, as they appear in diagnostics and NOLINT lists. */
inline constexpr char kCheckUnorderedIteration[] =
    "loft-unordered-iteration-escape";
inline constexpr char kCheckRngDiscipline[] =
    "loft-rng-stream-discipline";
inline constexpr char kCheckClockedComponent[] =
    "loft-clocked-component";
inline constexpr char kCheckSteadyStateAlloc[] =
    "loft-steady-state-alloc";
inline constexpr char kCheckPhaseDiscipline[] =
    "loft-phase-discipline";
inline constexpr char kCheckCrossDomainChannel[] =
    "loft-cross-domain-channel";
inline constexpr char kCheckStaleSuppression[] =
    "loft-stale-suppression";

void checkUnorderedIteration(const Context &ctx,
                             std::vector<Diagnostic> &out);
void checkRngDiscipline(const Context &ctx,
                        std::vector<Diagnostic> &out);
void checkClockedComponent(const Context &ctx,
                           std::vector<Diagnostic> &out);
void checkSteadyStateAlloc(const Context &ctx,
                           std::vector<Diagnostic> &out);
void checkPhaseDiscipline(const Context &ctx,
                          std::vector<Diagnostic> &out);
void checkCrossDomainChannel(const Context &ctx,
                             std::vector<Diagnostic> &out);

/**
 * Stale-suppression audit (runs after the other checks): any
 * `NOLINT(loft-*)` / `NOLINTNEXTLINE(loft-*)` naming a check in
 * @p ranChecks that did not actually suppress a diagnostic at its
 * governed line this run is reported, keeping suppressions shrink-only
 * like baseline.txt. Bare `NOLINT` and wildcard lists are not audited.
 */
void checkStaleSuppression(const Context &ctx,
                           const std::set<std::string> &ranChecks,
                           std::vector<Diagnostic> &out);

// ---------------------------------------------------------------------
// Shared parsing helpers (defined in checks_common.cc)
// ---------------------------------------------------------------------

/** Index just past the matching closer for the opener at @p open. */
std::size_t skipBalanced(const FileUnit &u, std::size_t open,
                         const char *openTok, const char *closeTok);

/** All class/struct definitions (with bodies) in @p u, in order.
 *  Prefer ctx.factsOf(u).classes, which memoizes this. */
std::vector<ClassDecl> findClasses(const FileUnit &u);

std::vector<Annotation> findAnnotations(const FileUnit &u);

/** All member-function definitions with bodies in @p u: in-class
 *  inline definitions and out-of-line `Class::method(...)` ones.
 *  Prefer ctx.factsOf(u).methods, which memoizes this. */
std::vector<MethodDef> findMethods(const FileUnit &u,
                                   const std::vector<ClassDecl> &classes);

/** Transitive closure of class names deriving (directly or through
 *  intermediate bases, across all loaded units) from @p base —
 *  including @p base itself. */
std::set<std::string> derivedClosure(const Context &ctx,
                                     const std::string &base);

/** First annotation line of the contiguous comment block that ends
 *  just above @p line (or @p line itself): annotations attached to a
 *  declaration at @p line live in [result, line]. */
int annotationBlockTop(const FileUnit &u, int line);

/** Annotations attached to @p cls: inside its body, or in the comment
 *  block immediately above its declaration. */
std::vector<Annotation> annotationsFor(const FileUnit &u,
                                       const ClassDecl &cls,
                                       const std::vector<Annotation> &all);

/** True if a NOLINT / NOLINTNEXTLINE comment suppresses @p check at
 *  @p line of @p u. */
bool suppressed(const FileUnit &u, int line, const std::string &check);

/** Emit unless suppressed; a suppression records a hit so the
 *  stale-suppression audit knows the waiver is still earning its keep. */
void report(const FileUnit &u, int line, int col,
            const std::string &check, const std::string &message,
            std::vector<Diagnostic> &out);

/** (path, governed line, check) triples report() suppressed this run. */
const std::set<std::tuple<std::string, int, std::string>> &
suppressionHits();

} // namespace loft_tidy

#endif // LOFT_TIDY_CHECKS_HH
