/**
 * @file
 * Global heap-allocation accounting.
 *
 * alloc.cc replaces the global `operator new` / `operator delete`
 * family with thin wrappers over std::malloc that bump a process-wide
 * counter on every allocation. The counter underpins the simulator's
 * zero-allocation steady-state invariant (docs/SCALE.md): after
 * warm-up every per-cycle container has plateaued in capacity (most
 * are reserved at construction to their measured peak), so a
 * measurement window must observe a delta of exactly zero.
 *
 * The counter is monotonic and global; consumers take deltas
 * (Simulator records one around each run() window). It is meaningful
 * for a single in-flight simulation — concurrent simulations (a
 * threaded sweep) interleave their counts, so allocation assertions
 * belong in single-case runs (soak tests, bench_scale).
 */

#ifndef NOC_SIM_ALLOC_HH
#define NOC_SIM_ALLOC_HH

#include <cstdint>

namespace noc
{

/** Number of heap allocations (any `new`) since process start. */
std::uint64_t heapAllocCount();

/**
 * Debug aid for hunting steady-state allocations: when enabled, every
 * heap allocation writes its call stack to stderr (via the
 * allocation-free backtrace_symbols_fd, so the dump itself stays out
 * of the census). Bracket the suspect window with it:
 *
 *   setHeapAllocTrap(true);  sim.run(n);  setHeapAllocTrap(false);
 *
 * Addresses resolve to symbols only for exported functions; feed the
 * offsets to addr2line for static ones.
 */
void setHeapAllocTrap(bool enabled);

} // namespace noc

#endif // NOC_SIM_ALLOC_HH
