/**
 * @file
 * Admission control over LSF reservations. The paper motivates
 * design-time procedures ("task binding and route computation",
 * Section 2.1b) on top of LOFT's analyzable guarantees; this module
 * provides them: it tracks the committed bandwidth share of every link
 * under XY routing and admits, rejects, or releases flows against the
 * per-link budget `sum(R_ij) <= F`, reporting each admitted flow's
 * worst-case delay bound.
 */

#ifndef NOC_QOS_ADMISSION_HH
#define NOC_QOS_ADMISSION_HH

#include <map>
#include <optional>
#include <vector>

#include "core/loft_params.hh"
#include "net/network.hh"
#include "net/topology.hh"

namespace noc
{

/** Result of a successful admission. */
struct Admission
{
    FlowSpec flow;
    /** Worst-case end-to-end latency bound in cycles (equation (2)). */
    Cycle delayBound = 0;
    /** Reservation in flits per frame actually committed. */
    std::uint32_t reservationFlits = 0;
};

class AdmissionController
{
  public:
    AdmissionController(const Mesh2D &mesh, const LoftParams &params);

    /**
     * Try to admit @p flow (its bwShare is the request). Fails if any
     * link of the XY path lacks capacity or the per-link flow count
     * would exceed the architecture's maximum. Random-destination
     * flows reserve on every link.
     */
    std::optional<Admission> admit(const FlowSpec &flow);

    /** Release a previously admitted flow. @return false if unknown. */
    bool release(FlowId flow);

    /**
     * Largest share admissible right now for a (src, dst) pair: the
     * minimum residual share over the path, floored to whole quanta.
     */
    double maxAdmissibleShare(NodeId src, NodeId dst) const;

    std::size_t admittedCount() const { return admitted_.size(); }

  private:
    struct LinkState
    {
        std::uint32_t reservedSlots = 0;
        std::uint32_t flowCount = 0;
    };

    std::size_t linkIndex(NodeId node, Port out) const;
    /** The NI injection link of a source node (also budgeted). */
    std::size_t niLinkIndex(NodeId node) const;
    std::uint32_t slotsFor(double share) const;

    template <typename Fn>
    void forEachLink(const FlowSpec &flow, Fn &&fn) const;

    const Mesh2D &mesh_;
    LoftParams params_;
    std::vector<LinkState> links_;
    /// Admitted flows by id (lookups only).
    std::map<FlowId, Admission> admitted_;
};

} // namespace noc

#endif // NOC_QOS_ADMISSION_HH
