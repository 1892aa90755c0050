#include "gsf/gsf_source.hh"

#include "sim/logging.hh"

namespace noc
{

GsfSourceUnit::GsfSourceUnit(NodeId node, const GsfParams &params,
                             Channel<WireFlit> *out,
                             Channel<Credit> *credit_in,
                             GsfBarrier *barrier)
    : SourceUnit(node, params.router, out, credit_in,
                 params.sourceQueueFlits),
      barrier_(barrier)
{
}

void
GsfSourceUnit::addFlow(FlowId flow, std::uint32_t reservation_flits)
{
    FlowInjectState st;
    st.reservation = reservation_flits;
    // Sources may not inject into the head frame (Section 3.1/[12]).
    st.injFrame = barrier_->headFrame() + 1;
    st.quota = reservation_flits;
    flows_[flow] = st;
}

bool
GsfSourceUnit::allowStart(const Packet &pkt, Cycle now,
                          std::uint64_t &frame_tag)
{
    (void)now;
    auto it = flows_.find(pkt.flow);
    if (it == flows_.end())
        panic("GsfSourceUnit %u: unregistered flow %u", node(), pkt.flow);
    FlowInjectState &st = it->second;

    const std::uint64_t oldest = barrier_->headFrame() + 1;
    const std::uint64_t newest = barrier_->newestFrame();
    if (st.injFrame < oldest) {
        // The window moved past the flow's injection frame; recycled
        // frames grant fresh reservations.
        st.injFrame = oldest;
        st.quota = st.reservation;
    }
    while (st.quota < pkt.sizeFlits) {
        if (st.injFrame >= newest) {
            // Reservations in all active frames used up.
            NOC_OBSERVE(observer_,
                        {.kind = NetEvent::Kind::SourceThrottled,
                         .node = node(), .flow = pkt.flow,
                         .reason = StallReason::FrameQuota, .now = now});
            return false;
        }
        ++st.injFrame;
        st.quota = st.reservation;
    }
    st.quota -= pkt.sizeFlits;
    frame_tag = st.injFrame;
    barrier_->onPacketAdmitted(frame_tag, pkt.sizeFlits);
    return true;
}

} // namespace noc
