#include "core/lookahead_router.hh"

#include <bit>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace noc
{

LookaheadRouter::LookaheadRouter(NodeId id, const Mesh2D &mesh,
                                 const LoftParams &params,
                                 LoftDataRouter *data)
    : id_(id), mesh_(mesh), params_(params), data_(data)
{
    data_->pairLookahead(this);
    for (auto &ip : inputs_) {
        ip.store.resize(static_cast<std::size_t>(params.laNumVCs) *
                        params.laVcDepth);
        ip.head.assign(params.laNumVCs, 0);
        ip.count.assign(params.laNumVCs, 0);
    }
    for (auto &op : outputs_) {
        op.credits.assign(params.laNumVCs, params.laVcDepth);
        op.vcPick.resize(params.laNumVCs);
    }
}

void
LookaheadRouter::connectInput(Port p, Channel<LaWireFlit> *in,
                              Channel<LaCredit> *credit_return)
{
    inputs_[portIndex(p)].in = in;
    inputs_[portIndex(p)].creditReturn = credit_return;
    in->setReader(this, static_cast<unsigned>(portIndex(p)));
}

void
LookaheadRouter::connectOutput(Port p, Channel<LaWireFlit> *out,
                               Channel<LaCredit> *credit_in)
{
    outputs_[portIndex(p)].out = out;
    outputs_[portIndex(p)].creditIn = credit_in;
    credit_in->setReader(this,
                         static_cast<unsigned>(kNumPorts + portIndex(p)));
}

void
LookaheadRouter::receiveCredits(Cycle now)
{
    for (std::uint32_t m = mail() & kCreditMail; m != 0; m &= m - 1) {
        OutputPort &op = outputs_[static_cast<std::size_t>(
            std::countr_zero(m)) - kNumPorts];
        while (auto c = op.creditIn->tryReceive(now)) {
            if (!acceptCredit(*c, observer_, id_, now))
                continue;
            ++op.credits.at(c->vc);
            if (op.credits[c->vc] > params_.laVcDepth)
                panic("la-router %u: credit overflow", id_);
        }
    }
}

void
LookaheadRouter::receiveFlits(Cycle now)
{
    for (std::uint32_t m = mail() & kFlitMail; m != 0; m &= m - 1) {
        const auto p = static_cast<std::size_t>(std::countr_zero(m));
        InputPort &ip = inputs_[p];
        while (auto wf = ip.in->tryReceive(now)) {
            if (wf->fault.corrupted) {
                // The flit was destroyed in flight (look-ahead drop):
                // the CRC-failed frame still frees the upstream VC
                // slot, but the reservation it carried is lost — the
                // co-located data router's unclaimed-quantum timeout
                // re-issues it.
                if (ip.creditReturn)
                    ip.creditReturn->send(now, LaCredit{wf->vc});
                continue;
            }
            if (wf->vc >= params_.laNumVCs)
                panic("la-router %u: bad VC %u on port %zu", id_,
                      wf->vc, p);
            if (ip.count[wf->vc] >= params_.laVcDepth)
                panic("la-router %u: VC overflow on port %zu", id_, p);
            laPush(ip, wf->vc, wf->flit,
                   now + params_.routerStages - 1);
        }
    }
}

void
LookaheadRouter::admitToTables(Cycle now)
{
    // Step 1 of the FRS procedure: look-ahead flits that cleared the
    // router pipeline write the data router's input reservation table
    // and free their virtual channel. A full table back-pressures the
    // look-ahead network through withheld credits.
    if (buffered_ == 0)
        return;
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        InputPort &ip = inputs_[p];
        for (std::uint32_t v = 0; v < params_.laNumVCs; ++v) {
            while (ip.count[v] != 0 &&
                   data_->admitLookahead(static_cast<Port>(p),
                                         laFront(ip, v).flit, now,
                                         laFront(ip, v).readyAt)) {
                DPRINTF(La, now, "la-router %u: admitted flow %u "
                        "quantum from port %zu vc %u", id_,
                        laFront(ip, v).flit.flow, p, v);
                laPop(ip, v);
                if (ip.creditReturn)
                    ip.creditReturn->send(now, LaCredit{v});
            }
        }
    }
}

void
LookaheadRouter::allocateAndSchedule(Cycle now)
{
    // Each output port performs at most one output scheduling grant
    // per cycle, serving the pending quanta of the co-located input
    // reservation tables (steps 2-4 of the FRS procedure).
    for (std::size_t outp = 0; outp < kNumPorts; ++outp) {
        OutputPort &op = outputs_[outp];

        // Downstream look-ahead VC for the forwarded flit (not needed
        // when the flit terminates here, i.e. outp == Local).
        std::size_t fwd_vc = RoundRobinArbiter::npos;
        if (outp != portIndex(Port::Local)) {
            if (!op.out)
                continue;
            std::uint64_t vc_free = 0;
            for (std::uint32_t v = 0; v < params_.laNumVCs; ++v) {
                if (op.credits[v] > 0)
                    vc_free |= std::uint64_t(1) << v;
            }
            if (!vc_free)
                continue;
            fwd_vc = op.vcPick.arbitrate(vc_free);
        }

        // Steps 2-3: the input schedulers (holding the pending quanta
        // in the input reservation tables) request output scheduling;
        // flows are served round-robin inside schedulePending. On
        // success the onward look-ahead flit leaves immediately, so
        // it always precedes its data flits.
        LookaheadFlit onward;
        bool terminal = false;
        if (!data_->schedulePending(static_cast<Port>(outp), now,
                                    onward, terminal))
            continue;
        if (!terminal) {
            op.out->send(now, LaWireFlit{onward,
                         static_cast<std::uint32_t>(fwd_vc)});
            --op.credits[fwd_vc];
        }
    }
}

void
LookaheadRouter::tick(Cycle now)
{
    receiveCredits(now);
    receiveFlits(now);
    admitToTables(now);
    // Look-ahead loss recovery runs on this plane: re-issue the
    // reservations for data quanta that timed out unclaimed before the
    // scheduling pass, so a re-synthesized quantum can be granted in
    // the same cycle.
    data_->recoverLostLookaheads(now);
    allocateAndSchedule(now);
    // This tick writes the data router's reservation tables; it runs
    // later in the same cycle, so the wake is served this cycle.
    data_->wake();
}

bool
LookaheadRouter::quiescent() const
{
    // Asleep only with empty wires, drained virtual channels and no
    // pending quanta in the co-located data router's input tables (the
    // data router cannot schedule them without this router's
    // allocateAndSchedule pass).
    if (mail() != 0 || buffered_ != 0)
        return false;
    // With recovery on, stay awake while unclaimed quanta wait for
    // their (possibly lost) look-ahead: the re-issue timeout runs from
    // this router's tick.
    if (params_.recovery && data_->hasUnclaimedQuanta())
        return false;
    return !data_->hasPendingQuanta();
}

} // namespace noc
