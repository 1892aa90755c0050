/**
 * @file
 * Golden-output tests for the loft-blame report renderers, plus a
 * round trip: a real TraceCollector dump must parse and render through
 * the same library the CLI uses.
 */

#include <gtest/gtest.h>

#include <string>

#include "blame_report.hh"
#include "harness/experiment.hh"
#include "qos/allocation.hh"

namespace
{

/** A tiny hand-written dump covering every section. */
const char *const kDump = R"({"schema":"loft-trace-dump/1",
"kind":"loft","mesh":"2x2","cycles_per_slot":2,
"reason":"blame","cycle":1000,
"packets":{"traced":2,"sampled":1,"mismatches":0,
"total_latency_cycles":40},
"stages":{"src_queue":10,"src_reservation":4,"link":12,
"lookahead_wait":2,"reservation_wait":6,"switch_stall":8,
"spec_savings":4,"sink_reassembly":2},
"blame":{"attributed":9,"unattributed":5,"pairs":[
{"victim":1,"aggressor":2,"cycles":6},
{"victim":2,"aggressor":1,"cycles":3}]},
"flows":[
{"flow":1,"packets":1,"latency_cycles":25,"max_latency":25,
"stages":{"src_queue":8,"src_reservation":2,"link":6,
"lookahead_wait":1,"reservation_wait":4,"switch_stall":5,
"spec_savings":2,"sink_reassembly":1},
"throttled":{"no_vc":0,"no_credit":0,"frame_quota":0,
"no_la_credit":3,"sched_throttle":1,"no_spec_credit":0,
"no_nonspec_credit":0}}],
"exemplars":[
{"packet":7,"flow":1,"src":0,"dst":3,"accepted":100,
"delivered":125,"latency":25,"sampled":true,"tail":true,
"stages":{"src_queue":8,"src_reservation":2,"link":6,
"lookahead_wait":1,"reservation_wait":4,"switch_stall":5,
"spec_savings":2,"sink_reassembly":1},
"src_blame":[{"flow":2,"cycles":4}],
"hops":[{"node":1,"out":"East","arrive":110,"forward":118,
"decision":111,"booked_slot":57,"lookahead_wait":1,
"reservation_wait":3,"switch_stall":4,"spec_savings":0,
"link":2,"blame":[{"flow":2,"cycles":6}]}]}],
"flight":[{"node":0,"events":[
{"cycle":99,"event":"accepted","lane":"NI","flow":1,"arg":7},
{"cycle":101,"event":"throttled","lane":"NI","flow":1,
"reason":"no_la_credit"}]}]})";

blame::Json
parsed()
{
    blame::Json doc;
    std::string error;
    EXPECT_TRUE(blame::parseJson(kDump, doc, error)) << error;
    return doc;
}

TEST(BlameCli, SummaryGolden)
{
    EXPECT_EQ(blame::renderSummary(parsed()),
              "loft-blame: kind=loft mesh=2x2 reason=blame cycle=1000\n"
              "packets: traced=2 sampled=1 mismatches=0 "
              "total-latency=40 cycles\n"
              "blame: attributed=9 unattributed=5 cycles\n");
}

TEST(BlameCli, StagesGolden)
{
    const std::string out = blame::renderStages(parsed());
    EXPECT_NE(out.find("stage breakdown"), std::string::npos);
    EXPECT_NE(out.find("  src_queue                  10   25.0%\n"),
              std::string::npos);
    EXPECT_NE(out.find("  spec_savings     -          4  -10.0%"
                       "  (speculation, subtracted)\n"),
              std::string::npos);
    EXPECT_NE(out.find("  total                      40  100.0%\n"),
              std::string::npos);
}

TEST(BlameCli, MatrixGolden)
{
    const std::string out = blame::renderMatrix(parsed());
    EXPECT_NE(out.find("interference matrix"), std::string::npos);
    EXPECT_NE(out.find("         1          2            6\n"),
              std::string::npos);
    EXPECT_NE(out.find("         2          1            3\n"),
              std::string::npos);
}

TEST(BlameCli, FlowsGolden)
{
    const std::string out = blame::renderFlows(parsed());
    // flow 1: one 25-cycle packet, 4 throttle events, src_queue is
    // the largest additive stage.
    EXPECT_NE(out.find("     1         1       25.0        25"),
              std::string::npos);
    EXPECT_NE(out.find("src_queue"), std::string::npos);
    EXPECT_NE(out.find("        4  "), std::string::npos);
}

TEST(BlameCli, PacketCriticalPathGolden)
{
    const std::string out = blame::renderPacket(parsed(), 7);
    EXPECT_NE(out.find("packet 7 flow=1 route=0->3 accepted=@100 "
                       "delivered=@125 latency=25 [tail]"),
              std::string::npos);
    EXPECT_NE(out.find("stages: src_queue=8 src_reservation=2 link=6 "
                       "lookahead_wait=1 reservation_wait=4 "
                       "switch_stall=5 sink_reassembly=1 "
                       "spec_savings=2 (additive sum 27)"),
              std::string::npos);
    EXPECT_NE(out.find("source blame: flow2=4"), std::string::npos);
    EXPECT_NE(out.find("node 1    out=East   arrive=@110      "
                       "forward=@118"),
              std::string::npos);
    EXPECT_NE(out.find("slot=57"), std::string::npos);
    EXPECT_NE(out.find("blame: flow2=6"), std::string::npos);
}

TEST(BlameCli, MissingPacketIsReported)
{
    EXPECT_NE(blame::renderPacket(parsed(), 999).find("no exemplar"),
              std::string::npos);
}

TEST(BlameCli, FlightGolden)
{
    const std::string out = blame::renderFlight(parsed());
    EXPECT_NE(out.find("node 0:"), std::string::npos);
    EXPECT_NE(out.find("@99       accepted         lane=NI     flow=1"),
              std::string::npos);
    EXPECT_NE(out.find("reason=no_la_credit"), std::string::npos);
}

TEST(BlameCli, RejectsMalformedInput)
{
    blame::Json doc;
    std::string error;
    EXPECT_FALSE(blame::parseJson("{\"a\":", doc, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(blame::parseJson("{} trailing", doc, error));
}

TEST(BlameCli, RealDumpRoundTrips)
{
    noc::RunConfig c;
    c.kind = noc::NetKind::Loft;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 500;
    c.measureCycles = 2000;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0;
    noc::Mesh2D mesh(4, 4);
    noc::TrafficPattern p = noc::uniformPattern(mesh);
    noc::setEqualSharesByMaxFlows(p.flows, 16);
    const noc::RunResult r = noc::runExperiment(c, p, 0.15);
    ASSERT_NE(r.trace, nullptr);

    blame::Json doc;
    std::string error;
    ASSERT_TRUE(blame::parseJson(r.trace->dumpJson("blame", 2500), doc,
                                 error))
        << error;
    EXPECT_EQ(doc.text("schema"), "loft-trace-dump/1");
    const std::string summary = blame::renderSummary(doc);
    EXPECT_NE(summary.find("kind=loft mesh=4x4"), std::string::npos);
    EXPECT_NE(blame::renderStages(doc).find("src_queue"),
              std::string::npos);
    // Every exemplar renders a critical path without error.
    const blame::Json *exs = doc.find("exemplars");
    ASSERT_NE(exs, nullptr);
    ASSERT_FALSE(exs->items.empty());
    const std::uint64_t id = exs->items.front().u64("packet");
    EXPECT_EQ(blame::renderPacket(doc, id).find("no exemplar"),
              std::string::npos);
}

} // namespace
