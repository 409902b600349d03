/**
 * @file
 * Unit tests for the ATM substrate: cells, AAL5, links with credit
 * flow control, the switch, and host interfaces.
 */
#include <gtest/gtest.h>

#include "net/aal5.h"
#include "net/cell.h"
#include "net/fault.h"
#include "net/host_interface.h"
#include "net/link.h"
#include "net/network.h"
#include "net/switch.h"
#include "sim/simulator.h"
#include "util/hash.h"

namespace remora::net {
namespace {

// ----------------------------------------------------------------------
// Cell
// ----------------------------------------------------------------------

TEST(Cell, EncodeDecodeRoundTrip)
{
    Cell c;
    c.vpi = 0x5a5;
    c.vci = 0xbeef;
    c.pti = 0x3;
    c.clp = true;
    for (size_t i = 0; i < c.payload.size(); ++i) {
        c.payload[i] = static_cast<uint8_t>(i);
    }
    uint8_t wire[Cell::kCellBytes];
    c.encode(wire);
    auto decoded = Cell::decode(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().vpi, c.vpi);
    EXPECT_EQ(decoded.value().vci, c.vci);
    EXPECT_EQ(decoded.value().pti, c.pti);
    EXPECT_EQ(decoded.value().clp, c.clp);
    EXPECT_EQ(decoded.value().payload, c.payload);
}

TEST(Cell, HecCorruptionIsDetected)
{
    Cell c;
    c.vpi = 7;
    c.vci = 9;
    uint8_t wire[Cell::kCellBytes];
    c.encode(wire);
    wire[1] ^= 0x40; // corrupt a header bit
    auto decoded = Cell::decode(wire);
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), util::ErrorCode::kMalformed);
}

TEST(Cell, LastOfFrameFlag)
{
    Cell c;
    EXPECT_FALSE(c.lastOfFrame());
    c.setLastOfFrame(true);
    EXPECT_TRUE(c.lastOfFrame());
    c.setLastOfFrame(false);
    EXPECT_FALSE(c.lastOfFrame());
}

class CellFieldSweep
    : public ::testing::TestWithParam<std::tuple<uint16_t, uint16_t, uint8_t>>
{};

TEST_P(CellFieldSweep, AllFieldWidthsSurvive)
{
    auto [vpi, vci, pti] = GetParam();
    Cell c;
    c.vpi = vpi;
    c.vci = vci;
    c.pti = pti;
    uint8_t wire[Cell::kCellBytes];
    c.encode(wire);
    auto d = Cell::decode(wire);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.value().vpi, vpi);
    EXPECT_EQ(d.value().vci, vci);
    EXPECT_EQ(d.value().pti, pti);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, CellFieldSweep,
    ::testing::Combine(::testing::Values<uint16_t>(0, 1, 0xfff),
                       ::testing::Values<uint16_t>(0, 255, 0xffff),
                       ::testing::Values<uint8_t>(0, 3, 7)));

// ----------------------------------------------------------------------
// AAL5
// ----------------------------------------------------------------------

class Aal5RoundTrip : public ::testing::TestWithParam<size_t>
{};

TEST_P(Aal5RoundTrip, SegmentsAndReassembles)
{
    size_t n = GetParam();
    std::vector<uint8_t> frame(n);
    for (size_t i = 0; i < n; ++i) {
        frame[i] = static_cast<uint8_t>(util::mix64(i));
    }
    auto cells = aal5Segment(4, 9, frame);
    EXPECT_EQ(cells.size(), aal5CellCount(n));
    for (size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].vpi, 4);
        EXPECT_EQ(cells[i].vci, 9);
        EXPECT_EQ(cells[i].lastOfFrame(), i + 1 == cells.size());
    }
    Aal5Reassembler reasm;
    std::optional<Aal5Reassembler::Frame> out;
    for (const auto &cell : cells) {
        EXPECT_FALSE(out.has_value());
        out = reasm.feed(cell);
    }
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->srcVci, 9);
    EXPECT_EQ(out->payload, frame);
    EXPECT_EQ(reasm.framesOk(), 1u);
    EXPECT_EQ(reasm.crcErrors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Aal5RoundTrip,
                         ::testing::Values(0, 1, 39, 40, 41, 47, 48, 95, 96,
                                           1000, 4096, 8192, 65535));

TEST(Aal5, CorruptPayloadFailsCrc)
{
    std::vector<uint8_t> frame(500, 0x77);
    auto cells = aal5Segment(1, 2, frame);
    cells[3].payload[10] ^= 0x01;
    Aal5Reassembler reasm;
    std::optional<Aal5Reassembler::Frame> out;
    for (const auto &cell : cells) {
        out = reasm.feed(cell);
    }
    EXPECT_FALSE(out.has_value());
    EXPECT_EQ(reasm.crcErrors(), 1u);
}

TEST(Aal5, InterleavedSourcesReassembleIndependently)
{
    std::vector<uint8_t> frameA(300, 0xaa);
    std::vector<uint8_t> frameB(200, 0xbb);
    auto cellsA = aal5Segment(1, 10, frameA);
    auto cellsB = aal5Segment(1, 20, frameB);

    Aal5Reassembler reasm;
    std::vector<Aal5Reassembler::Frame> done;
    size_t ia = 0, ib = 0;
    while (ia < cellsA.size() || ib < cellsB.size()) {
        if (ia < cellsA.size()) {
            if (auto f = reasm.feed(cellsA[ia++])) {
                done.push_back(std::move(*f));
            }
        }
        if (ib < cellsB.size()) {
            if (auto f = reasm.feed(cellsB[ib++])) {
                done.push_back(std::move(*f));
            }
        }
    }
    ASSERT_EQ(done.size(), 2u);
    for (const auto &f : done) {
        if (f.srcVci == 10) {
            EXPECT_EQ(f.payload, frameA);
        } else {
            EXPECT_EQ(f.srcVci, 20);
            EXPECT_EQ(f.payload, frameB);
        }
    }
}

TEST(Aal5, CellCountFormula)
{
    EXPECT_EQ(aal5CellCount(0), 1u);   // trailer alone
    EXPECT_EQ(aal5CellCount(40), 1u);  // 40 + 8 = 48
    EXPECT_EQ(aal5CellCount(41), 2u);  // 49 > 48
    EXPECT_EQ(aal5CellCount(4096), (4096u + 8 + 47) / 48);
}

// ----------------------------------------------------------------------
// Link
// ----------------------------------------------------------------------

/** Sink collecting cells with arrival times. */
struct CollectSink : CellSink
{
    std::vector<std::pair<sim::Time, Cell>> arrived;
    sim::Simulator *sim = nullptr;
    bool autoCredit = true;

    void
    acceptCell(const Cell &cell) override
    {
        arrived.emplace_back(sim->now(), cell);
        if (autoCredit && upstream_ != nullptr) {
            upstream_->returnCredit();
        }
    }
};

TEST(Link, SerializesAtBandwidth)
{
    sim::Simulator sim;
    LinkParams p;
    p.bandwidthMbps = 140.0;
    p.propagation = sim::usec(1);
    Link link(sim, p, "test");
    CollectSink sink;
    sink.sim = &sim;
    link.connect(sink);

    Cell c;
    for (int i = 0; i < 3; ++i) {
        c.vci = static_cast<uint16_t>(i);
        link.send(c);
    }
    sim.run();
    ASSERT_EQ(sink.arrived.size(), 3u);
    // Cells arrive one cell-time apart: 53*8/140e6 s ~ 3.03 us.
    sim::Duration cellTime = link.cellTime();
    EXPECT_NEAR(static_cast<double>(cellTime), 53 * 8 / 140e6 * 1e9, 10.0);
    EXPECT_EQ(sink.arrived[0].first, cellTime + sim::usec(1));
    EXPECT_EQ(sink.arrived[1].first - sink.arrived[0].first, cellTime);
    EXPECT_EQ(sink.arrived[2].first - sink.arrived[1].first, cellTime);
    // In-order delivery.
    EXPECT_EQ(sink.arrived[2].second.vci, 2);
}

TEST(Link, CreditExhaustionStallsUntilReturned)
{
    sim::Simulator sim;
    LinkParams p;
    p.credits = 2;
    Link link(sim, p, "test");
    CollectSink sink;
    sink.sim = &sim;
    sink.autoCredit = false; // receiver never drains
    link.connect(sink);

    Cell c;
    for (int i = 0; i < 5; ++i) {
        link.send(c);
    }
    sim.run();
    EXPECT_EQ(sink.arrived.size(), 2u); // only the credit allowance
    EXPECT_EQ(link.queueDepth(), 3u);

    link.returnCredit(3);
    sim.run();
    EXPECT_EQ(sink.arrived.size(), 5u);
    EXPECT_EQ(link.cellsSent(), 5u);
}

TEST(Link, OrderPreservedAcrossCreditStalls)
{
    sim::Simulator sim;
    LinkParams p;
    p.credits = 1;
    Link link(sim, p, "test");
    CollectSink sink;
    sink.sim = &sim;
    link.connect(sink); // autoCredit on: each arrival returns a credit

    for (int i = 0; i < 20; ++i) {
        Cell c;
        c.vci = static_cast<uint16_t>(i);
        link.send(c);
    }
    sim.run();
    ASSERT_EQ(sink.arrived.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(sink.arrived[static_cast<size_t>(i)].second.vci, i);
    }
}

TEST(Link, CreditStarvedLinkDeliversAtCreditReturn)
{
    // One credit; the sink drains each cell a fixed 5 us after it lands.
    // The second cell cannot start until that credit has crossed back:
    // arrival0 = ct + prop, credit back at arrival0 + 5 us + prop, and
    // the second cell lands one ct + prop after that.
    struct DelayedDrainSink : CellSink
    {
        sim::Simulator *sim = nullptr;
        std::vector<sim::Time> arrived;
        void
        acceptCell(const Cell &) override
        {
            arrived.push_back(sim->now());
            Link *up = upstream_;
            sim->schedule(sim::usec(5), [up] { up->returnCredit(); });
        }
    };
    sim::Simulator sim;
    LinkParams p;
    p.credits = 1;
    p.propagation = sim::usec(1);
    Link link(sim, p, "test");
    DelayedDrainSink sink;
    sink.sim = &sim;
    link.connect(sink);

    Cell c;
    link.send(c);
    link.send(c);
    sim.run();
    sim::Duration ct = link.cellTime();
    ASSERT_EQ(sink.arrived.size(), 2u);
    EXPECT_EQ(sink.arrived[0], ct + sim::usec(1));
    EXPECT_EQ(sink.arrived[1], 2 * ct + 3 * sim::usec(1) + sim::usec(5));
}

TEST(Link, DroppedCellCreditReturnsFromItsStart)
{
    // A cell committed behind a busy wire and dropped in flight gets
    // its credit back one propagation after it *starts*, not after it
    // was committed. A long propagation makes the two instants differ
    // by a whole cell time at the next cell's start.
    sim::Simulator sim;
    LinkParams p;
    p.credits = 2;
    p.propagation = sim::usec(10);
    Link link(sim, p, "test");
    CollectSink sink;
    sink.sim = &sim;
    sink.autoCredit = false;
    link.connect(sink);
    sim::Duration ct = link.cellTime();
    ASSERT_GT(p.propagation, ct);

    FaultPlan plan;
    plan.dropRate = 1.0;
    FaultInjector dropAll(sim, plan, "test");

    Cell c;
    c.vci = 1;
    link.send(c); // starts at 0, delivered
    link.setFaultInjector(&dropAll);
    c.vci = 2;
    link.send(c); // starts at ct behind the first, dropped
    link.setFaultInjector(nullptr);
    c.vci = 3;
    link.send(c); // stalls on credit until the drop's credit is back
    sim.run();

    EXPECT_EQ(dropAll.drops(), 1u);
    ASSERT_EQ(sink.arrived.size(), 2u);
    EXPECT_EQ(sink.arrived[0].first, ct + p.propagation);
    // Credit back at ct + prop; the third cell starts then.
    EXPECT_EQ(sink.arrived[1].second.vci, 3);
    EXPECT_EQ(sink.arrived[1].first, (ct + p.propagation) + ct + p.propagation);
}

TEST(Link, QueueDepthCountsCellsWaitingForTheWire)
{
    // Back to back on an idle link: the first cell goes straight onto
    // the wire, the other two wait for it.
    sim::Simulator sim;
    Link link(sim, LinkParams{}, "test");
    CollectSink sink;
    sink.sim = &sim;
    link.connect(sink);

    Cell c;
    for (int i = 0; i < 3; ++i) {
        link.send(c);
    }
    EXPECT_EQ(link.queueDepth(), 2u);
    EXPECT_EQ(link.maxQueueDepth(), 2u);
    sim.run();
    EXPECT_EQ(link.queueDepth(), 0u);
    EXPECT_EQ(link.maxQueueDepth(), 2u);
    EXPECT_EQ(sink.arrived.size(), 3u);
}

// ----------------------------------------------------------------------
// HostInterface
// ----------------------------------------------------------------------

TEST(HostInterface, RaisesOneInterruptPerBatch)
{
    sim::Simulator sim;
    HostInterfaceParams p;
    HostInterface nic(sim, p, "nic");
    int interrupts = 0;
    nic.setRxInterrupt([&] { ++interrupts; });

    Cell c;
    nic.acceptCell(c);
    nic.acceptCell(c); // second arrival while interrupt pending
    sim.run();
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(nic.rxDepth(), 2u);

    // Drain, then a new arrival raises a fresh interrupt.
    EXPECT_TRUE(nic.popRx().has_value());
    EXPECT_TRUE(nic.popRx().has_value());
    nic.acceptCell(c);
    sim.run();
    EXPECT_EQ(interrupts, 2);
}

TEST(HostInterface, PopReturnsCreditUpstream)
{
    sim::Simulator sim;
    LinkParams lp;
    lp.credits = 1;
    Link link(sim, lp, "up");
    HostInterfaceParams p;
    HostInterface nic(sim, p, "nic");
    link.connect(nic);

    Cell c;
    c.vci = 1;
    link.send(c);
    c.vci = 2;
    link.send(c); // stalls on credit
    sim.run();
    EXPECT_EQ(nic.rxDepth(), 1u);

    auto got = nic.popRx(); // returns the credit
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->vci, 1);
    sim.run();
    EXPECT_EQ(nic.rxDepth(), 1u);
    EXPECT_EQ(nic.popRx()->vci, 2);
}

TEST(HostInterface, TxPassesThroughToLink)
{
    sim::Simulator sim;
    LinkParams lp;
    Link link(sim, lp, "down");
    CollectSink sink;
    sink.sim = &sim;
    link.connect(sink);

    HostInterfaceParams p;
    HostInterface nic(sim, p, "nic");
    nic.attachTxLink(link);
    ASSERT_TRUE(nic.txSpace(3));
    Cell c;
    for (int i = 0; i < 3; ++i) {
        nic.pushTx(c);
    }
    sim.run();
    EXPECT_EQ(sink.arrived.size(), 3u);
    EXPECT_EQ(nic.cellsTx(), 3u);
}

// ----------------------------------------------------------------------
// Switch + Network
// ----------------------------------------------------------------------

TEST(Switch, CutThroughKeepsArrivalOrderAndFabricLatency)
{
    // Two input ports receive a cell at the same instant, port 1 first.
    // Both leave on one output in arrival order; the first, on an idle
    // output, lands fabric latency + cell time + propagation after it
    // reached the switch, the second one cell time later.
    sim::Simulator sim;
    LinkParams lp;
    Link out0(sim, lp, "sw->a"), out1(sim, lp, "sw->b"), out2(sim, lp, "sw->c");
    CollectSink a, b, dst;
    a.sim = b.sim = dst.sim = &sim;
    out0.connect(a);
    out1.connect(b);
    out2.connect(dst);
    const sim::Duration fabric = sim::usec(2);
    Switch sw(sim, fabric, "sw");
    sw.addPort(out0);
    sw.addPort(out1);
    sw.route(3, sw.addPort(out2));

    const sim::Time t = sim::usec(7);
    sim.scheduleAt(t, [&sw] {
        Cell cell;
        cell.vpi = 3;
        cell.vci = 2;
        sw.inputSink(1).acceptCell(cell);
        cell.vci = 1;
        sw.inputSink(0).acceptCell(cell);
    });
    sim.run();

    ASSERT_EQ(dst.arrived.size(), 2u);
    EXPECT_EQ(dst.arrived[0].second.vci, 2);
    EXPECT_EQ(dst.arrived[1].second.vci, 1);
    EXPECT_EQ(dst.arrived[0].first,
              t + fabric + out2.cellTime() + lp.propagation);
    EXPECT_EQ(dst.arrived[1].first - dst.arrived[0].first, out2.cellTime());
    EXPECT_EQ(sw.cellsForwarded(), 2u);
    EXPECT_TRUE(a.arrived.empty());
    EXPECT_TRUE(b.arrived.empty());
}

TEST(Network, SwitchedClusterRoutesByDestination)
{
    sim::Simulator sim;
    Network net(sim, LinkParams{});
    HostInterfaceParams p;
    HostInterface a(sim, p, "a"), b(sim, p, "b"), c(sim, p, "c");
    net.addHost(1, a);
    net.addHost(2, b);
    net.addHost(3, c);
    net.wireSwitched();

    // a -> c and b -> c; both land only at c, demuxable by source vci.
    Cell cell;
    cell.vpi = 3;
    cell.vci = 1;
    a.pushTx(cell);
    cell.vci = 2;
    b.pushTx(cell);
    sim.run();

    EXPECT_EQ(a.rxDepth(), 0u);
    EXPECT_EQ(b.rxDepth(), 0u);
    ASSERT_EQ(c.rxDepth(), 2u);
    std::set<uint16_t> sources;
    sources.insert(c.popRx()->vci);
    sources.insert(c.popRx()->vci);
    EXPECT_EQ(sources, (std::set<uint16_t>{1, 2}));
    EXPECT_EQ(net.fabric()->cellsForwarded(), 2u);
}

TEST(Network, DirectPairDelivers)
{
    sim::Simulator sim;
    Network net(sim, LinkParams{});
    HostInterfaceParams p;
    HostInterface a(sim, p, "a"), b(sim, p, "b");
    net.addHost(1, a);
    net.addHost(2, b);
    net.wireDirect();

    Cell cell;
    cell.vpi = 2;
    cell.vci = 1;
    a.pushTx(cell);
    sim.run();
    ASSERT_EQ(b.rxDepth(), 1u);
    EXPECT_EQ(b.popRx()->vci, 1);
}

TEST(Network, SwitchedFrameSurvivesReassembly)
{
    sim::Simulator sim;
    Network net(sim, LinkParams{});
    HostInterfaceParams p;
    HostInterface a(sim, p, "a"), b(sim, p, "b"), c(sim, p, "c");
    net.addHost(1, a);
    net.addHost(2, b);
    net.addHost(3, c);
    net.wireSwitched();

    // Two senders stream interleaved frames at the same destination.
    std::vector<uint8_t> frameA(2000, 0x11), frameB(3000, 0x22);
    for (const Cell &cell : aal5Segment(3, 1, frameA)) {
        a.pushTx(cell);
    }
    for (const Cell &cell : aal5Segment(3, 2, frameB)) {
        b.pushTx(cell);
    }
    sim.run();

    // The downlink's credit allowance is smaller than the cell total,
    // so delivery stalls until the host drains — drain and re-run until
    // quiescent (flow control, not loss, is what bounds the burst).
    Aal5Reassembler reasm;
    std::vector<Aal5Reassembler::Frame> frames;
    for (;;) {
        bool progress = false;
        while (auto cell = c.popRx()) {
            progress = true;
            if (auto f = reasm.feed(*cell)) {
                frames.push_back(std::move(*f));
            }
        }
        sim.run();
        if (!progress) {
            break;
        }
    }
    ASSERT_EQ(frames.size(), 2u);
    for (const auto &f : frames) {
        EXPECT_EQ(f.payload, f.srcVci == 1 ? frameA : frameB);
    }
    EXPECT_EQ(reasm.crcErrors(), 0u);
}

} // namespace
} // namespace remora::net
