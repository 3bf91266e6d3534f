#include "src/sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "src/sim/dynamics.h"

namespace bullet {
namespace {

struct TestMsg : Message {
  int id = 0;
  TestMsg(int i, int64_t bytes) : id(i) {
    type = 1;
    wire_bytes = bytes;
  }
};

class Recorder : public NetHandler {
 public:
  struct Event {
    enum class Kind { kUp, kDown, kMsg };
    Kind kind;
    ConnId conn;
    NodeId peer;
    bool initiator = false;
    int msg_id = 0;
    SimTime at = 0;
  };

  explicit Recorder(Network* net) : net_(net) {}

  void OnConnUp(ConnId conn, NodeId peer, bool initiator) override {
    events.push_back({Event::Kind::kUp, conn, peer, initiator, 0, net_->now()});
  }
  void OnConnDown(ConnId conn, NodeId peer) override {
    events.push_back({Event::Kind::kDown, conn, peer, false, 0, net_->now()});
  }
  void OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) override {
    events.push_back(
        {Event::Kind::kMsg, conn, from, false, static_cast<TestMsg&>(*msg).id, net_->now()});
  }

  std::vector<Event> events;

 private:
  Network* net_;
};

// Two nodes, symmetric 8 Mbps links with 10 ms one-way delay, lossless.
Network MakeTwoNodeNet(double bps = 8e6, SimTime delay = MsToSim(10)) {
  MeshTopology topo(2);
  for (NodeId n = 0; n < 2; ++n) {
    topo.uplink(n) = LinkParams{bps, MsToSim(0), 0.0};
    topo.downlink(n) = LinkParams{bps, MsToSim(0), 0.0};
  }
  topo.core(0, 1) = LinkParams{bps, delay, 0.0};
  topo.core(1, 0) = LinkParams{bps, delay, 0.0};
  NetworkConfig config;
  config.quantum = MsToSim(10);
  return Network(std::move(topo), config, 77);
}

// Gives MakeTwoNodeNet's two directions different one-way delays before any
// Connect snapshots them: 0->1 crosses 1 + 10 + 2 ms, 1->0 crosses 0 + 30 + 0 ms.
void MakeDelaysAsymmetric(Network& net) {
  MeshTopology& topo = static_cast<MeshTopology&>(net.topology());
  topo.uplink(0).delay = MsToSim(1);
  topo.downlink(1).delay = MsToSim(2);
  topo.core(1, 0).delay = MsToSim(30);
}

TEST(Network, ConnectionEstablishesAfterHandshake) {
  for (const bool asymmetric : {false, true}) {
    SCOPED_TRACE(asymmetric ? "asymmetric delays" : "symmetric delays");
    Network net = MakeTwoNodeNet();
    if (asymmetric) {
      MakeDelaysAsymmetric(net);
    }
    Recorder h0(&net);
    Recorder h1(&net);
    net.SetHandler(0, &h0);
    net.SetHandler(1, &h1);

    net.Connect(0, 1);
    net.Run(SecToSim(1.0));

    ASSERT_EQ(h0.events.size(), 1u);
    ASSERT_EQ(h1.events.size(), 1u);
    EXPECT_EQ(h0.events[0].kind, Recorder::Event::Kind::kUp);
    EXPECT_TRUE(h0.events[0].initiator);
    EXPECT_FALSE(h1.events[0].initiator);
    // Handshake = 1.5 RTT: 1.5 * 2 * 10 ms one-way, or 1.5 * (13 + 30) ms.
    const Topology& topo = net.topology();
    EXPECT_EQ(h0.events[0].at, (topo.PathDelay(0, 1) + topo.PathDelay(1, 0)) * 3 / 2);
    EXPECT_EQ(h0.events[0].at, asymmetric ? MsToSim(43) * 3 / 2 : MsToSim(30));
  }
}

TEST(Network, SelfConnectionRejected) {
  Network net = MakeTwoNodeNet();
  EXPECT_EQ(net.Connect(0, 0), -1);
}

TEST(Network, MessageDeliveredWithTransmissionAndPropagation) {
  Network net = MakeTwoNodeNet(8e6, MsToSim(10));
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  // 100 KB at 8 Mbps = 100 ms transmission + 20 ms one-way + handshake 60 ms.
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 100 * 1000));
  net.Run(SecToSim(5.0));

  ASSERT_EQ(h1.events.size(), 2u);  // up + msg
  const auto& msg = h1.events[1];
  EXPECT_EQ(msg.kind, Recorder::Event::Kind::kMsg);
  EXPECT_EQ(msg.msg_id, 1);
  // Handshake 30 ms + transmission 100 ms + propagation 10 ms = 140 ms minimum;
  // slow start delays the early bytes somewhat.
  EXPECT_GE(msg.at, MsToSim(140));
  EXPECT_LE(msg.at, MsToSim(450));
}

TEST(Network, ThroughputMatchesLinkRate) {
  Network net = MakeTwoNodeNet(8e6, MsToSim(5));
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  // 4 MB at 8 Mbps ~ 4 s of transmission once past slow start.
  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    net.Send(conn, 0, std::make_unique<TestMsg>(i, 100 * 1000));
  }
  net.Run(SecToSim(60.0));
  int delivered = 0;
  SimTime last = 0;
  for (const auto& e : h1.events) {
    if (e.kind == Recorder::Event::Kind::kMsg) {
      ++delivered;
      last = e.at;
    }
  }
  EXPECT_EQ(delivered, kMessages);
  const double expected_sec = kMessages * 100.0 * 1000.0 * 8.0 / 8e6;
  EXPECT_NEAR(SimToSec(last), expected_sec, expected_sec * 0.25);
}

TEST(Network, InOrderDelivery) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  for (int i = 0; i < 50; ++i) {
    net.Send(conn, 0, std::make_unique<TestMsg>(i, 1000 + i * 100));
  }
  net.Run(SecToSim(30.0));
  int expected = 0;
  for (const auto& e : h1.events) {
    if (e.kind == Recorder::Event::Kind::kMsg) {
      EXPECT_EQ(e.msg_id, expected++);
    }
  }
  EXPECT_EQ(expected, 50);
}

TEST(Network, LossyPathStillDeliversInOrder) {
  MeshTopology topo(2);
  for (NodeId n = 0; n < 2; ++n) {
    topo.uplink(n) = LinkParams{8e6, MsToSim(0), 0.0};
    topo.downlink(n) = LinkParams{8e6, MsToSim(0), 0.0};
  }
  topo.core(0, 1) = LinkParams{8e6, MsToSim(10), 0.02};
  topo.core(1, 0) = LinkParams{8e6, MsToSim(10), 0.02};
  NetworkConfig config;
  Network net(std::move(topo), config, 99);
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  for (int i = 0; i < 30; ++i) {
    net.Send(conn, 0, std::make_unique<TestMsg>(i, 16 * 1024));
  }
  net.Run(SecToSim(120.0));
  int expected = 0;
  for (const auto& e : h1.events) {
    if (e.kind == Recorder::Event::Kind::kMsg) {
      EXPECT_EQ(e.msg_id, expected++);
    }
  }
  EXPECT_EQ(expected, 30);
}

TEST(Network, CloseDropsQueuedAndNotifiesPeer) {
  for (const bool asymmetric : {false, true}) {
    SCOPED_TRACE(asymmetric ? "asymmetric delays" : "symmetric delays");
    Network net = MakeTwoNodeNet();
    if (asymmetric) {
      MakeDelaysAsymmetric(net);
    }
    Recorder h0(&net);
    Recorder h1(&net);
    net.SetHandler(0, &h0);
    net.SetHandler(1, &h1);
    const ConnId conn = net.Connect(0, 1);
    net.Run(SecToSim(0.5));
    net.Send(conn, 0, std::make_unique<TestMsg>(1, 10 * 1000 * 1000));
    const SimTime closed_at = net.now();
    net.Close(conn);
    net.Run(SecToSim(5.0));
    EXPECT_FALSE(net.IsOpen(conn));
    bool down0 = false;
    bool down1 = false;
    bool msg1 = false;
    for (const auto& e : h0.events) {
      if (e.kind == Recorder::Event::Kind::kDown) {
        down0 = true;
        EXPECT_EQ(e.at, closed_at);
      }
    }
    for (const auto& e : h1.events) {
      if (e.kind == Recorder::Event::Kind::kDown) {
        down1 = true;
        // The remote end hears after the closer's one-way path delay.
        EXPECT_EQ(e.at, closed_at + net.topology().PathDelay(0, 1));
        EXPECT_EQ(e.at, closed_at + (asymmetric ? MsToSim(13) : MsToSim(10)));
      }
      msg1 |= e.kind == Recorder::Event::Kind::kMsg;
    }
    EXPECT_TRUE(down0);
    EXPECT_TRUE(down1);
    EXPECT_FALSE(msg1);
  }
}

TEST(Network, SendOnClosedConnectionFails) {
  Network net = MakeTwoNodeNet();
  const ConnId conn = net.Connect(0, 1);
  net.Close(conn);
  EXPECT_FALSE(net.Send(conn, 0, std::make_unique<TestMsg>(1, 100)));
  EXPECT_FALSE(net.Send(-5, 0, std::make_unique<TestMsg>(1, 100)));
}

TEST(Network, SendFromNonEndpointFails) {
  MeshTopology topo(3);
  for (NodeId n = 0; n < 3; ++n) {
    topo.uplink(n) = LinkParams{8e6, 0, 0.0};
    topo.downlink(n) = LinkParams{8e6, 0, 0.0};
    for (NodeId d = 0; d < 3; ++d) {
      topo.core(n, d) = LinkParams{8e6, MsToSim(1), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 1);
  const ConnId conn = net.Connect(0, 1);
  EXPECT_FALSE(net.Send(conn, 2, std::make_unique<TestMsg>(1, 100)));
}

TEST(Network, QueueIntrospection) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  net.Run(SecToSim(0.5));
  EXPECT_EQ(net.QueuedBytes(conn, 0), 0);
  EXPECT_GT(net.IdleTime(conn, 0), 0);
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 5 * 1000 * 1000));
  net.Send(conn, 0, std::make_unique<TestMsg>(2, 1000));
  EXPECT_EQ(net.QueuedBytes(conn, 0), 5 * 1000 * 1000 + 1000);
  EXPECT_EQ(net.IdleTime(conn, 0), 0);
}

TEST(Network, ByteAccounting) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 50 * 1000));
  net.Run(SecToSim(10.0));
  EXPECT_EQ(net.node_bytes_sent(0), 50 * 1000);
  EXPECT_EQ(net.node_bytes_received(1), 50 * 1000);
  EXPECT_EQ(net.node_bytes_sent(1), 0);
}

TEST(Network, BandwidthChangeTakesEffect) {
  Network net = MakeTwoNodeNet(8e6, MsToSim(5));
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  net.Run(SecToSim(1.0));  // warm up past slow start bookkeeping

  // Halve the core link before a 2 MB transfer; it should take ~2x the time.
  static_cast<MeshTopology&>(net.topology()).core(0, 1).bandwidth_bps = 2e6;
  const SimTime start = net.now();
  net.Send(conn, 0, std::make_unique<TestMsg>(7, 2 * 1000 * 1000));
  net.Run(SecToSim(60.0));
  SimTime arrival = -1;
  for (const auto& e : h1.events) {
    if (e.kind == Recorder::Event::Kind::kMsg && e.msg_id == 7) {
      arrival = e.at;
    }
  }
  ASSERT_GE(arrival, 0);
  const double sec = SimToSec(arrival - start);
  // 2 MB at 2 Mbps = 8 s (plus slow start); at the original 8 Mbps it would be 2 s.
  EXPECT_GT(sec, 6.0);
  EXPECT_LT(sec, 12.0);
}

TEST(Network, CloseCompactsWithinOneQuantum) {
  // Regression: closed connections used to linger in the open list until some
  // later tick's compaction pass. With event-driven tick work the pass only
  // runs when needed, so Close() must guarantee compaction on the next quantum
  // boundary — including when the network is otherwise completely idle.
  MeshTopology topo(4);
  for (NodeId n = 0; n < 4; ++n) {
    topo.uplink(n) = LinkParams{8e6, 0, 0.0};
    topo.downlink(n) = LinkParams{8e6, 0, 0.0};
    for (NodeId d = 0; d < 4; ++d) {
      topo.core(n, d) = LinkParams{8e6, MsToSim(1), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 13);
  std::vector<ConnId> conns;
  for (NodeId d = 1; d < 4; ++d) {
    conns.push_back(net.Connect(0, d));
    conns.push_back(net.Connect(d, (d + 1) % 4 == 0 ? 1 : d + 1));
  }
  net.Run(SecToSim(1.0));  // establish; network is idle (no traffic at all)
  ASSERT_EQ(net.open_conn_entries(), conns.size());

  net.Close(conns[0]);
  net.Close(conns[3]);
  EXPECT_FALSE(net.IsOpen(conns[0]));
  // Entries may persist only until the next quantum boundary.
  net.Run(net.now() + MsToSim(10));
  EXPECT_EQ(net.open_conn_entries(), conns.size() - 2);

  // Idle network, closes only — still compacted, never accumulated.
  for (size_t i = 1; i < conns.size(); ++i) {
    if (i != 3) {
      net.Close(conns[i]);
    }
  }
  net.Run(net.now() + MsToSim(10));
  EXPECT_EQ(net.open_conn_entries(), 0u);
}

// The route slices of closed connections are reclaimed: over many
// Connect/Close rounds the pool stays bounded by the open connections' routes,
// and a connection whose slice was packed to the front still routes by it.
TEST(Network, PathPoolStaysBoundedByOpenRoutes) {
  // Routers 0-1-2-3 in a line; even nodes on router 0, odd nodes on router 3,
  // so every even-odd connection routes over three interior links each way.
  RoutedTopology topo(8, 4);
  for (NodeId n = 0; n < 8; ++n) {
    topo.uplink(n) = LinkParams{8e6, 0, 0.0};
    topo.downlink(n) = LinkParams{8e6, 0, 0.0};
    topo.AttachNode(n, n % 2 == 0 ? 0 : 3);
  }
  const int32_t hops[3] = {topo.AddDuplexEdge(0, 1, LinkParams{8e6, MsToSim(1), 0.0}),
                           topo.AddDuplexEdge(1, 2, LinkParams{8e6, MsToSim(1), 0.0}),
                           topo.AddDuplexEdge(2, 3, LinkParams{8e6, MsToSim(1), 0.0})};
  NetworkConfig config;
  config.quantum = MsToSim(10);
  Network net(std::move(topo), config, 21);
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);

  const auto round = [&net] {
    std::vector<ConnId> conns;
    for (NodeId a = 2; a < 8; a += 2) {
      for (NodeId b = 3; b < 8; b += 2) {
        conns.push_back(net.Connect(a, b));
      }
    }
    net.Run(net.now() + MsToSim(10));
    for (const ConnId c : conns) {
      net.Close(c);
    }
    net.Run(net.now() + MsToSim(10));
  };
  // `kept` is connected behind a round's worth of routes that then close, so
  // the first packing moves its slices.
  std::vector<ConnId> early;
  for (NodeId b = 3; b < 8; b += 2) {
    early.push_back(net.Connect(2, b));
  }
  const ConnId kept = net.Connect(0, 1);
  for (const ConnId c : early) {
    net.Close(c);
  }
  // Open at any time: `kept` plus one round of 9 connections, 6 entries each.
  constexpr size_t kPeakOpenEntries = 10 * 6;
  size_t bytes_after_warmup = 0;
  for (int r = 0; r < 200; ++r) {
    round();
    EXPECT_LE(net.path_pool_bytes(), 2 * kPeakOpenEntries * sizeof(int32_t)) << "round " << r;
    if (r == 9) {
      bytes_after_warmup = net.path_pool_bytes();
    }
  }
  EXPECT_EQ(net.path_pool_bytes(), bytes_after_warmup);
  ASSERT_EQ(net.open_conn_entries(), 1u);

  net.Send(kept, 0, std::make_unique<TestMsg>(1, 2 * 1000 * 1000));
  net.Run(net.now() + MsToSim(100));
  // `kept` alone crosses router 0 -> 3; the reverse links are idle.
  ASSERT_GT(net.CurrentRateBps(kept, 0), 0.0);
  for (const int32_t hop : hops) {
    EXPECT_EQ(net.InteriorLinkAllocatedBps(hop), net.CurrentRateBps(kept, 0)) << "link " << hop;
    EXPECT_EQ(net.InteriorLinkAllocatedBps(hop + 1), 0.0) << "link " << hop;
  }
  net.Run(net.now() + SecToSim(5.0));
  ASSERT_EQ(h1.events.size(), 2u);  // up, then the message
  EXPECT_EQ(h1.events[1].kind, Recorder::Event::Kind::kMsg);
}

TEST(Network, ActiveDirectionAccountingAcrossLifecycle) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  EXPECT_EQ(net.active_directions(), 0u);
  // Queued before establishment: becomes active at establishment time.
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 64 * 1024));
  EXPECT_EQ(net.active_directions(), 0u);
  net.Run(SecToSim(0.05));  // established, still transmitting
  EXPECT_EQ(net.active_directions(), 1u);
  net.Run(SecToSim(2.0));  // drained
  EXPECT_EQ(net.active_directions(), 0u);
  net.Send(conn, 0, std::make_unique<TestMsg>(2, 8 * 1024 * 1024));
  EXPECT_EQ(net.active_directions(), 1u);
  net.Close(conn);  // closing a busy direction must release it
  EXPECT_EQ(net.active_directions(), 0u);
  net.Run(SecToSim(3.0));
  EXPECT_EQ(net.active_directions(), 0u);
  EXPECT_EQ(net.open_conn_entries(), 0u);
}

TEST(Network, CompactedClosedConnectionAnswersAsClosed) {
  // The compaction pass frees a closed connection's state. Every call on its
  // id must then answer as for a closed connection, the delivery still in
  // flight must be dropped, and nothing may touch the freed state (the
  // sanitizer build runs this test).
  Network net = MakeTwoNodeNet(8e6, MsToSim(100));
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  const ConnId other = net.Connect(0, 1);
  net.Run(SecToSim(1.0));
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 1000));
  net.Send(conn, 0, std::make_unique<TestMsg>(2, 10 * 1000 * 1000));
  net.Send(other, 0, std::make_unique<TestMsg>(3, 10 * 1000 * 1000));
  // Quantum by quantum until message 1 is on the wire (its delivery is 100 ms
  // out); message 2 is still queued.
  for (int q = 0; q < 100 && net.node_bytes_sent(0) == 0; ++q) {
    net.Run(net.now() + MsToSim(10));
  }
  ASSERT_EQ(net.node_bytes_sent(0), 1000);
  ASSERT_EQ(net.node_bytes_received(1), 0);
  ASSERT_GT(net.QueuedBytes(conn, 0), 0);
  ASSERT_GT(net.IdleTime(conn, 1), 0);

  net.Close(conn);
  net.Run(net.now() + MsToSim(20));  // two quanta: compacted and freed
  EXPECT_EQ(net.open_conn_entries(), 1u);
  EXPECT_FALSE(net.IsOpen(conn));
  EXPECT_FALSE(net.Send(conn, 0, std::make_unique<TestMsg>(4, 100)));
  for (const NodeId n : {0, 1}) {
    EXPECT_EQ(net.QueuedBytes(conn, n), 0);
    EXPECT_EQ(net.CurrentRateBps(conn, n), 0.0);
    EXPECT_EQ(net.IdleTime(conn, n), 0);
  }
  net.Close(conn);  // no-op: no second down notification
  net.Run(SecToSim(2.0));
  net.FailNode(0);  // closes `other`, leaves `conn` alone
  net.Run(SecToSim(3.0));

  const auto downs = [](const Recorder& h, ConnId id) {
    int count = 0;
    for (const auto& e : h.events) {
      count += e.kind == Recorder::Event::Kind::kDown && e.conn == id ? 1 : 0;
    }
    return count;
  };
  for (const Recorder* h : {&h0, &h1}) {
    EXPECT_EQ(downs(*h, conn), 1);
    EXPECT_EQ(downs(*h, other), 1);
  }
  for (const auto& e : h1.events) {
    EXPECT_FALSE(e.kind == Recorder::Event::Kind::kMsg && e.conn == conn)
        << "message " << e.msg_id << " delivered on a closed connection";
  }
  // Message 1 left node 0 but never reached node 1; message 3 never finished.
  EXPECT_EQ(net.node_bytes_sent(0), 1000);
  EXPECT_EQ(net.node_bytes_received(1), 0);
  EXPECT_EQ(net.open_conn_entries(), 0u);
  EXPECT_EQ(net.active_directions(), 0u);
}

// A direction's queue starts at one slot and doubles. Queue 1, then 2, then 9
// messages with partial drains between, so the ring grows 1 -> 2 -> 4 from the
// front, wraps, and grows 4 -> 8 -> 16 with its head mid-buffer.
TEST(Network, QueueKeepsOrderAcrossRingGrowth) {
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  net.Run(SecToSim(0.5));  // established
  int next_id = 0;
  const auto send = [&](int64_t bytes) {
    ASSERT_TRUE(net.Send(conn, 0, std::make_unique<TestMsg>(next_id++, bytes)));
  };
  const auto run_quantum = [&] { net.Run(net.now() + MsToSim(10)); };

  send(40 * 1000);  // one slot
  run_quantum();    // partly sent
  ASSERT_EQ(net.QueuedBytes(conn, 0), 40 * 1000);
  send(30 * 1000);  // two slots
  constexpr int64_t kThird = 200 * 1000;
  send(kThird);  // four slots, head at 0
  // Drain the first two; the third is still queued, so the head sits at slot 2.
  for (int q = 0; q < 200 && net.QueuedBytes(conn, 0) > kThird; ++q) {
    run_quantum();
  }
  ASSERT_EQ(net.QueuedBytes(conn, 0), kThird);
  for (int i = 0; i < 9; ++i) {
    send(1000 + i);  // slots 3, 0, 1 (wrapped), then 8 and 16 slots
  }
  net.Run(SecToSim(5.0));
  EXPECT_EQ(net.QueuedBytes(conn, 0), 0);
  std::vector<int> delivered;
  for (const auto& e : h1.events) {
    if (e.kind == Recorder::Event::Kind::kMsg) {
      delivered.push_back(e.msg_id);
    }
  }
  std::vector<int> sent(12);
  std::iota(sent.begin(), sent.end(), 0);
  EXPECT_EQ(delivered, sent);

  // Messages queued in the grown ring are dropped by a Close.
  for (int i = 0; i < 3; ++i) {
    send(50 * 1000);
  }
  ASSERT_EQ(net.QueuedBytes(conn, 0), 150 * 1000);
  net.Close(conn);
  EXPECT_EQ(net.QueuedBytes(conn, 0), 0);
  net.Run(SecToSim(8.0));
  size_t messages = 0;
  for (const auto& e : h1.events) {
    messages += e.kind == Recorder::Event::Kind::kMsg ? 1 : 0;
  }
  EXPECT_EQ(messages, sent.size());
  EXPECT_EQ(net.node_bytes_received(1), net.node_bytes_sent(0));
}

// The pass CompactOpenConns ran before it cost what the closes cost: ascending
// positions, each closed entry swapped with the last and popped, the moved
// entry checked again in place, with the busy bit moving along.
void ScanOutClosed(std::vector<ConnId>& list, std::vector<uint64_t>& bits,
                   const std::vector<char>& closed_by_id) {
  for (size_t i = 0; i < list.size();) {
    if (closed_by_id[static_cast<size_t>(list[i])] == 0) {
      ++i;
      continue;
    }
    const size_t last = list.size() - 1;
    list[i] = list[last];
    list.pop_back();
    if (i != last) {
      const uint64_t busy = (bits[last / 64] >> (last % 64)) & 1;
      bits[last / 64] &= ~(uint64_t{1} << (last % 64));
      bits[i / 64] |= busy << (i % 64);
    }
  }
}

TEST(Network, DropClosedEntriesMatchesTheScan) {
  Rng rng(33);
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 300));
    const double closed_frac = trial % 10 == 0 ? 0.0 : trial % 10 == 1 ? 1.0 : rng.UniformDouble();
    std::vector<char> closed(n, 0);
    for (size_t i = 0; i < n; ++i) {
      closed[i] = rng.Bernoulli(closed_frac) ? 1 : 0;
    }
    // Runs of closed entries side by side, somewhere and at the tail.
    if (trial % 3 == 0) {
      const size_t from = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      const size_t len = static_cast<size_t>(rng.UniformInt(1, 40));
      for (size_t i = from; i < std::min(n, from + len); ++i) {
        closed[i] = 1;
      }
    }
    if (trial % 4 == 0) {
      const size_t len = static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(n)));
      for (size_t i = n - len; i < n; ++i) {
        closed[i] = 1;
      }
    }
    // Entry ids are a shuffle of 0..n-1; position i holds a closed entry when
    // closed[i], and only open entries may have their busy bit set.
    std::vector<ConnId> list(n);
    for (size_t i = 0; i < n; ++i) {
      list[i] = static_cast<ConnId>(i);
    }
    rng.Shuffle(list);
    std::vector<char> closed_by_id(n, 0);
    std::vector<uint64_t> bits((n + 63) / 64 + 1, 0);
    std::vector<uint32_t> closed_pos;
    for (size_t i = 0; i < n; ++i) {
      if (closed[i] != 0) {
        closed_by_id[static_cast<size_t>(list[i])] = 1;
        closed_pos.push_back(static_cast<uint32_t>(i));
      } else if (rng.Bernoulli(0.5)) {
        bits[i / 64] |= uint64_t{1} << (i % 64);
      }
    }
    rng.Shuffle(closed_pos);  // the order connections closed in

    std::vector<ConnId> want_list = list;
    std::vector<uint64_t> want_bits = bits;
    ScanOutClosed(want_list, want_bits, closed_by_id);
    DropClosedEntries(list, bits, closed_pos);
    ASSERT_EQ(list, want_list) << "trial " << trial << ", " << n << " entries";
    ASSERT_EQ(bits, want_bits) << "trial " << trial << ", " << n << " entries";
    for (const uint32_t pos : closed_pos) {
      if (pos < list.size()) {
        EXPECT_EQ(closed_by_id[static_cast<size_t>(list[pos])], 0) << "trial " << trial;
      }
    }
  }
}

TEST(Dynamics, PeriodicHalvingIsCumulative) {
  MeshTopology topo(4);
  for (NodeId n = 0; n < 4; ++n) {
    topo.uplink(n) = LinkParams{6e6, 0, 0.0};
    topo.downlink(n) = LinkParams{6e6, 0, 0.0};
    for (NodeId d = 0; d < 4; ++d) {
      topo.core(n, d) = LinkParams{2e6, MsToSim(1), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 5);
  BandwidthDynamicsParams params;
  params.period = SecToSim(1.0);
  params.node_fraction = 1.0;
  params.sender_fraction = 1.0;
  StartPeriodicBandwidthChanges(net, params);
  net.Run(SecToSim(3.5));  // 3 firings
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId d = 0; d < 4; ++d) {
      if (s != d) {
        EXPECT_NEAR(static_cast<MeshTopology&>(net.topology()).core(s, d).bandwidth_bps, 2e6 / 8.0, 1.0);
      }
    }
  }
}

TEST(Dynamics, CascadeIsSequential) {
  MeshTopology topo(4);
  for (NodeId n = 0; n < 4; ++n) {
    topo.uplink(n) = LinkParams{6e6, 0, 0.0};
    topo.downlink(n) = LinkParams{6e6, 0, 0.0};
    for (NodeId d = 0; d < 4; ++d) {
      topo.core(n, d) = LinkParams{5e6, MsToSim(1), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 5);
  StartCascade(net, /*target=*/3, {0, 1, 2}, SecToSim(1.0), 100e3);
  net.Run(SecToSim(1.5));
  EXPECT_DOUBLE_EQ(static_cast<MeshTopology&>(net.topology()).core(0, 3).bandwidth_bps, 100e3);
  EXPECT_DOUBLE_EQ(static_cast<MeshTopology&>(net.topology()).core(1, 3).bandwidth_bps, 5e6);
  net.Run(SecToSim(3.5));
  EXPECT_DOUBLE_EQ(static_cast<MeshTopology&>(net.topology()).core(1, 3).bandwidth_bps, 100e3);
  EXPECT_DOUBLE_EQ(static_cast<MeshTopology&>(net.topology()).core(2, 3).bandwidth_bps, 100e3);
  // Reverse directions untouched.
  EXPECT_DOUBLE_EQ(static_cast<MeshTopology&>(net.topology()).core(3, 0).bandwidth_bps, 5e6);
}

}  // namespace
}  // namespace bullet
