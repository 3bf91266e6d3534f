#include "src/sim/network.h"

#include <gtest/gtest.h>

#include <memory>
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

TEST(Network, ConnectionEstablishesAfterHandshake) {
  Network net = MakeTwoNodeNet();
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
  // Handshake = 1.5 RTT = 1.5 * 2 * 10 ms one-way.
  EXPECT_EQ(h0.events[0].at, MsToSim(30));
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
  Network net = MakeTwoNodeNet();
  Recorder h0(&net);
  Recorder h1(&net);
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  net.Run(SecToSim(0.5));
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 10 * 1000 * 1000));
  net.Close(conn);
  net.Run(SecToSim(5.0));
  EXPECT_FALSE(net.IsOpen(conn));
  bool down0 = false;
  bool down1 = false;
  bool msg1 = false;
  for (const auto& e : h0.events) {
    down0 |= e.kind == Recorder::Event::Kind::kDown;
  }
  for (const auto& e : h1.events) {
    down1 |= e.kind == Recorder::Event::Kind::kDown;
    msg1 |= e.kind == Recorder::Event::Kind::kMsg;
  }
  EXPECT_TRUE(down0);
  EXPECT_TRUE(down1);
  EXPECT_FALSE(msg1);
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
  EXPECT_EQ(net.QueuedMessages(conn, 0), 0u);
  EXPECT_GT(net.IdleTime(conn, 0), 0);
  net.Send(conn, 0, std::make_unique<TestMsg>(1, 5 * 1000 * 1000));
  net.Send(conn, 0, std::make_unique<TestMsg>(2, 1000));
  EXPECT_EQ(net.QueuedMessages(conn, 0), 2u);
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
  net.topology().AsMesh()->core(0, 1).bandwidth_bps = 2e6;
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
        EXPECT_NEAR(net.topology().AsMesh()->core(s, d).bandwidth_bps, 2e6 / 8.0, 1.0);
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
  EXPECT_DOUBLE_EQ(net.topology().AsMesh()->core(0, 3).bandwidth_bps, 100e3);
  EXPECT_DOUBLE_EQ(net.topology().AsMesh()->core(1, 3).bandwidth_bps, 5e6);
  net.Run(SecToSim(3.5));
  EXPECT_DOUBLE_EQ(net.topology().AsMesh()->core(1, 3).bandwidth_bps, 100e3);
  EXPECT_DOUBLE_EQ(net.topology().AsMesh()->core(2, 3).bandwidth_bps, 100e3);
  // Reverse directions untouched.
  EXPECT_DOUBLE_EQ(net.topology().AsMesh()->core(3, 0).bandwidth_bps, 5e6);
}

}  // namespace
}  // namespace bullet
