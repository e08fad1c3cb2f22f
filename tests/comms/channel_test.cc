// FramedChannel / FrameListener tests: loopback round-trips, recv
// deadlines, peer-close detection, fault-injected short/failed I/O,
// and full-duplex use from two threads (the TSan target).
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "comms/channel.h"
#include "comms/frame.h"
#include "common/fault.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

// A connected (server, client) channel pair over an ephemeral loopback
// port — every listener in the tests binds port 0, so `ctest -j` never
// races for a fixed port.
struct ChannelPair {
  FrameListener listener{"comms_srv"};
  FramedChannel server{"comms_srv"};
  FramedChannel client;

  void Wire() {
    ASSERT_TRUE(listener.Listen(0).ok());
    ASSERT_GT(listener.port(), 0);
    ASSERT_TRUE(client.Connect(listener.port()).ok());
    auto fd = listener.AcceptFd();
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    server.Adopt(*fd);
  }
};

TEST(ChannelTest, RoundTripsFramesBothDirections) {
  ChannelPair pair;
  pair.Wire();
  ASSERT_TRUE(pair.client.Send(FrameType::kHello, "ping").ok());
  auto at_server = pair.server.Recv();
  ASSERT_TRUE(at_server.ok()) << at_server.status().ToString();
  EXPECT_EQ(at_server->type, static_cast<uint32_t>(FrameType::kHello));
  EXPECT_EQ(at_server->payload, "ping");

  ASSERT_TRUE(pair.server.Send(FrameType::kWelcome, "pong").ok());
  auto at_client = pair.client.Recv();
  ASSERT_TRUE(at_client.ok()) << at_client.status().ToString();
  EXPECT_EQ(at_client->payload, "pong");
}

TEST(ChannelTest, RecvTimesOutWhenPeerIsSilent) {
  ChannelPair pair;
  pair.Wire();
  pair.server.SetIoTimeout(50);
  auto frame = pair.server.Recv();
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(IsIoTimeout(frame.status())) << frame.status().ToString();
  EXPECT_FALSE(IsPeerClosed(frame.status()));
}

TEST(ChannelTest, RecvReportsPeerClose) {
  ChannelPair pair;
  pair.Wire();
  pair.client.Disconnect();
  auto frame = pair.server.Recv();
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(IsPeerClosed(frame.status())) << frame.status().ToString();
}

TEST(ChannelTest, InjectedSendErrorSurfacesAsUnavailable) {
  ChannelPair pair;
  pair.Wire();
  ScopedFaultInjection faults;
  FaultInjector::Global().Arm("comms/send", FaultKind::kError);
  Status st = pair.client.Send(FrameType::kLeaf, "never-arrives");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(FaultInjector::Global().hits("comms/send"), 1);
}

// A short write transmits a prefix of the frame then fails: the peer
// must see either "need more bytes" forever (and then EOF once the
// torn sender closes) — never a successfully decoded frame.
TEST(ChannelTest, InjectedShortWriteTearsTheFrameDetectably) {
  ChannelPair pair;
  pair.Wire();
  {
    ScopedFaultInjection faults;
    FaultInjector::Global().Arm("comms/send", FaultKind::kShortWrite);
    Status st = pair.client.Send(FrameType::kLeaf, "torn-frame-payload");
    ASSERT_FALSE(st.ok());
  }
  pair.client.Disconnect();  // the "crashed" sender's socket goes away
  auto frame = pair.server.Recv();
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(IsPeerClosed(frame.status())) << frame.status().ToString();
}

TEST(ChannelTest, InjectedRecvFaultSurfaces) {
  ChannelPair pair;
  pair.Wire();
  ASSERT_TRUE(pair.client.Send(FrameType::kHello, "x").ok());
  ScopedFaultInjection faults;
  FaultInjector::Global().Arm("comms_srv/recv", FaultKind::kError);
  auto frame = pair.server.Recv();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(ChannelTest, InjectedConnectCrashIsSimulatedCrash) {
  FrameListener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  ScopedFaultInjection faults;
  FaultInjector::Global().Arm("comms/connect", FaultKind::kCrash);
  FramedChannel channel;
  Status st = channel.Connect(listener.port());
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(IsSimulatedCrash(st)) << st.ToString();
  EXPECT_FALSE(channel.connected());
}

// Full-duplex: one thread streams frames out while another drains the
// inbound direction of the SAME channel. Run under TSan this proves
// Send and Recv never race on shared channel state.
TEST(ChannelTest, ConcurrentSendAndRecvOnOneChannelIsRaceFree) {
  ChannelPair pair;
  pair.Wire();
  constexpr int kFrames = 200;
  std::thread echo([&] {
    for (int i = 0; i < kFrames; ++i) {
      auto frame = pair.server.Recv();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_TRUE(pair.server.Send(frame->type, frame->payload).ok());
    }
  });
  std::thread sender([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(
          pair.client.Send(FrameType::kLeaf, std::to_string(i)).ok());
    }
  });
  // This thread drains echoes while `sender` pushes on the same
  // client channel.
  for (int i = 0; i < kFrames; ++i) {
    auto frame = pair.client.Recv();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->payload, std::to_string(i));
  }
  sender.join();
  echo.join();
}

TEST(ChannelTest, ShutdownWakeUnblocksARecvFromAnotherThread) {
  ChannelPair pair;
  pair.Wire();
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pair.server.ShutdownWake();
  });
  auto frame = pair.server.Recv();  // no deadline: only the wake ends it
  EXPECT_FALSE(frame.ok());
  waker.join();
}

// AllReduceCoordinator::Stop's order: ShutdownWake fails the blocked
// AcceptFd and every later one at once, but leaves the descriptor open
// for an accept thread that may still be about to use it; Disconnect
// closes it after that thread is joined.
TEST(ChannelTest, ListenerWakeFailsAcceptsButKeepsTheSocketOpen) {
  FrameListener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  Status blocked;
  std::thread acceptor([&] { blocked = listener.AcceptFd().status(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.ShutdownWake();
  acceptor.join();
  EXPECT_EQ(blocked.code(), StatusCode::kUnavailable) << blocked.ToString();
  const auto start = std::chrono::steady_clock::now();
  const Result<int> late = listener.AcceptFd();
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_TRUE(listener.listening());
  listener.Disconnect();
  EXPECT_FALSE(listener.listening());
}

TEST(ChannelTest, ListenerPicksDistinctEphemeralPorts) {
  FrameListener a, b;
  ASSERT_TRUE(a.Listen(0).ok());
  ASSERT_TRUE(b.Listen(0).ok());
  EXPECT_GT(a.port(), 0);
  EXPECT_GT(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
}

TEST(ChannelTest, PortsOutsideTheTcpRangeAreInvalidArguments) {
  // Truncated to 16 bits, 70000 would bind or dial 4464.
  for (const int port : {-1, 65536, 70000}) {
    FrameListener listener;
    const Status listened = listener.Listen(port);
    EXPECT_EQ(listened.code(), StatusCode::kInvalidArgument) << port;
    EXPECT_NE(listened.message().find(std::to_string(port)),
              std::string::npos)
        << listened.ToString();
    EXPECT_FALSE(listener.listening());
    FramedChannel channel;
    const Status connected = channel.Connect(port);
    EXPECT_EQ(connected.code(), StatusCode::kInvalidArgument) << port;
    EXPECT_NE(connected.message().find(std::to_string(port)),
              std::string::npos)
        << connected.ToString();
    EXPECT_FALSE(channel.connected());
  }
}

}  // namespace
}  // namespace sgcl
