// sendrecv, probe/iprobe, comm splitting, and trace replay.
#include <gtest/gtest.h>

#include "apps/replay.hpp"
#include "net/cluster.hpp"
#include "simmpi/machine.hpp"

namespace dpml::simmpi {
namespace {

// Timing-only machine options: no payload buffers, default seed.
RunOptions no_data() {
  RunOptions o;
  o.with_data = false;
  return o;
}

TEST(Sendrecv, ExchangesWithoutDeadlock) {
  // Symmetric large-message exchange: plain blocking send+recv would
  // deadlock under rendezvous; sendrecv must not.
  Machine m(net::test_cluster(2), 2, 1, no_data());
  m.run([&](Rank& r) -> sim::CoTask<void> {
    const int peer = 1 - r.world_rank();
    const auto res = co_await r.sendrecv(m.world(), peer, 5, 64 * 1024, peer,
                                         5, 64 * 1024);
    EXPECT_EQ(res.bytes, 64u * 1024);
    EXPECT_EQ(res.src, peer);
  });
}

TEST(Probe, IprobeSeesOnlyUnconsumedMessages) {
  Machine m(net::test_cluster(2), 2, 1, no_data());
  m.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.world_rank() == 0) {
      co_await r.send(m.world(), 1, 3, 128);
    } else {
      EXPECT_FALSE(r.iprobe(m.world(), 0, 3));  // nothing arrived yet
      co_await r.compute(sim::us(100.0));
      RecvResult info;
      EXPECT_TRUE(r.iprobe(m.world(), 0, 3, &info));
      EXPECT_EQ(info.bytes, 128u);
      EXPECT_EQ(info.src, 0);
      co_await r.recv(m.world(), 0, 3, 128);
      EXPECT_FALSE(r.iprobe(m.world(), 0, 3));  // consumed
    }
    co_return;
  });
}

TEST(Probe, BlockingProbeWaitsForArrival) {
  Machine m(net::test_cluster(2), 2, 1, no_data());
  sim::Time probed_at = 0;
  m.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.world_rank() == 0) {
      co_await r.compute(sim::us(50.0));
      co_await r.send(m.world(), 1, 9, 77);
    } else {
      const auto info = co_await r.probe(m.world(), 0, 9);
      probed_at = r.engine().now();
      EXPECT_EQ(info.bytes, 77u);
      // Probe did not consume: the recv still completes.
      co_await r.recv(m.world(), 0, 9, 77);
    }
    co_return;
  });
  EXPECT_GT(probed_at, sim::us(50.0));
}

TEST(Probe, WildcardProbeReportsEnvelope) {
  Machine m(net::test_cluster(2), 2, 2, no_data());
  m.run([&](Rank& r) -> sim::CoTask<void> {
    if (r.world_rank() == 1) {
      co_await r.send(m.world(), 3, 42, 8);
    } else if (r.world_rank() == 3) {
      const auto info = co_await r.probe(m.world(), kAnySource, kAnyTag);
      EXPECT_EQ(info.src, 1);
      EXPECT_EQ(info.tag, 42);
      co_await r.recv(m.world(), info.src, info.tag, info.bytes);
    }
    co_return;
  });
}

TEST(SplitComm, GroupsByColorOrdersByKey) {
  Machine m(net::test_cluster(2), 2, 2);  // world = 4 ranks
  const std::vector<int> colors{0, 1, 0, 1};
  const std::vector<int> keys{5, 0, 1, 1};
  const Comm& even = m.split_comm(m.world(), colors, keys, 0);
  const Comm& odd = m.split_comm(m.world(), colors, keys, 1);
  ASSERT_EQ(even.size(), 2);
  // color 0 members: world 0 (key 5), world 2 (key 1) -> ordered 2, 0.
  EXPECT_EQ(even.world_rank(0), 2);
  EXPECT_EQ(even.world_rank(1), 0);
  ASSERT_EQ(odd.size(), 2);
  EXPECT_EQ(odd.world_rank(0), 1);
  EXPECT_EQ(odd.world_rank(1), 3);
  EXPECT_NE(even.context(), odd.context());
  // Cached: same arguments give the same communicator object.
  EXPECT_EQ(&m.split_comm(m.world(), colors, keys, 0), &even);
}

TEST(SplitComm, UndefinedColorYieldsNullComm) {
  Machine m(net::test_cluster(2), 2, 1);
  const Comm& none = m.split_comm(m.world(), {0, -1}, {0, 0}, -1);
  EXPECT_EQ(none.size(), 0);
}

TEST(SplitComm, SplitCommIsUsableForCollectives) {
  Machine m(net::test_cluster(2), 2, 2, no_data());
  const std::vector<int> colors{0, 1, 0, 1};
  const std::vector<int> keys{0, 0, 1, 1};
  m.run([&](Rank& r) -> sim::CoTask<void> {
    const int my_color = r.world_rank() % 2;
    const Comm& sub = m.split_comm(m.world(), colors, keys, my_color);
    coll::CollArgs a;
    a.rank = &r;
    a.comm = &sub;
    a.count = 64;
    a.inplace = true;
    co_await coll::allreduce_recursive_doubling(a);
  });
  SUCCEED();
}

TEST(SplitComm, RejectsBadArraySizes) {
  Machine m(net::test_cluster(2), 2, 1);
  EXPECT_THROW(m.split_comm(m.world(), {0}, {0, 0}, 0), util::InvariantError);
}

}  // namespace
}  // namespace dpml::simmpi

namespace dpml::apps {
namespace {

TEST(Replay, ParsesTraceFormat) {
  const auto ops = parse_trace(
      "# comment\n"
      "allreduce 8 50\n"
      "reduce 1024\n"
      "bcast 4096 10.5\n"
      "barrier 3\n"
      "\n");
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].kind, TraceOp::Kind::allreduce);
  EXPECT_EQ(ops[0].bytes, 8u);
  EXPECT_DOUBLE_EQ(ops[0].compute_us, 50.0);
  EXPECT_EQ(ops[1].kind, TraceOp::Kind::reduce);
  EXPECT_DOUBLE_EQ(ops[1].compute_us, 0.0);
  EXPECT_EQ(ops[2].kind, TraceOp::Kind::bcast);
  EXPECT_DOUBLE_EQ(ops[2].compute_us, 10.5);
  EXPECT_EQ(ops[3].kind, TraceOp::Kind::barrier);
  EXPECT_THROW(parse_trace("frobnicate 8\n"), util::InvariantError);
  EXPECT_THROW(parse_trace("allreduce\n"), util::InvariantError);
}

TEST(Replay, ExampleTraceRunsUnderAllDesigns) {
  const auto trace = parse_trace(example_trace());
  auto cfg = net::cluster_b();
  ReplayOptions o;
  o.nodes = 2;
  o.ppn = 8;
  double prev = 0;
  for (const char* algo : {"mvapich2", "dpml-auto"}) {
    o.spec.algo = algo;
    const auto r = replay_trace(cfg, trace, o);
    EXPECT_EQ(r.ops, static_cast<int>(trace.size()));
    EXPECT_GT(r.comm_s, 0.0);
    EXPECT_GT(r.total_s, r.comm_s);
    if (prev > 0) {
      EXPECT_LT(r.comm_s, prev);  // dpml-auto beats mvapich2
    }
    prev = r.comm_s;
  }
}

TEST(Replay, RepetitionsScaleTime) {
  const auto trace = parse_trace("allreduce 1024 10\n");
  auto cfg = net::cluster_c();
  ReplayOptions one;
  one.nodes = 2;
  one.ppn = 4;
  one.spec.algo = "dpml";
  ReplayOptions ten = one;
  ten.repetitions = 10;
  const auto a = replay_trace(cfg, trace, one);
  const auto b = replay_trace(cfg, trace, ten);
  EXPECT_NEAR(b.total_s, a.total_s * 10, a.total_s * 2);
}

}  // namespace
}  // namespace dpml::apps
