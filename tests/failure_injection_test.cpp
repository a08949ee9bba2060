// Failure injection: every error path must surface as a typed exception (or
// a detected deadlock), never a hang or silent corruption.
#include <gtest/gtest.h>

#include "coll/dpml.hpp"
#include "core/measure.hpp"
#include "net/cluster.hpp"
#include "sharp/sharp.hpp"
#include "simmpi/machine.hpp"

namespace dpml {
namespace {

using simmpi::Machine;
using simmpi::Rank;
using sim::CoTask;

// Timing-only machine options: no payload buffers, default seed.
simmpi::RunOptions no_data() {
  simmpi::RunOptions o;
  o.with_data = false;
  return o;
}

TEST(FailureInjection, TagMismatchIsDetectedAsDeadlock) {
  Machine m(net::test_cluster(2), 2, 1, no_data());
  EXPECT_THROW(m.run([&](Rank& r) -> CoTask<void> {
                 if (r.world_rank() == 0) {
                   co_await r.send(m.world(), 1, /*tag=*/1, 64);
                   co_await r.recv(m.world(), 1, /*tag=*/2, 64);
                 } else {
                   co_await r.recv(m.world(), 0, /*tag=*/3, 64);  // never sent
                 }
               }),
               util::DeadlockError);
}

TEST(FailureInjection, MismatchedCollectiveSequenceDeadlocks) {
  // One rank runs a different collective count: detected, not hung.
  Machine m(net::test_cluster(2), 2, 1, no_data());
  EXPECT_THROW(m.run([&](Rank& r) -> CoTask<void> {
                 coll::CollArgs a;
                 a.rank = &r;
                 a.comm = &m.world();
                 a.count = 64;
                 a.inplace = true;
                 const int rounds = r.world_rank() == 0 ? 2 : 1;
                 for (int i = 0; i < rounds; ++i) {
                   co_await coll::allreduce_recursive_doubling(a);
                 }
               }),
               util::DeadlockError);
}

TEST(FailureInjection, TruncationInsideUserCodeThrows) {
  Machine m(net::test_cluster(2), 2, 1);
  EXPECT_THROW(m.run([&](Rank& r) -> CoTask<void> {
                 if (r.world_rank() == 0) {
                   std::vector<std::byte> big(256, std::byte{1});
                   co_await r.send(m.world(), 1, 0, big.size(),
                                   simmpi::ConstBytes{big});
                 } else {
                   std::vector<std::byte> small(16);
                   co_await r.recv(m.world(), 0, 0, small.size(),
                                   simmpi::MutBytes{small});
                 }
               }),
               util::MessageError);
}

TEST(FailureInjection, SharpGroupExhaustionSurfaces) {
  Machine m(net::test_cluster(4), 4, 2, no_data());
  sharp::SharpFabric f(m);  // test cluster: max_groups = 4
  f.create_group({0, 2});
  f.create_group({0, 4});
  f.create_group({0, 6});
  f.create_group({2, 4});
  EXPECT_THROW(f.named_group("one_too_many", {4, 6}), sharp::SharpError);
}

TEST(FailureInjection, CountMismatchAcrossRanksDetected) {
  // Ranks disagree on the vector size: the smaller receiver truncates.
  Machine m(net::test_cluster(2), 2, 1, no_data());
  EXPECT_THROW(m.run([&](Rank& r) -> CoTask<void> {
                 coll::CollArgs a;
                 a.rank = &r;
                 a.comm = &m.world();
                 a.count = r.world_rank() == 0 ? 128u : 64u;
                 a.inplace = true;
                 co_await coll::allreduce_recursive_doubling(a);
               }),
               util::MessageError);
}

TEST(FailureInjection, BadLeaderArgumentsThrow) {
  Machine m(net::test_cluster(2), 2, 2, no_data());
  EXPECT_THROW((void)m.leader_local_rank(0, 0), util::InvariantError);
  EXPECT_THROW((void)m.leader_local_rank(2, 2), util::InvariantError);
  EXPECT_THROW((void)m.leader_comm(5, 2), util::InvariantError);
}

TEST(FailureInjection, MakeCommRejectsBadRanks) {
  Machine m(net::test_cluster(2), 2, 2);
  EXPECT_THROW(m.make_comm({0, 99}), util::InvariantError);
  EXPECT_THROW(m.make_comm({-1}), util::InvariantError);
}

TEST(FailureInjection, MeasureRejectsBadIterationCounts) {
  core::CollSpec spec;
  spec.algo = "rd";
  core::MeasureOptions opt;
  opt.iterations = 0;
  EXPECT_THROW(
      core::measure_collective(core::CollKind::allreduce, net::test_cluster(2),
                               2, 2, 64, spec, opt),
      util::InvariantError);
}

TEST(FailureInjection, ExceptionInOneRankAbortsRunCleanly) {
  Machine m(net::test_cluster(2), 2, 2, no_data());
  EXPECT_THROW(m.run([&](Rank& r) -> CoTask<void> {
                 co_await r.compute(sim::us(1.0));
                 if (r.world_rank() == 3) {
                   throw std::runtime_error("injected fault");
                 }
                 co_await r.compute(sim::us(1.0));
               }),
               std::runtime_error);
}

TEST(FailureInjection, OverlargeShmOffsetRejected) {
  Machine m(net::test_cluster(2), 2, 2, no_data());
  EXPECT_THROW(m.run([&](Rank& r) -> CoTask<void> {
                 if (r.world_rank() != 0) co_return;
                 simmpi::ShmWindow w(128, 0, false);
                 co_await r.shm_put(w, 100, 64);
               }),
               util::InvariantError);
}

}  // namespace
}  // namespace dpml
