// Abort / retry / resume with partial chunk state, driven directly at the
// session layer: an aborted attempt surrenders its partial destination
// replica (take_partial_destination), the manager keeps the preserved valid
// set honest while the VM writes between attempts, and a resumed session
// (adopt_destination) never re-pushes still-current chunks.
#include <gtest/gtest.h>

#include <memory>

#include "core/hybrid_migrator.h"
#include "core/precopy_migrator.h"
#include "session_fixture.h"

namespace hm::core {
namespace {

using storage::ChunkId;
using testing::SessionFixture;

std::unique_ptr<HybridSession> make_session(SessionFixture& f, HybridConfig cfg = {}) {
  auto s = std::make_unique<HybridSession>(f.s, f.cluster, &f.mgr, /*dst=*/1, *f.rec, cfg);
  f.mgr.begin_migration(s.get());
  return s;
}

TEST(FaultInjection, HybridAbortMidPushPreservesPartialState) {
  SessionFixture f;
  f.populate(8);
  auto session = make_session(f);
  session->start();
  // A chunk takes ~30 ms to push (55 MB/s disk read + 100 MB/s wire): stop a
  // few chunks in. populate() advanced the clock, so offset from now().
  f.s.run_until(f.s.now() + 0.1);
  session->abort();
  f.s.run();  // the push loop observes the flag and unwinds
  EXPECT_TRUE(session->aborted());
  const std::uint64_t pushed = session->chunks_pushed();
  EXPECT_GT(pushed, 0u);
  EXPECT_LT(pushed, 8u);
  util::DirtyBitmap valid{0};
  std::unique_ptr<storage::ChunkStore> store = session->take_partial_destination(&valid);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(valid.count(), pushed);
  for (ChunkId c = 0; c < 8; ++c) {
    if (valid.test(c)) {
      EXPECT_TRUE(store->modified(c)) << c;
    }
  }
  // The replica was handed over: a second take yields nothing.
  util::DirtyBitmap again{0};
  EXPECT_EQ(session->take_partial_destination(&again), nullptr);
  f.mgr.end_migration();
}

TEST(FaultInjection, LocalWriteBetweenAttemptsInvalidatesResumedChunk) {
  SessionFixture f;
  f.populate(4);
  auto session = make_session(f);
  session->start();
  f.s.run();
  session->abort();
  f.s.run();
  util::DirtyBitmap valid{0};
  std::unique_ptr<storage::ChunkStore> store = session->take_partial_destination(&valid);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(valid.count(), 4u);
  f.mgr.end_migration();
  f.mgr.resume_state().emplace(MigrationManager::ResumeState{
      std::move(store), std::move(valid), /*dst_node=*/1, /*dst_epoch=*/0});
  // The VM keeps running between attempts: a source write makes the
  // preserved destination copy of that chunk stale.
  f.write_chunk_now(2);
  ASSERT_TRUE(f.mgr.resume_state().has_value());
  EXPECT_FALSE(f.mgr.resume_state()->valid.test(2));
  EXPECT_TRUE(f.mgr.resume_state()->valid.test(0));
  EXPECT_TRUE(f.mgr.resume_state()->valid.test(1));
  EXPECT_TRUE(f.mgr.resume_state()->valid.test(3));
  EXPECT_EQ(f.mgr.resume_state()->valid.count(), 3u);
}

TEST(FaultInjection, AdoptedDestinationSkipsStillValidChunks) {
  SessionFixture f;
  f.populate(6);
  auto first = make_session(f);
  first->start();
  f.s.run();
  EXPECT_EQ(first->chunks_pushed(), 6u);
  first->abort();
  f.s.run();
  util::DirtyBitmap valid{0};
  std::unique_ptr<storage::ChunkStore> store = first->take_partial_destination(&valid);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(valid.count(), 6u);
  f.mgr.end_migration();
  // Chunk 3 went stale between attempts (e.g. a guest write).
  valid.reset(3);
  auto second = make_session(f);
  second->adopt_destination(std::move(store), std::move(valid));
  second->start();
  f.s.run();
  // Only the invalidated chunk crosses the wire again.
  EXPECT_EQ(second->chunks_pushed(), 1u);
  EXPECT_EQ(second->remaining_size(), 0u);
  f.sync_and_transfer(*second);
  for (ChunkId c = 0; c < 6; ++c) {
    EXPECT_TRUE(f.mgr.replica().present(c)) << c;
    EXPECT_TRUE(f.mgr.replica().modified(c)) << c;
  }
  f.wait_release(*second);
  f.mgr.end_migration();
}

TEST(FaultInjection, PrecopyTakePartialExcludesRedirtiedChunks) {
  SessionFixture f;
  f.populate(4);
  PrecopySession session(f.s, f.cluster, &f.mgr, /*dst=*/1, *f.rec);
  f.mgr.begin_migration(&session);
  session.start();  // bulk phase queues all 4 allocated chunks
  bool done = false;
  f.s.spawn([](PrecopySession* ss, bool* d) -> sim::Task {
    co_await ss->storage_round();
    *d = true;
  }(&session, &done));
  f.s.run_while_pending([&] { return done; });
  EXPECT_EQ(session.chunks_sent(), 4u);
  // A guest write after the bulk copy re-dirties chunk 1: its destination
  // copy is outdated and must not be reported as valid.
  f.write_chunk_now(1);
  session.abort();
  f.s.run();
  util::DirtyBitmap valid{0};
  std::unique_ptr<storage::ChunkStore> store = session.take_partial_destination(&valid);
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(valid.test(0));
  EXPECT_FALSE(valid.test(1));
  EXPECT_TRUE(valid.test(2));
  EXPECT_TRUE(valid.test(3));
  f.mgr.end_migration();
}

/// Step the simulator until a transfer leg is on the wire.
void run_until_leg_in_flight(SessionFixture& f) {
  for (int i = 0; i < 1000 && f.cluster.network().active_flows() == 0; ++i)
    f.s.run_until(f.s.now() + 1e-3);
  ASSERT_GT(f.cluster.network().active_flows(), 0u);
}

// An abort followed by salvage (take_partial_destination) while a push leg
// is still in flight: the leg then lands with no destination replica. The
// chunk must be dropped — not written through the surrendered store, not
// counted as pushed — and the session must still drain.
TEST(FaultInjection, HybridSalvageDuringInFlightPushDropsTheChunk) {
  SessionFixture f;
  f.populate(8);
  auto session = make_session(f);
  session->start();
  f.s.run_until(f.s.now() + 0.1);  // a few chunks in (see above)
  run_until_leg_in_flight(f);
  const std::uint64_t pushed = session->chunks_pushed();
  EXPECT_GT(pushed, 0u);
  session->abort();
  util::DirtyBitmap valid{0};
  std::unique_ptr<storage::ChunkStore> store = session->take_partial_destination(&valid);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(valid.count(), pushed);
  f.s.run();  // the in-flight leg completes; the push loop unwinds
  EXPECT_EQ(f.cluster.network().active_flows(), 0u);
  EXPECT_EQ(session->chunks_pushed(), pushed);
  EXPECT_EQ(f.rec->storage_chunks_pushed, pushed);
  EXPECT_EQ(store->modified_count(), pushed);
  f.mgr.end_migration();
}

TEST(FaultInjection, PrecopySalvageDuringInFlightBatchDropsIt) {
  SessionFixture f;
  f.populate(4);
  PrecopySession session(f.s, f.cluster, &f.mgr, /*dst=*/1, *f.rec);
  f.mgr.begin_migration(&session);
  session.start();
  bool done = false;
  f.s.spawn([](PrecopySession* ss, bool* d) -> sim::Task {
    co_await ss->storage_round();
    *d = true;
  }(&session, &done));
  run_until_leg_in_flight(f);
  session.abort();
  util::DirtyBitmap valid{0};
  std::unique_ptr<storage::ChunkStore> store = session.take_partial_destination(&valid);
  ASSERT_NE(store, nullptr);
  f.s.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(session.chunks_sent(), 0u);
  EXPECT_EQ(store->modified_count(), 0u);
  f.mgr.end_migration();
}

TEST(FaultInjection, AbortAfterControlTransferYieldsNoPartialState) {
  SessionFixture f;
  f.populate(3);
  auto session = make_session(f);
  session->start();
  f.s.run();
  f.sync_and_transfer(*session);
  EXPECT_TRUE(session->control_transferred());
  util::DirtyBitmap valid{0};
  // Control moved: the destination replica is live, not salvage.
  EXPECT_EQ(session->take_partial_destination(&valid), nullptr);
  f.wait_release(*session);
  f.mgr.end_migration();
}

}  // namespace
}  // namespace hm::core
