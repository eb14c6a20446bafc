// Host-side critical-path capture: the sthreads primitives (spawn, future
// touch, sync-var put/take, barrier, spin lock, sync counter) emit
// dependency edges into the same obs::DepGraph shape the machine models
// use, and cap::end() produces an "sthreads" RunRecord whose attribution
// buckets account for the whole recorded wall time.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>

#include "obs/context.hpp"
#include "obs/critpath.hpp"
#include "obs/run_record.hpp"
#include "obs/whatif.hpp"
#include "sthreads/barrier.hpp"
#include "sthreads/critpath.hpp"
#include "sthreads/future.hpp"
#include "sthreads/sync_var.hpp"
#include "sthreads/thread.hpp"

namespace tc3i {
namespace {

using obs::DepKind;

TEST(SthreadsCritPath, OffByDefault) {
  EXPECT_FALSE(sthreads::cap::enabled());
  sthreads::cap::begin("no-store", 2);  // no active store -> no-op
  EXPECT_FALSE(sthreads::cap::enabled());
  const obs::RunRecord rec = sthreads::cap::end();
  EXPECT_FALSE(rec.critical_path.present);
}

TEST(SthreadsCritPath, CapturesAllPrimitiveEdgeKinds) {
  obs::CritPathStore store(/*retain_graphs=*/true);
  obs::RunRecordStore records;
  obs::Context ctx = obs::current_context();
  ctx.critpath = &store;
  ctx.records = &records;
  const obs::ScopedContext scope(ctx);

  sthreads::cap::begin("primitives", 2);
  ASSERT_TRUE(sthreads::cap::enabled());

  sthreads::SyncVar<int> cell;
  sthreads::Barrier barrier(2);
  sthreads::SpinLock lock;
  sthreads::SyncCounter counter(0);
  int shared = 0;

  sthreads::Thread worker([&] {
    cell.put(41);
    barrier.arrive_and_wait();
    lock.lock();
    ++shared;
    lock.unlock();
    counter.fetch_add(1);
  });
  const int got = cell.take();
  barrier.arrive_and_wait();
  lock.lock();
  ++shared;
  lock.unlock();
  counter.fetch_add(1);
  worker.join();

  auto fut = sthreads::async([] { return 7; });
  const int touched = fut.touch();
  fut.wait();

  const obs::RunRecord rec = sthreads::cap::end();
  EXPECT_FALSE(sthreads::cap::enabled());
  EXPECT_EQ(got, 41);
  EXPECT_EQ(touched, 7);
  EXPECT_EQ(shared, 2);
  EXPECT_EQ(counter.value(), 2);

  EXPECT_EQ(rec.model, "sthreads");
  EXPECT_EQ(rec.name, "primitives");
  EXPECT_EQ(rec.processors, 2);
  ASSERT_TRUE(rec.critical_path.present);
  EXPECT_EQ(rec.critical_path.unit, "seconds");
  EXPECT_GT(rec.critical_path.total, 0.0);
  EXPECT_DOUBLE_EQ(rec.elapsed_seconds, rec.critical_path.total);

  // The six buckets attribute the whole recorded wall time.
  const obs::CritPathSummary& cp = rec.critical_path;
  const double sum =
      cp.compute + cp.memory + cp.sync + cp.spawn + cp.queue + cp.gap;
  EXPECT_NEAR(sum, cp.total, 1e-9 + 1e-6 * cp.total);

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.records()[0].model, "sthreads");

  const auto graphs = store.graphs();
  ASSERT_EQ(graphs.size(), 1u);
  const obs::DepGraph& g = graphs[0];
  EXPECT_EQ(g.model, "sthreads");
  EXPECT_EQ(g.unit, "seconds");
  EXPECT_GT(g.nodes.size(), 4u);
  std::array<std::size_t, obs::kNumDepKinds> kinds{};
  for (const obs::DepEdge& e : g.edges) {
    kinds[static_cast<std::size_t>(e.kind)]++;
  }
  EXPECT_GT(kinds[static_cast<std::size_t>(DepKind::kCompute)], 0u);
  EXPECT_GT(kinds[static_cast<std::size_t>(DepKind::kSync)], 0u);
  EXPECT_GT(kinds[static_cast<std::size_t>(DepKind::kSpawn)], 0u);

  // The graph is projectable like any machine graph; identity projection
  // must not exceed the recorded total (up to float32 edge-weight
  // accumulation error) and stays positive.
  const obs::whatif::Projection identity = obs::whatif::project(g, {});
  EXPECT_GT(identity.predicted, 0.0);
  EXPECT_LE(identity.predicted, cp.total * (1.0 + 1e-4) + 1e-9);
}

TEST(SthreadsCritPath, PrimitivesSurviveAcrossCaptures) {
  obs::CritPathStore store(/*retain_graphs=*/true);
  obs::Context ctx = obs::current_context();
  ctx.critpath = &store;
  const obs::ScopedContext scope(ctx);

  // The SyncVar outlives the first capture; its stored node handles become
  // stale and must be ignored (not dereferenced) by the second capture.
  sthreads::SyncVar<int> cell;
  sthreads::cap::begin("first", 1);
  cell.put(1);
  EXPECT_EQ(cell.take(), 1);
  const obs::RunRecord first = sthreads::cap::end();
  ASSERT_TRUE(first.critical_path.present);

  sthreads::cap::begin("second", 1);
  cell.put(2);
  EXPECT_EQ(cell.take(), 2);
  const obs::RunRecord second = sthreads::cap::end();
  ASSERT_TRUE(second.critical_path.present);
  EXPECT_EQ(second.name, "second");
  ASSERT_EQ(store.graphs().size(), 2u);
}

}  // namespace
}  // namespace tc3i
