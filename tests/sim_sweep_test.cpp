#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.hpp"
#include "obs/counters.hpp"
#include "obs/hostres.hpp"
#include "obs/run_record.hpp"
#include "sthreads/thread.hpp"

namespace tc3i::sim {
namespace {

TEST(ResolveJobs, ZeroMeansHardwareConcurrency) {
  EXPECT_EQ(resolve_jobs(0),
            static_cast<int>(sthreads::Thread::hardware_concurrency()));
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
  EXPECT_EQ(resolve_jobs(-3), 1);
}

TEST(RunSweep, ResultsInSubmissionOrder) {
  for (const int jobs : {1, 2, 8}) {
    const auto r =
        run_sweep(17, jobs, [](std::size_t i) { return 10.0 * static_cast<double>(i); });
    ASSERT_EQ(r.size(), 17u);
    for (std::size_t i = 0; i < r.size(); ++i)
      EXPECT_EQ(r[i], 10.0 * static_cast<double>(i)) << "jobs=" << jobs;
  }
}

TEST(RunSweep, EmptySweep) {
  EXPECT_TRUE(run_sweep(0, 4, [](std::size_t) { return 1; }).empty());
}

TEST(RunSweep, ThunkListOverload) {
  std::vector<std::function<double()>> points = {
      [] { return 1.5; }, [] { return 2.5; }, [] { return 3.5; }};
  EXPECT_EQ(run_sweep(points, 2), (std::vector<double>{1.5, 2.5, 3.5}));
}

TEST(RunSweep, CountersMergeIntoCallerRegistry) {
  obs::CounterRegistry caller;
  obs::Context ctx = obs::current_context();
  ctx.registry = &caller;
  const obs::ScopedContext scope(ctx);
  const auto r = run_sweep(8, 4, [](std::size_t i) {
    obs::default_registry().counter("sweep_test.points").add();
    obs::default_registry().counter("sweep_test.work").add(i);
    obs::default_registry().gauge("sweep_test.last_index").set(
        static_cast<double>(i));
    obs::default_registry().histogram("sweep_test.values").record(
        static_cast<double>(i + 1));
    return static_cast<int>(i);
  });
  ASSERT_EQ(r.size(), 8u);
  EXPECT_EQ(caller.counter("sweep_test.points").value(), 8u);
  EXPECT_EQ(caller.counter("sweep_test.work").value(), 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  // Gauges keep the last-submitted point's write, like a serial run.
  EXPECT_EQ(caller.gauge("sweep_test.last_index").value(), 7.0);
  EXPECT_EQ(caller.histogram("sweep_test.values").count(), 8u);
  EXPECT_EQ(caller.histogram("sweep_test.values").max(), 8.0);
}

TEST(RunSweep, PointsAreIsolatedFromEachOther) {
  // With jobs > 1, a counter bumped by one point must not be visible to a
  // concurrently running point: each runs under a fresh registry.
  const auto r = run_sweep(6, 3, [](std::size_t) {
    obs::Counter& c = obs::default_registry().counter("sweep_test.isolated");
    c.add();
    return c.value();
  });
  for (const auto v : r) EXPECT_EQ(v, 1u);
}

TEST(RunSweep, RegistryInheritedByNestedSthreads) {
  obs::CounterRegistry caller;
  obs::Context ctx = obs::current_context();
  ctx.registry = &caller;
  const obs::ScopedContext scope(ctx);
  (void)run_sweep(4, 2, [](std::size_t) {
    sthreads::fork_join(3, [](int) {
      obs::default_registry().counter("sweep_test.nested").add();
    });
    return 0;
  });
  EXPECT_EQ(caller.counter("sweep_test.nested").value(), 12u);
}

TEST(RunSweep, RunRecordsAndLabelInheritedByNestedSthreads) {
  // Each point's fork_join children add one RunRecord each, in a fixed
  // order, under the point's scenario label. They must land in the
  // caller's store, labelled, in the same order at any --jobs.
  constexpr std::size_t kPoints = 6;
  constexpr int kChildren = 3;
  const auto sweep_records = [](int jobs) {
    obs::RunRecordStore store;
    obs::Context ctx = obs::current_context();
    ctx.records = &store;
    const obs::ScopedContext scope(ctx);
    (void)run_sweep(kPoints, jobs, [](std::size_t i) {
      const obs::ScopedScenarioLabel label("point" + std::to_string(i));
      std::atomic<int> turn{0};
      sthreads::fork_join(kChildren, [&](int t) {
        while (turn.load() != t) std::this_thread::yield();
        obs::RunRecord r;
        r.model = "sthreads";
        r.name = "p" + std::to_string(i) + ".t" + std::to_string(t);
        if (obs::RunRecordStore* s = obs::current_context().records)
          s->add(std::move(r));
        turn.store(t + 1);
      });
      return 0;
    });
    return store.records();
  };
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < kPoints; ++i)
    for (int t = 0; t < kChildren; ++t)
      expected.push_back("point" + std::to_string(i) + "/p" +
                         std::to_string(i) + ".t" + std::to_string(t));
  for (const int jobs : {1, 4}) {
    std::vector<std::string> got;
    for (const obs::RunRecord& r : sweep_records(jobs))
      got.push_back(r.scenario + "/" + r.name);
    EXPECT_EQ(got, expected) << "jobs=" << jobs;
  }
}

TEST(RunSweep, JobsOneRunsInlineOnCallerRegistry) {
  obs::CounterRegistry caller;
  obs::Context ctx = obs::current_context();
  ctx.registry = &caller;
  const obs::ScopedContext scope(ctx);
  obs::Counter& c = caller.counter("sweep_test.inline");
  (void)run_sweep(3, 1, [&](std::size_t) {
    // Inline execution sees the caller's registry object directly (no
    // isolation layer), so the reference resolved before the sweep is the
    // one being bumped.
    obs::default_registry().counter("sweep_test.inline").add();
    return c.value();
  });
  EXPECT_EQ(c.value(), 3u);
}

TEST(ScopedContext, NestsAndRestores) {
  obs::CounterRegistry a;
  obs::CounterRegistry b;
  obs::CounterRegistry* base = &obs::default_registry();
  {
    obs::Context ca = obs::current_context();
    ca.registry = &a;
    const obs::ScopedContext sa(ca);
    EXPECT_EQ(&obs::default_registry(), &a);
    {
      obs::Context cb = obs::current_context();
      cb.registry = &b;
      const obs::ScopedContext sb(cb);
      EXPECT_EQ(&obs::default_registry(), &b);
      {
        const obs::ScopedScenarioLabel label("inner");
        EXPECT_EQ(obs::current_context().scenario, "inner");
        EXPECT_EQ(&obs::default_registry(), &b);
      }
      EXPECT_EQ(obs::current_context().scenario, "");
    }
    EXPECT_EQ(&obs::default_registry(), &a);
  }
  EXPECT_EQ(&obs::default_registry(), base);
}

TEST(ContextFork, FreshPerPointStoresSharedRest) {
  obs::RunRecordStore records;
  obs::SweepSchedStore sched;
  obs::Context parent = obs::current_context();
  parent.records = &records;
  parent.sched = &sched;
  parent.scenario = "threat";
  const obs::ContextFork fork(parent);
  const obs::Context& ctx = fork.context();
  EXPECT_NE(ctx.registry, parent.registry);
  EXPECT_NE(ctx.records, nullptr);
  EXPECT_NE(ctx.records, parent.records);
  EXPECT_EQ(ctx.timeline, nullptr);  // the parent collects no timelines
  EXPECT_EQ(ctx.sched, &sched);
  EXPECT_EQ(ctx.scenario, "threat");

  obs::CounterRegistry caller;
  parent.registry = &caller;
  ctx.registry->counter("fork_test.points").add(2);
  ctx.records->add(obs::RunRecord{});
  fork.merge_into(parent);
  EXPECT_EQ(caller.counter("fork_test.points").value(), 2u);
  EXPECT_EQ(records.size(), 1u);
}

TEST(RegistryMerge, HistogramsCombineExactly) {
  obs::Histogram h1;
  obs::Histogram h2;
  h1.record(2.0);
  h1.record(8.0);
  h2.record(1.0);
  h1.merge_from(h2);
  EXPECT_EQ(h1.count(), 3u);
  EXPECT_EQ(h1.sum(), 11.0);
  EXPECT_EQ(h1.min(), 1.0);
  EXPECT_EQ(h1.max(), 8.0);
}

}  // namespace
}  // namespace tc3i::sim
