// Registry / counter / gauge / histogram semantics, including the
// stable-address guarantee cached instrument pointers rely on, the
// Registry fold (merge + reset) the sharded Swarm runs after every
// drain, and the EventQueue's metric surface (backlog, latency, runaway
// leftover).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ratt/obs/metrics.hpp"
#include "ratt/sim/event.hpp"

namespace ratt::obs {
namespace {

TEST(Counter, AccumulatesValueAndCount) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(c.count(), 0u);
  c.inc();
  c.inc(2.5);
  c.inc(0.0);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_EQ(c.count(), 3u);
}

TEST(Gauge, LastWriteWinsWithHighWater) {
  Gauge g;
  g.set(4.0);
  g.set(9.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
  EXPECT_EQ(g.sets(), 3u);
}

TEST(Gauge, NeverSetReportsZeroMaxNotNegativeInfinity) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.max(), 0.0);
  EXPECT_EQ(g.sets(), 0u);
  // A first negative sample still becomes the high-water mark: the 0.0
  // clamp applies only to the never-set case.
  g.set(-3.0);
  EXPECT_DOUBLE_EQ(g.max(), -3.0);
  g.set(-7.0);
  EXPECT_DOUBLE_EQ(g.max(), -3.0);
}

TEST(Gauge, NeverSetTextDumpHasNoInf) {
  Registry reg;
  reg.gauge("touched.never");
  const std::string text = reg.to_text();
  EXPECT_EQ(text.find("-inf"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(Histogram, BucketsObservationsByUpperBound) {
  Histogram h({1.0, 10.0});
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // <= 1.0 (bounds are inclusive)
  h.observe(5.0);   // <= 10.0
  h.observe(100.0); // overflow
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 106.5 / 4.0);
}

TEST(Histogram, BinarySearchKeepsInclusiveBoundarySemantics) {
  // observe() now bisects the bounds; every value on, just below and
  // just above each boundary must land exactly where the linear scan
  // put it (observations <= bounds[i] belong to bucket i).
  const std::vector<double> bounds = default_latency_bounds_ms();
  Histogram h(bounds);
  for (const double b : bounds) {
    h.observe(b);
    h.observe(std::nextafter(b, 0.0));
    h.observe(std::nextafter(b, 1e308));
  }
  ASSERT_EQ(h.buckets().size(), bounds.size() + 1);
  // Boundary + just-below stay in bucket i; just-above spills to i+1.
  EXPECT_EQ(h.buckets()[0], 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_EQ(h.buckets()[i], 3u) << "bucket " << i;
  }
  EXPECT_EQ(h.buckets()[bounds.size()], 1u);  // overflow bucket
}

TEST(Histogram, EmptyIsWellDefined) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Registry, GetOrCreateReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("x");
  a.inc();
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
  // Addresses stay stable across later registrations (node-based map).
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler-" + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("x"), &a);
}

TEST(Registry, HistogramKeepsFirstBounds) {
  Registry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  Histogram& again = reg.histogram("h", {99.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Registry, DefaultBoundsHistogramIsStableAcrossLookups) {
  Registry reg;
  Histogram& h = reg.histogram("latency");  // default latency bounds
  EXPECT_EQ(h.bounds(), default_latency_bounds_ms());
  h.observe(0.5);
  // The hit path must return the same instrument with its counts (and
  // not rebuild the default bounds vector).
  Histogram& again = reg.histogram("latency");
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.count(), 1u);
}

TEST(Registry, FindDoesNotCreate) {
  Registry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  reg.counter("yes").inc(7.0);
  ASSERT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_counter("yes")->value(), 7.0);
}

TEST(Registry, TextDumpIsNameSortedAndStable) {
  Registry reg;
  reg.counter("b.second").inc(2.0);
  reg.counter("a.first").inc();
  reg.gauge("c.gauge").set(1.5);
  const std::string text = reg.to_text();
  const auto a_pos = text.find("counter a.first");
  const auto b_pos = text.find("counter b.second");
  const auto c_pos = text.find("gauge c.gauge");
  EXPECT_NE(a_pos, std::string::npos);
  EXPECT_LT(a_pos, b_pos);
  EXPECT_LT(b_pos, c_pos);
  EXPECT_EQ(text, reg.to_text());  // deterministic
}

TEST(Registry, InstrumentsOwnTheirCacheLines) {
  static_assert(alignof(Counter) == kCacheLine);
  static_assert(alignof(Gauge) == kCacheLine);
  static_assert(alignof(Histogram) == kCacheLine);
  Registry a;
  Registry b;
  const auto line = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) / kCacheLine;
  };
  EXPECT_NE(line(&a.counter("x")), line(&b.counter("x")));
  const Histogram& h = a.histogram("h", {1.0, 2.0});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&h) % kCacheLine, 0u);
}

TEST(RegistryMerge, CountersAddValuesAndCounts) {
  Registry target;
  Registry shard0;
  Registry shard1;
  target.counter("ms").inc(0.25);
  shard0.counter("ms").inc(0.1);
  shard0.counter("ms").inc(0.2);
  shard1.counter("ms").inc(0.7);
  shard0.counter("n").inc();
  shard1.counter("n").inc();
  shard1.counter("n").inc(3.0);
  target.merge(shard0);
  target.merge(shard1);
  // Fractional sums add per registry, then registry by registry.
  EXPECT_EQ(target.counter("ms").value(), 0.25 + (0.1 + 0.2) + 0.7);
  EXPECT_EQ(target.counter("ms").count(), 4u);
  EXPECT_EQ(target.counter("n").value(), 5.0);
  EXPECT_EQ(target.counter("n").count(), 3u);
  // The sources are read, not drained.
  EXPECT_EQ(shard1.counter("n").count(), 2u);
}

TEST(RegistryMerge, GaugeTakesLastSettingRegistryInFoldOrder) {
  Registry target;
  target.gauge("g").set(100.0);
  Registry shard0;
  Registry shard1;
  Registry shard2;
  shard0.gauge("g").set(5.0);
  shard0.gauge("g").set(2.0);
  shard1.gauge("g").set(7.0);
  shard2.gauge("g");  // registered, never set
  target.merge(shard0);
  target.merge(shard1);
  target.merge(shard2);
  const Gauge& g = target.gauge("g");
  EXPECT_EQ(g.value(), 7.0);  // shard1: the last one that set it
  EXPECT_EQ(g.max(), 100.0);  // the target's own earlier peak survives
  EXPECT_EQ(g.sets(), 4u);

  // A gauge never set anywhere stays unset (max 0, not -inf).
  Registry fresh;
  fresh.merge(shard2);
  ASSERT_NE(fresh.find_gauge("g"), nullptr);
  EXPECT_EQ(fresh.find_gauge("g")->sets(), 0u);
  EXPECT_EQ(fresh.find_gauge("g")->max(), 0.0);
  EXPECT_EQ(fresh.to_text(), "gauge g value=0 max=0\n");
}

TEST(RegistryMerge, HistogramsAddBucketsAndKeepExtremes) {
  Registry target;
  Registry shard0;
  Registry shard1;
  Registry shard2;
  const std::vector<double> bounds = {1.0, 10.0};
  shard0.histogram("h", bounds).observe(0.5);
  shard0.histogram("h", bounds).observe(20.0);
  shard1.histogram("h", bounds).observe(5.0);
  shard1.histogram("h", bounds).observe(0.25);
  shard2.histogram("h", bounds);  // empty
  shard2.histogram("only2", bounds).observe(3.0);  // in one shard only
  target.merge(shard0);
  target.merge(shard1);
  target.merge(shard2);
  const Histogram& h = target.histogram("h");
  EXPECT_EQ(h.bounds(), bounds);
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{2, 1, 1}));
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), (0.5 + 20.0) + (5.0 + 0.25));
  EXPECT_EQ(h.min(), 0.25);
  EXPECT_EQ(h.max(), 20.0);
  const Histogram* only2 = target.find_histogram("only2");
  ASSERT_NE(only2, nullptr);
  EXPECT_EQ(only2->bounds(), bounds);
  EXPECT_EQ(only2->count(), 1u);
  EXPECT_EQ(only2->min(), 3.0);
  EXPECT_EQ(only2->max(), 3.0);

  // Empty instruments fold to empty instruments (min/max 0, not inf).
  Registry empty_target;
  Registry empty_shard;
  empty_shard.histogram("e", bounds);
  empty_shard.counter("c");
  empty_target.merge(empty_shard);
  empty_target.merge(empty_shard);
  EXPECT_EQ(empty_target.to_text(), empty_shard.to_text());
  EXPECT_EQ(empty_target.find_histogram("e")->min(), 0.0);
}

TEST(RegistryMerge, InstrumentsPresentInSomeShardsOnlyAreCreated) {
  Registry target;
  Registry shard0;
  Registry shard1;
  shard0.counter("a").inc(2.0);
  shard1.gauge("b").set(3.0);
  shard1.histogram("c").observe(0.07);  // default latency bounds
  target.merge(shard0);
  target.merge(shard1);
  EXPECT_EQ(target.to_text(),
            "counter a value=2 count=1\n"
            "gauge b value=3 max=3\n"
            "histogram c count=1 sum=0.07 min=0.07 max=0.07 "
            "buckets=[0,1,0,0,0,0,0,0,0,0,0]\n");
}

TEST(RegistryMerge, RejectsMismatchedHistogramBoundsWithoutChangingAnything) {
  Registry target;
  target.histogram("h", {1.0, 2.0}).observe(1.5);
  target.counter("c").inc();
  Registry shard;
  shard.counter("c").inc(4.0);
  shard.histogram("h", {1.0, 3.0}).observe(2.5);
  const std::string before = target.to_text();
  EXPECT_THROW(target.merge(shard), std::invalid_argument);
  EXPECT_EQ(target.to_text(), before);  // the counter was not folded
  EXPECT_THROW(target.merge(target), std::invalid_argument);
}

TEST(RegistryMerge, SecondDrainAfterFoldAndResetDoesNotDoubleCount) {
  Registry target;
  Registry shard;
  Counter& c = shard.counter("c");  // cached, like an instrumented layer
  Gauge& g = shard.gauge("g");
  Histogram& h = shard.histogram("h", {1.0});
  // Drain 1.
  c.inc(1.5);
  g.set(9.0);
  h.observe(0.5);
  target.merge(shard);
  shard.reset();
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(g.sets(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  // Drain 2 records through the same cached references; the gauge is
  // not set again, so the target keeps drain 1's value.
  c.inc(2.0);
  h.observe(3.0);
  target.merge(shard);
  shard.reset();
  EXPECT_EQ(&shard.counter("c"), &c);
  EXPECT_EQ(target.counter("c").value(), 3.5);
  EXPECT_EQ(target.counter("c").count(), 2u);
  EXPECT_EQ(target.gauge("g").value(), 9.0);
  EXPECT_EQ(target.gauge("g").sets(), 1u);
  EXPECT_EQ(target.histogram("h").count(), 2u);
  EXPECT_EQ(target.histogram("h").buckets(),
            (std::vector<std::uint64_t>{1, 1}));
  EXPECT_EQ(target.histogram("h").max(), 3.0);
  // A fold of a reset registry changes nothing.
  const std::string text = target.to_text();
  target.merge(shard);
  EXPECT_EQ(target.to_text(), text);
}

TEST(EventQueueObs, PublishesBacklogLatencyAndRunCount) {
  Registry reg;
  sim::EventQueue q;
  q.set_observer(&reg);
  q.schedule_at(5.0, [] {});
  q.schedule_at(1.0, [] {});
  q.schedule_at(3.0, [] {});
  EXPECT_DOUBLE_EQ(reg.gauge("queue.backlog").value(), 3.0);
  EXPECT_EQ(q.run_all(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("queue.backlog").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("queue.backlog").max(), 3.0);
  EXPECT_EQ(reg.counter("queue.events_run").count(), 3u);
  // All three were scheduled at t=0, so latency == each event's at_ms.
  const Histogram& lat = reg.histogram("queue.event_latency_ms");
  EXPECT_EQ(lat.count(), 3u);
  EXPECT_DOUBLE_EQ(lat.sum(), 9.0);
}

TEST(EventQueueObs, RunAllReportsStrandedBacklog) {
  Registry reg;
  sim::EventQueue q;
  q.set_observer(&reg);
  // A self-rearming cascade never drains; the guard must report the
  // stranded event rather than silently dropping it.
  std::function<void()> rearm = [&] { q.schedule_in(1.0, rearm); };
  q.schedule_in(1.0, rearm);
  EXPECT_EQ(q.run_all(100), 1u);
  EXPECT_EQ(q.pending(), 1u);  // still queued, not lost
  EXPECT_DOUBLE_EQ(reg.gauge("queue.runaway_leftover").value(), 1.0);
}

}  // namespace
}  // namespace ratt::obs
