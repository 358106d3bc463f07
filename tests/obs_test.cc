// Tests for the observability layer: event interning, the recorder's fault
// log and ring, the fault-timeline correlator, the exporters, and end-to-end
// instrumentation of a live device.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/scenario.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fleet/fleet.h"
#include "src/core/policy.h"
#include "src/devices/disk.h"
#include "src/faults/injector.h"
#include "src/obs/correlator.h"
#include "src/obs/event.h"
#include "src/obs/export.h"
#include "src/obs/profiler.h"
#include "src/obs/recorder.h"
#include "src/simcore/rng.h"
#include "src/simcore/simulator.h"

namespace fst {
namespace {

SimTime At(double seconds) { return SimTime::Zero() + Duration::Seconds(seconds); }

// ---------------------------------------------------------------- table

TEST(ComponentTableTest, InternRoundTrips) {
  ComponentTable table;
  const uint16_t a = table.Intern("disk0");
  const uint16_t b = table.Intern("disk1");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("disk0"), a);
  EXPECT_EQ(table.Name(a), "disk0");
  EXPECT_EQ(table.Name(b), "disk1");
  EXPECT_EQ(table.Find("disk1"), static_cast<int>(b));
  EXPECT_EQ(table.Find("never-interned"), -1);
}

TEST(ComponentTableTest, IdZeroIsEmptyAndUnknownIdsRenderQuestionMark) {
  ComponentTable table;
  EXPECT_EQ(table.Name(0), "");
  EXPECT_EQ(table.Intern(""), 0);
  EXPECT_EQ(table.Name(999), "?");
}

// ---------------------------------------------------------------- recorder

TEST(EventRecorderTest, DisabledRecorderIsANoOp) {
  EventRecorder rec(16);
  rec.set_enabled(false);
  rec.Mark(At(1.0), rec.Intern("c"), rec.Intern("m"), 1.0);
  rec.RequestEnqueue(At(2.0), 1, rec.NextRequestId(), 0, 1.0);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.Events().empty());
}

TEST(EventRecorderTest, RingOverwritesOldestAndCountsDropped) {
  EventRecorder rec(4);
  const uint16_t c = rec.Intern("c");
  for (int i = 0; i < 10; ++i) {
    rec.Mark(At(static_cast<double>(i)), c, 0, static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  // The flight-recorder keeps the most recent window, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[i].a, static_cast<double>(6 + i));
  }
}

TEST(EventRecorderTest, EventsSnapshotSortsByTimestamp) {
  EventRecorder rec(16);
  const uint16_t c = rec.Intern("injector");
  // A fault scheduled for the future is recorded before earlier events.
  rec.FaultActivate(At(10.0), c, rec.Intern("step"), 3.0, false);
  rec.Mark(At(1.0), c, 0, 0.0);
  rec.Mark(At(5.0), c, 0, 0.0);
  const auto events = rec.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].when.nanos(), At(1.0).nanos());
  EXPECT_EQ(events[1].when.nanos(), At(5.0).nanos());
  EXPECT_EQ(events[2].when.nanos(), At(10.0).nanos());
}

TEST(EventRecorderTest, RequestIdsAreMonotonic) {
  EventRecorder rec(16);
  const uint64_t a = rec.NextRequestId();
  const uint64_t b = rec.NextRequestId();
  EXPECT_LT(a, b);
}

TEST(EventRecorderTest, ClearEmptiesTheRing) {
  EventRecorder rec(8);
  rec.Mark(At(1.0), rec.Intern("c"), 0, 1.0);
  ASSERT_EQ(rec.size(), 1u);
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.Events().empty());
}

// A fault activation must outlive any number of request spans: before the
// fault log, a 4-slot ring wrapped over the activation and the detector's
// transition was scored as a false positive on a fault that never existed.
TEST(ObsTest, FaultLogSurvivesRingWrap) {
  EventRecorder rec(4);
  const uint16_t node0 = rec.Intern("node0");
  rec.FaultActivate(At(1.0), node0, rec.Intern("static-slowdown"), 3.0, false);
  for (int i = 0; i < 8; ++i) {
    rec.RequestComplete(At(1.1 + 0.1 * i), node0, rec.NextRequestId(), 0,
                        Duration::Millis(1), Duration::Millis(2));
  }
  rec.StateTransition(At(2.0), node0, rec.Intern("Healthy->Stuttering"),
                      /*to_state=*/1, /*deficit=*/0.6);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 4u);

  for (const auto& events : {rec.Events(), rec.FaultLog()}) {
    const auto report = CorrelateFaultTimeline(events, rec.components());
    ASSERT_EQ(report.faults.size(), 1u);
    EXPECT_TRUE(report.faults[0].detected);
    EXPECT_NEAR(report.faults[0].detection_latency.ToSeconds(), 1.0, 1e-9);
    EXPECT_EQ(report.detected_count, 1);
    EXPECT_EQ(report.false_positives, 0);
  }
}

// 5,000 random events of all ten kinds with many equal-`when` ties.
std::vector<TraceEvent> RandomEvents(uint64_t seed) {
  Rng rng(seed);
  std::vector<TraceEvent> out;
  for (int i = 0; i < 5000; ++i) {
    TraceEvent e;
    e.when = SimTime::Zero() + Duration::Millis(rng.UniformInt(0, 49));
    e.kind = static_cast<EventKind>(
        rng.UniformInt(0, static_cast<int64_t>(EventKind::kMark)));
    e.component = static_cast<uint16_t>(rng.UniformInt(1, 3));
    e.label = static_cast<uint16_t>(rng.UniformInt(0, 2));
    e.device = static_cast<int32_t>(rng.UniformInt(-1, 3));
    e.request_id = static_cast<uint64_t>(i);
    e.a = static_cast<double>(i);
    e.b = rng.UniformDouble();
    out.push_back(e);
  }
  return out;
}

void ExpectSameEvents(const std::vector<TraceEvent>& got,
                      const std::vector<TraceEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].when.nanos(), want[i].when.nanos());
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].component, want[i].component);
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].device, want[i].device);
    EXPECT_EQ(got[i].request_id, want[i].request_id);
    EXPECT_EQ(got[i].a, want[i].a);
    EXPECT_EQ(got[i].b, want[i].b);
  }
}

void StableSortByWhen(std::vector<TraceEvent>& v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.when < y.when;
                   });
}

// Differential: the two stores merged back must be exactly the stable sort
// of everything pushed, with control and ring events interleaved in push
// order wherever timestamps tie. With a wrapped ring, the snapshot is the
// same sort over the control events plus the ring's surviving window.
TEST(ObsTest, EventsEqualStableSortOfPushOrder) {
  const std::vector<TraceEvent> pushed = RandomEvents(7);
  size_t ring_events = 0;
  for (const TraceEvent& e : pushed) {
    ring_events += IsControlEvent(e.kind) ? 0 : 1;
  }
  for (const size_t capacity : {size_t{1} << 16, size_t{64}}) {
    SCOPED_TRACE(capacity);
    EventRecorder rec(capacity);
    for (const TraceEvent& e : pushed) {
      rec.Record(e);
    }
    const size_t kept = std::min(capacity, ring_events);
    std::vector<TraceEvent> want;
    size_t ring_seen = 0;
    for (const TraceEvent& e : pushed) {
      if (IsControlEvent(e.kind) || ring_seen++ >= ring_events - kept) {
        want.push_back(e);
      }
    }
    StableSortByWhen(want);
    EXPECT_EQ(rec.total_recorded(), pushed.size());
    EXPECT_EQ(rec.dropped(), ring_events - kept);
    EXPECT_EQ(rec.size(), want.size());
    ExpectSameEvents(rec.Events(), want);
  }
}

// capacity 0 keeps no ring: spans are counted as recorded and dropped, and
// the fault log still holds every control event in push order.
TEST(ObsTest, ZeroCapacityKeepsOnlyTheFaultLog) {
  const std::vector<TraceEvent> pushed = RandomEvents(11);
  EventRecorder rec(0);
  EXPECT_EQ(rec.capacity(), 0u);
  std::vector<TraceEvent> control;
  for (const TraceEvent& e : pushed) {
    rec.Record(e);
    if (IsControlEvent(e.kind)) {
      control.push_back(e);
    }
  }
  ASSERT_FALSE(control.empty());
  ASSERT_LT(control.size(), pushed.size());
  EXPECT_EQ(rec.total_recorded(), pushed.size());
  EXPECT_EQ(rec.dropped(), pushed.size() - control.size());
  EXPECT_EQ(rec.size(), control.size());
  ExpectSameEvents(rec.FaultLog(), control);
  StableSortByWhen(control);
  ExpectSameEvents(rec.Events(), control);
}

// A small telemetry cell (crash plus slowdown under load) on a recorder of
// `capacity`: what the ring-less campaign cells see, next to a full ring.
struct TelemetryCellRun {
  std::vector<TraceEvent> fault_log;
  uint64_t fire_digest = 0;
  uint64_t total_recorded = 0;
};

TelemetryCellRun RunTelemetryCell(size_t capacity) {
  Simulator sim(17);
  EventRecorder rec(capacity);
  FleetParams fleet_params;
  fleet_params.arrivals_per_sec = 200.0;
  fleet_params.run_for = Duration::Seconds(6.0);
  fleet_params.read_fraction = 0.7;
  fleet_params.key_space = 100;
  ColumnarFleet fleet(sim, ColumnarFleetParams{fleet_params});
  ClusterParams params;
  params.nodes = 4;
  params.write_quorum = 2;
  params.retry.enabled = true;
  params.recovery.enabled = true;
  params.live.enabled = true;
  KvService svc(sim, params, std::make_unique<ProportionalSharePolicy>(),
                &rec);
  FaultInjector injector(sim);
  injector.set_recorder(&rec);
  ApplySchedule(sim, svc,
                ParseDsl("crash node=1 at=2s down=1500ms;"
                         "slow node=2 at=1s for=2s x4"),
                injector);
  const SimTime end = At(9.0);
  svc.StartRecovery(end);
  svc.StartTelemetry(end);
  fleet.Run(svc, nullptr);
  sim.Run();
  return {rec.FaultLog(), sim.fire_digest(), rec.total_recorded()};
}

// A ring-less recorder builds no spans at all, yet its fault log and the
// run's event order equal those of a recorder that keeps every span.
TEST(ObsTest, RingLessRecorderKeepsFaultLogWithoutSpans) {
  const TelemetryCellRun ringless = RunTelemetryCell(0);
  const TelemetryCellRun ring = RunTelemetryCell(1 << 16);
  ASSERT_FALSE(ringless.fault_log.empty());
  ExpectSameEvents(ringless.fault_log, ring.fault_log);
  EXPECT_EQ(ringless.fire_digest, ring.fire_digest);
  EXPECT_EQ(ringless.total_recorded, ringless.fault_log.size());
  EXPECT_GT(ring.total_recorded, ring.fault_log.size());
}

// ---------------------------------------------------------------- correlator

// Hand-built timeline: fault on disk0 at t=10, detector flags disk0 at
// t=12.5 (detection latency 2.5 s), policy reacts at t=13 (reaction 0.5 s).
TEST(CorrelatorTest, DetectionAndReactionLatencyMath) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  rec.FaultActivate(At(10.0), disk0, rec.Intern("static-slowdown"), 3.0, false);
  rec.StateTransition(At(12.5), disk0, rec.Intern("Healthy->Stuttering"),
                      /*to_state=*/1, /*deficit=*/0.6);
  rec.PolicyAction(At(13.0), disk0, rec.Intern("reweight"), 0.33);

  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  ASSERT_EQ(report.faults.size(), 1u);
  const FaultRecord& f = report.faults[0];
  EXPECT_EQ(f.component, "disk0");
  EXPECT_EQ(f.kind, "static-slowdown");
  EXPECT_DOUBLE_EQ(f.magnitude, 3.0);
  ASSERT_TRUE(f.detected);
  EXPECT_NEAR(f.detection_latency.ToSeconds(), 2.5, 1e-9);
  EXPECT_EQ(f.detected_state, 1);
  ASSERT_TRUE(f.reacted);
  EXPECT_NEAR(f.reaction_latency.ToSeconds(), 0.5, 1e-9);
  EXPECT_EQ(f.reaction, "reweight");
  EXPECT_EQ(report.detected_count, 1);
  EXPECT_EQ(report.missed, 0);
  EXPECT_EQ(report.false_positives, 0);
  EXPECT_NEAR(report.mean_detection_latency_s, 2.5, 1e-9);
  EXPECT_NEAR(report.mean_reaction_latency_s, 0.5, 1e-9);
}

TEST(CorrelatorTest, CountsMissedFaultsAndFalsePositives) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  const uint16_t disk1 = rec.Intern("disk1");
  const uint16_t disk2 = rec.Intern("disk2");
  // disk0: fault that is never detected -> missed.
  rec.FaultActivate(At(5.0), disk0, rec.Intern("jitter"), 1.5, false);
  // disk1: transition with no fault ever injected -> false positive.
  rec.StateTransition(At(6.0), disk1, rec.Intern("Healthy->Stuttering"), 1, 0.4);
  // disk2: transition BEFORE the fault activates -> also a false positive.
  rec.StateTransition(At(7.0), disk2, rec.Intern("Healthy->Stuttering"), 1, 0.4);
  rec.FaultActivate(At(8.0), disk2, rec.Intern("step"), 2.0, false);

  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  EXPECT_EQ(report.faults.size(), 2u);
  EXPECT_EQ(report.detected_count, 0);
  EXPECT_EQ(report.missed, 2);
  EXPECT_EQ(report.false_positives, 2);
}

TEST(CorrelatorTest, BackToHealthyTransitionsAreNotDetections) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  rec.FaultActivate(At(1.0), disk0, rec.Intern("step"), 2.0, false);
  // to_state 0 = Healthy; recovering must not count as detecting.
  rec.StateTransition(At(2.0), disk0, rec.Intern("Stuttering->Healthy"), 0, 0.0);
  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_FALSE(report.faults[0].detected);
  EXPECT_EQ(report.missed, 1);
  EXPECT_EQ(report.false_positives, 0);
}

TEST(CorrelatorTest, TransitionsPreferActiveClassMatchedFaults) {
  EventRecorder rec;
  const uint16_t node0 = rec.Intern("node0");
  // A long-lived gray performance fault, then a crash on the same node.
  // The kFailed transition the crash causes must be attributed to the
  // crash (active + correctness), not stolen by the earlier stutter; the
  // later Stuttering transition then matches the performance fault.
  rec.FaultActivate(At(1.0), node0, rec.Intern("step-change"), 1.3, false);
  rec.FaultActivate(At(10.0), node0, rec.Intern("crash-restart"), 2.0, true);
  rec.StateTransition(At(11.0), node0, rec.Intern("Healthy->Failed"), 2, 1.0);
  rec.FaultDeactivate(At(12.0), node0, rec.Intern("crash-restart"));
  rec.StateTransition(At(13.0), node0, rec.Intern("Healthy->Stuttering"), 1,
                      0.4);
  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  ASSERT_EQ(report.faults.size(), 2u);
  const FaultRecord& gray = report.faults[0];
  const FaultRecord& crash = report.faults[1];
  ASSERT_TRUE(crash.detected);
  EXPECT_EQ(crash.detected_state, 2);
  EXPECT_NEAR(crash.detection_latency.ToSeconds(), 1.0, 1e-9);
  ASSERT_TRUE(gray.detected);
  EXPECT_EQ(gray.detected_state, 1);
  EXPECT_NEAR(gray.detection_latency.ToSeconds(), 12.0, 1e-9);
  EXPECT_EQ(report.false_positives, 0);
}

TEST(CorrelatorTest, AliasJoinsFaultDeviceToDetectorComponent) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  const uint16_t pair0 = rec.Intern("pair0");
  rec.FaultActivate(At(10.0), disk0, rec.Intern("static-slowdown"), 3.0, false);
  rec.StateTransition(At(11.0), pair0, rec.Intern("Healthy->Stuttering"), 1, 0.5);
  CorrelatorOptions options;
  options.alias["disk0"] = "pair0";
  const auto report =
      CorrelateFaultTimeline(rec.Events(), rec.components(), options);
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_EQ(report.faults[0].component, "pair0");
  EXPECT_EQ(report.faults[0].device, "disk0");
  ASSERT_TRUE(report.faults[0].detected);
  EXPECT_NEAR(report.faults[0].detection_latency.ToSeconds(), 1.0, 1e-9);
  EXPECT_EQ(report.false_positives, 0);
}

TEST(CorrelatorTest, NonePolicyActionsAreObservationsNotReactions) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  rec.FaultActivate(At(1.0), disk0, rec.Intern("step"), 2.0, false);
  rec.StateTransition(At(2.0), disk0, rec.Intern("Healthy->Stuttering"), 1, 0.5);
  rec.PolicyAction(At(3.0), disk0, rec.Intern("none"), 0.0);
  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_TRUE(report.faults[0].detected);
  EXPECT_FALSE(report.faults[0].reacted);
}

TEST(CorrelatorTest, ReportJsonAndSummaryAreWellFormed) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  rec.FaultActivate(At(10.0), disk0, rec.Intern("step"), 3.0, false);
  rec.StateTransition(At(12.0), disk0, rec.Intern("Healthy->Stuttering"), 1, 0.5);
  const auto report = CorrelateFaultTimeline(rec.Events(), rec.components());
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"detected\":1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"step\""), std::string::npos);
  EXPECT_NE(report.Summary().find("disk0"), std::string::npos);
}

// ---------------------------------------------------------------- export

TEST(ExportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(ExportTest, JsonNumberEmitsNullForNonFinite) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_NE(JsonNumber(1.5).find("1.5"), std::string::npos);
}

TEST(ExportTest, PerfettoTraceHasSlicesCountersAndInstants) {
  EventRecorder rec;
  const uint16_t disk0 = rec.Intern("disk0");
  const uint64_t id = rec.NextRequestId();
  rec.RequestEnqueue(At(1.0), disk0, id, 0, 1.0);
  rec.RequestStart(At(1.1), disk0, id, 0, Duration::Seconds(0.1));
  rec.RequestComplete(At(1.3), disk0, id, 0, Duration::Seconds(0.1),
                      Duration::Seconds(0.2));
  rec.FaultActivate(At(2.0), disk0, rec.Intern("step"), 3.0, false);
  rec.StateTransition(At(3.0), disk0, rec.Intern("Healthy->Stuttering"), 1, 0.5);
  const std::string json = PerfettoTraceJson(rec.Events(), rec.components());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);   // track metadata
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // request slices
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // queue counter
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // fault instant
  EXPECT_NE(json.find("Healthy->Stuttering"), std::string::npos);
}

TEST(ExportTest, JsonlEmitsSchemaHeaderThenOneLinePerEvent) {
  EventRecorder rec;
  const uint16_t c = rec.Intern("c");
  rec.Mark(At(1.0), c, 0, 1.0);
  rec.Mark(At(2.0), c, 0, 2.0);
  rec.QueueDepth(At(3.0), c, 4.0);
  const std::string jsonl = EventsJsonl(rec.Events(), rec.components());
  int lines = 0;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      if (lines == 0) {
        // First line is the schema stamp, not an event.
        EXPECT_NE(line.find("\"schema_version\""), std::string::npos);
        EXPECT_EQ(line.find("\"t_ns\""), std::string::npos);
      }
      ++lines;
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
    }
  }
  EXPECT_EQ(lines, 4);  // header + 3 events
}

// ---------------------------------------------------------------- end-to-end

// A live Disk with a recorder attached emits a complete enqueue/start/
// complete span per request, with queue wait + service time equal to the
// request's observed latency.
TEST(ObsIntegrationTest, DiskEmitsRequestSpans) {
  Simulator sim(7);
  EventRecorder rec;
  DiskParams params;
  params.flat_bandwidth_mbps = 10.0;
  params.block_bytes = 65536;
  Disk disk(sim, "disk0", params, nullptr, &rec);

  const int kRequests = 5;
  std::vector<Duration> latencies;
  for (int i = 0; i < kRequests; ++i) {
    DiskRequest req;
    req.kind = IoKind::kWrite;
    req.offset_blocks = i;
    req.nblocks = 1;
    req.done = [&latencies](const IoResult& r) {
      latencies.push_back(r.Latency());
    };
    disk.Submit(std::move(req));
  }
  sim.Run();
  ASSERT_EQ(latencies.size(), static_cast<size_t>(kRequests));

  std::map<uint64_t, int> enqueue, start, complete;
  std::map<uint64_t, double> span_ns;
  for (const TraceEvent& e : rec.Events()) {
    switch (e.kind) {
      case EventKind::kRequestEnqueue:
        ++enqueue[e.request_id];
        break;
      case EventKind::kRequestStart:
        ++start[e.request_id];
        break;
      case EventKind::kRequestComplete:
        ++complete[e.request_id];
        span_ns[e.request_id] = e.a + e.b;  // queue wait + service
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(enqueue.size(), static_cast<size_t>(kRequests));
  EXPECT_EQ(start.size(), static_cast<size_t>(kRequests));
  ASSERT_EQ(complete.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, n] : complete) {
    EXPECT_EQ(n, 1);
    EXPECT_EQ(enqueue[id], 1);
    EXPECT_EQ(start[id], 1);
  }
  // Spans cover the requests' full latency: the sum of all (wait+service)
  // equals the sum of observed latencies (FIFO disk, one at a time).
  double span_total = 0.0;
  for (const auto& [id, ns] : span_ns) {
    span_total += ns;
  }
  double latency_total = 0.0;
  for (const Duration& l : latencies) {
    latency_total += static_cast<double>(l.nanos());
  }
  EXPECT_NEAR(span_total, latency_total, 1.0);
}

TEST(ObsIntegrationTest, SimProfilerSamplesEventLoop) {
  Simulator sim(11);
  EventRecorder rec;
  SimProfiler profiler(sim, rec, Duration::Millis(100));
  profiler.Start();
  // Some activity for the profiler to observe, then stop it so Run drains.
  for (int i = 1; i <= 20; ++i) {
    sim.Schedule(Duration::Millis(25.0 * i), []() {});
  }
  sim.Schedule(Duration::Millis(600), [&profiler]() { profiler.Stop(); });
  sim.Run();
  EXPECT_GE(profiler.samples(), 5u);
  int counter_events = 0;
  for (const TraceEvent& e : rec.Events()) {
    if (e.kind == EventKind::kCounterSample) {
      ++counter_events;
    }
  }
  // Two counters per tick: events_per_interval and pending_events.
  EXPECT_GE(counter_events, 10);
}

}  // namespace
}  // namespace fst
