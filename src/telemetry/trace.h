#ifndef REDY_TELEMETRY_TRACE_H_
#define REDY_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace redy::telemetry {

/// Identifies one timeline lane ("thread" row in the trace viewer).
/// Tracks are 1-based; 0 means "not registered yet".
using TrackId = uint32_t;
/// Correlates the begin/end halves of a span. Globally unique per
/// tracer; also used as the Perfetto async-event id, so overlapping
/// spans on the same track render as separate nestable lanes.
using SpanId = uint64_t;

/// One optional numeric event argument. Keys must be string literals
/// (or otherwise outlive the tracer) — arguments are stored by pointer
/// so recording never allocates.
struct TraceArg {
  const char* key = nullptr;
  uint64_t value = 0;
};

/// SpanTracer configuration. A namespace-scope struct (not nested) so
/// `Options opts = {}` default arguments are usable inside the tracer's
/// own class definition.
struct TracerOptions {
  /// Events retained per track; older events are overwritten
  /// (dropped_events() counts the loss).
  uint32_t ring_capacity = 1u << 13;
};

/// Sim-time span tracer. Components register a track once (allocates),
/// then record begin/end spans and instant events into a preallocated
/// per-track ring buffer — the recording path is branch + struct store,
/// no allocation, and a no-op while disabled. ExportJson() renders
/// everything as Chrome/Perfetto `trace_event` JSON (open the file at
/// ui.perfetto.dev). Timestamps are simulated nanoseconds, so two runs
/// with the same seed export byte-identical traces.
class SpanTracer {
 public:
  using Options = TracerOptions;

  explicit SpanTracer(sim::Simulation* sim, Options opts = {});

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Registers a timeline lane. Tracks sharing `process` are grouped
  /// under one process in the viewer. `process` must be a string
  /// literal; `thread` is copied. Allocates — register once, keep the
  /// id.
  TrackId NewTrack(const char* process, std::string thread);

  /// Fresh span id (monotonic).
  SpanId NextId() { return next_span_id_++; }

  // --- recording (no-ops while disabled; never allocates) ---

  /// Nestable async span, explicit timestamps: the pattern for
  /// pipeline stages whose times are computed at post time (WQE
  /// issue/fetch/wire/landed). b/e pairs with the same id nest.
  void AsyncBegin(TrackId track, const char* name, const char* cat,
                  SpanId id, sim::SimTime ts, TraceArg a0 = {},
                  TraceArg a1 = {});
  void AsyncEnd(TrackId track, const char* name, const char* cat, SpanId id,
                sim::SimTime ts, TraceArg a0 = {}, TraceArg a1 = {});

  /// Convenience now()-stamped span with an optional parent link (the
  /// parent's span id is attached as an argument).
  SpanId BeginSpan(TrackId track, const char* name, const char* cat,
                   SpanId parent = 0);
  void EndSpan(TrackId track, const char* name, const char* cat, SpanId id);

  /// Point event at an explicit simulated time.
  void Instant(TrackId track, const char* name, const char* cat,
               sim::SimTime ts, TraceArg a0 = {}, TraceArg a1 = {});

  // --- introspection / export ---
  uint64_t recorded_events() const { return recorded_; }
  uint64_t dropped_events() const;
  void Clear();

  /// Chrome trace_event JSON (object form, "traceEvents" array),
  /// events sorted by (timestamp, record order) — deterministic.
  std::string ExportJson() const;

 private:
  struct Event {
    uint64_t seq = 0;       // record order, total across tracks
    sim::SimTime ts = 0;    // simulated ns
    SpanId id = 0;          // async span id (0 = none)
    const char* name = nullptr;
    const char* cat = nullptr;
    char ph = 0;            // 'b' | 'e' | 'i'
    TraceArg a0, a1;
  };
  struct Track {
    const char* process;
    std::string thread;
    uint32_t pid;  // 1-based process ordinal
    uint32_t tid;  // 1-based thread ordinal within the process
    uint64_t written = 0;
    std::vector<Event> ring;  // capacity fixed at registration
  };

  void Record(TrackId track, char ph, const char* name, const char* cat,
              SpanId id, sim::SimTime ts, TraceArg a0, TraceArg a1);

  sim::Simulation* sim_;
  Options opts_;
  bool enabled_ = false;
  uint64_t next_seq_ = 1;
  SpanId next_span_id_ = 1;
  uint64_t recorded_ = 0;
  std::vector<Track> tracks_;
  std::vector<const char*> processes_;  // pid order (first use)
};

}  // namespace redy::telemetry

#endif  // REDY_TELEMETRY_TRACE_H_
