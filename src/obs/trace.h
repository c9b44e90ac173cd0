#ifndef FABRIC_OBS_TRACE_H_
#define FABRIC_OBS_TRACE_H_

// Deterministic structured tracing for the simulated fabric.
//
// A Tracer records point events and spans, each stamped with the sim
// engine's virtual time plus a tracer-local sequence number. Because the
// engine is deterministic — wake-ups ordered by (time, seq), one runnable
// at a time — two runs with the same seed produce byte-identical traces,
// which turns the trace into a testable artifact: protocol-conformance
// tests query it with TraceMatcher (trace_matcher.h) instead of poking at
// end state.
//
// Call sites use the free helpers (TraceEvent / TraceBegin / TraceEnd /
// IncrCounter / ObserveValue / SetGauge) which no-op unless a tracer is
// installed via ScopedTracer, so production paths pay one pointer check
// when observability is off.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace fabric::obs {

// A typed attribute value: int64, double, bool or string.
class AttrValue {
 public:
  enum class Kind { kInt, kDouble, kBool, kString };

  AttrValue(int64_t v) : kind_(Kind::kInt), int_(v) {}
  AttrValue(int v) : AttrValue(static_cast<int64_t>(v)) {}
  AttrValue(uint64_t v) : AttrValue(static_cast<int64_t>(v)) {}
  AttrValue(double v) : kind_(Kind::kDouble), double_(v) {}
  AttrValue(bool v) : kind_(Kind::kBool), bool_(v) {}
  AttrValue(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}
  AttrValue(std::string_view v) : kind_(Kind::kString), string_(v) {}
  AttrValue(const char* v) : kind_(Kind::kString), string_(v) {}

  Kind kind() const { return kind_; }
  int64_t int_value() const { return int_; }
  double double_value() const { return double_; }
  bool bool_value() const { return bool_; }
  const std::string& string_value() const { return string_; }

  bool operator==(const AttrValue& other) const;
  bool operator!=(const AttrValue& other) const { return !(*this == other); }

  std::string ToJson() const;  // a JSON literal

 private:
  Kind kind_;
  int64_t int_ = 0;
  double double_ = 0;
  bool bool_ = false;
  std::string string_;
};

struct Attr {
  std::string key;
  AttrValue value;
};

using Attrs = std::vector<Attr>;

// One trace record. Spans appear as a Begin/End pair sharing a span id.
struct Event {
  enum class Phase { kInstant, kBegin, kEnd };

  Phase phase = Phase::kInstant;
  double time = 0;    // virtual seconds
  uint64_t seq = 0;   // total order within the tracer
  uint64_t span = 0;  // nonzero links a Begin to its End
  std::string category;
  std::string name;
  Attrs attrs;

  // First attribute with `key`, or nullptr.
  const AttrValue* FindAttr(std::string_view key) const;
  // Typed accessors with defaults (missing/mistyped attr returns `fallback`).
  int64_t IntAttr(std::string_view key, int64_t fallback = 0) const;
  double DoubleAttr(std::string_view key, double fallback = 0) const;
  bool BoolAttr(std::string_view key, bool fallback = false) const;

  std::string ToString() const;  // one-line debug form
};

// The tracer. `clock` supplies virtual time (typically the sim engine's
// now()); it must be monotone for the exported trace to be well-formed.
class Tracer {
 public:
  struct Options {
    // When false, Emit/BeginSpan/EndSpan only update metrics — the event
    // vector stays empty. Benchmarks run metrics-only to keep multi-GB
    // workloads from materializing million-event traces.
    bool capture_events = true;
  };

  // Two overloads rather than a defaulted Options argument: GCC cannot
  // evaluate a nested struct's member initializers in a default argument
  // of the enclosing class.
  explicit Tracer(std::function<double()> clock);
  Tracer(std::function<double()> clock, Options options);

  void Emit(std::string_view category, std::string_view name,
            Attrs attrs = {});
  // Returns the span id to pass to EndSpan (0 is never returned).
  uint64_t BeginSpan(std::string_view category, std::string_view name,
                     Attrs attrs = {});
  void EndSpan(uint64_t span, std::string_view category,
               std::string_view name, Attrs attrs = {});

  const std::vector<Event>& events() const { return events_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  bool capture_events() const { return options_.capture_events; }

  // Chrome trace-event format ("traceEvents" array: instants as ph:"i",
  // spans as async ph:"b"/"e"), loadable in chrome://tracing / Perfetto.
  // Deterministic: same events in, same bytes out.
  std::string ToChromeTraceJson() const;

 private:
  std::function<double()> clock_;
  Options options_;
  uint64_t next_seq_ = 1;
  uint64_t next_span_ = 1;
  std::vector<Event> events_;
  Metrics metrics_;
};

// The process-wide current tracer (nullptr when none installed). The sim
// engine serializes all simulation activity, so a plain pointer suffices.
Tracer* CurrentTracer();

// Installs `tracer` for the scope's lifetime, restoring the previous one
// on destruction (scopes nest; the innermost wins).
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer* tracer);
  ~ScopedTracer();

  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* previous_;
};

// ------------------------------------------------- call-site helpers
// All no-ops when no tracer is installed.

// Whether the current tracer records events: call sites build costly
// attributes only then (a metrics-only tracer drops them unread).
inline bool CapturingEvents() {
  Tracer* t = CurrentTracer();
  return t != nullptr && t->capture_events();
}

inline void TraceEvent(std::string_view category, std::string_view name,
                       Attrs attrs = {}) {
  if (Tracer* t = CurrentTracer()) t->Emit(category, name, std::move(attrs));
}

inline uint64_t TraceBegin(std::string_view category, std::string_view name,
                           Attrs attrs = {}) {
  Tracer* t = CurrentTracer();
  return t == nullptr ? 0 : t->BeginSpan(category, name, std::move(attrs));
}

inline void TraceEnd(uint64_t span, std::string_view category,
                     std::string_view name, Attrs attrs = {}) {
  if (span == 0) return;
  if (Tracer* t = CurrentTracer()) {
    t->EndSpan(span, category, name, std::move(attrs));
  }
}

inline void IncrCounter(std::string_view name, double delta = 1) {
  if (Tracer* t = CurrentTracer()) t->metrics().AddCounter(name, delta);
}

inline void SetGauge(std::string_view name, double value) {
  if (Tracer* t = CurrentTracer()) t->metrics().SetGauge(name, value);
}

inline void ObserveValue(std::string_view name, double value) {
  if (Tracer* t = CurrentTracer()) t->metrics().Observe(name, value);
}

}  // namespace fabric::obs

#endif  // FABRIC_OBS_TRACE_H_
