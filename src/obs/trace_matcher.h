#ifndef FABRIC_OBS_TRACE_MATCHER_H_
#define FABRIC_OBS_TRACE_MATCHER_H_

// Query utility over a recorded trace, for protocol-conformance tests:
//
//   obs::TraceMatcher trace(tracer);
//   auto commits = trace.Category("s2v").Name("phase1.commit");
//   EXPECT_EQ(commits.WithAttr("task", 3).count(), 1u);
//   EXPECT_TRUE(commits.StrictlyBefore(trace.Name("phase5.promote")));
//
// Matchers are cheap filtered views (pointers into the tracer's event
// vector); the tracer must outlive them.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace fabric::obs {

class TraceMatcher {
 public:
  explicit TraceMatcher(const Tracer& tracer);

  // Filters (each returns a narrowed view, original unchanged).
  TraceMatcher Category(std::string_view category) const;
  TraceMatcher Name(std::string_view name) const;
  TraceMatcher Phase(Event::Phase phase) const;
  TraceMatcher WithAttr(std::string_view key, AttrValue value) const;
  TraceMatcher WithAttrKey(std::string_view key) const;
  TraceMatcher Before(double time) const;  // strictly earlier virtual time
  TraceMatcher After(double time) const;   // strictly later virtual time

  size_t count() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const Event& at(size_t i) const;
  const Event& first() const { return at(0); }
  const Event& last() const { return at(events_.size() - 1); }
  // The single matching event; dies (with a dump) unless count() == 1.
  const Event& only() const;

  // Distinct values of an integer attribute across the matched events,
  // sorted ascending (events missing the attr are skipped).
  std::vector<int64_t> DistinctIntAttr(std::string_view key) const;

  // True when every matched event is sequenced before every event of
  // `other`. Vacuously true when either side is empty.
  bool StrictlyBefore(const TraceMatcher& other) const;

  // Multi-line dump of the matched events (assertion messages).
  std::string Describe(size_t limit = 32) const;

 private:
  explicit TraceMatcher(std::vector<const Event*> events)
      : events_(std::move(events)) {}

  template <typename Pred>
  TraceMatcher FilterBy(Pred pred) const {
    std::vector<const Event*> kept;
    for (const Event* event : events_) {
      if (pred(*event)) kept.push_back(event);
    }
    return TraceMatcher(std::move(kept));
  }

  std::vector<const Event*> events_;
};

}  // namespace fabric::obs

#endif  // FABRIC_OBS_TRACE_MATCHER_H_
