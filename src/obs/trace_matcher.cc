#include "obs/trace_matcher.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace fabric::obs {

namespace {

std::vector<const Event*> AllOf(const std::vector<Event>& events) {
  std::vector<const Event*> out;
  out.reserve(events.size());
  for (const Event& event : events) out.push_back(&event);
  return out;
}

}  // namespace

TraceMatcher::TraceMatcher(const Tracer& tracer)
    : events_(AllOf(tracer.events())) {}

TraceMatcher TraceMatcher::Category(std::string_view category) const {
  return FilterBy([&](const Event& e) { return e.category == category; });
}

TraceMatcher TraceMatcher::Name(std::string_view name) const {
  return FilterBy([&](const Event& e) { return e.name == name; });
}

TraceMatcher TraceMatcher::Phase(Event::Phase phase) const {
  return FilterBy([&](const Event& e) { return e.phase == phase; });
}

TraceMatcher TraceMatcher::WithAttr(std::string_view key,
                                    AttrValue value) const {
  return FilterBy([&](const Event& e) {
    const AttrValue* v = e.FindAttr(key);
    return v != nullptr && *v == value;
  });
}

TraceMatcher TraceMatcher::WithAttrKey(std::string_view key) const {
  return FilterBy([&](const Event& e) { return e.FindAttr(key) != nullptr; });
}

TraceMatcher TraceMatcher::Before(double time) const {
  return FilterBy([&](const Event& e) { return e.time < time; });
}

TraceMatcher TraceMatcher::After(double time) const {
  return FilterBy([&](const Event& e) { return e.time > time; });
}

const Event& TraceMatcher::at(size_t i) const {
  FABRIC_CHECK(i < events_.size())
      << "trace matcher index " << i << " out of " << events_.size();
  return *events_[i];
}

const Event& TraceMatcher::only() const {
  FABRIC_CHECK(events_.size() == 1)
      << "expected exactly one event, got " << events_.size() << ":\n"
      << Describe();
  return *events_[0];
}

std::vector<int64_t> TraceMatcher::DistinctIntAttr(
    std::string_view key) const {
  std::vector<int64_t> values;
  for (const Event* event : events_) {
    const AttrValue* v = event->FindAttr(key);
    if (v != nullptr && v->kind() == AttrValue::Kind::kInt) {
      values.push_back(v->int_value());
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

bool TraceMatcher::StrictlyBefore(const TraceMatcher& other) const {
  if (events_.empty() || other.events_.empty()) return true;
  uint64_t max_seq = 0;
  for (const Event* event : events_) {
    max_seq = std::max(max_seq, event->seq);
  }
  uint64_t min_seq = other.events_.front()->seq;
  for (const Event* event : other.events_) {
    min_seq = std::min(min_seq, event->seq);
  }
  return max_seq < min_seq;
}

std::string TraceMatcher::Describe(size_t limit) const {
  std::string out;
  size_t shown = 0;
  for (const Event* event : events_) {
    if (shown++ >= limit) {
      out += StrCat("... (", events_.size() - limit, " more)\n");
      break;
    }
    out += event->ToString() + "\n";
  }
  if (events_.empty()) out = "(no events)\n";
  return out;
}

}  // namespace fabric::obs
