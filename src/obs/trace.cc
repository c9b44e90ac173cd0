#include "obs/trace.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace fabric::obs {

namespace {
Tracer* g_current_tracer = nullptr;
}  // namespace

bool AttrValue::operator==(const AttrValue& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kInt:
      return int_ == other.int_;
    case Kind::kDouble:
      return double_ == other.double_;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kString:
      return string_ == other.string_;
  }
  return false;
}

std::string AttrValue::ToJson() const {
  switch (kind_) {
    case Kind::kInt:
      return StrCat(int_);
    case Kind::kDouble:
      return JsonNumber(double_);
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kString:
      return JsonString(string_);
  }
  return "null";
}

const AttrValue* Event::FindAttr(std::string_view key) const {
  for (const Attr& attr : attrs) {
    if (attr.key == key) return &attr.value;
  }
  return nullptr;
}

int64_t Event::IntAttr(std::string_view key, int64_t fallback) const {
  const AttrValue* v = FindAttr(key);
  return v != nullptr && v->kind() == AttrValue::Kind::kInt ? v->int_value()
                                                            : fallback;
}

double Event::DoubleAttr(std::string_view key, double fallback) const {
  const AttrValue* v = FindAttr(key);
  if (v == nullptr) return fallback;
  if (v->kind() == AttrValue::Kind::kDouble) return v->double_value();
  if (v->kind() == AttrValue::Kind::kInt) {
    return static_cast<double>(v->int_value());
  }
  return fallback;
}

bool Event::BoolAttr(std::string_view key, bool fallback) const {
  const AttrValue* v = FindAttr(key);
  return v != nullptr && v->kind() == AttrValue::Kind::kBool ? v->bool_value()
                                                             : fallback;
}

std::string Event::ToString() const {
  std::string out =
      StrCat("[t=", time, " #", seq, "] ", category, ".", name,
             phase == Phase::kBegin  ? " BEGIN"
             : phase == Phase::kEnd ? " END"
                                    : "");
  for (const Attr& attr : attrs) {
    out += StrCat(" ", attr.key, "=", attr.value.ToJson());
  }
  return out;
}

Tracer::Tracer(std::function<double()> clock)
    : Tracer(std::move(clock), Options{}) {}

Tracer::Tracer(std::function<double()> clock, Options options)
    : clock_(std::move(clock)), options_(options) {
  FABRIC_CHECK(clock_ != nullptr) << "tracer needs a clock";
}

void Tracer::Emit(std::string_view category, std::string_view name,
                  Attrs attrs) {
  if (!options_.capture_events) return;
  Event event;
  event.phase = Event::Phase::kInstant;
  event.time = clock_();
  event.seq = next_seq_++;
  event.category = category;
  event.name = name;
  event.attrs = std::move(attrs);
  events_.push_back(std::move(event));
}

uint64_t Tracer::BeginSpan(std::string_view category, std::string_view name,
                           Attrs attrs) {
  uint64_t span = next_span_++;
  if (!options_.capture_events) return span;
  Event event;
  event.phase = Event::Phase::kBegin;
  event.time = clock_();
  event.seq = next_seq_++;
  event.span = span;
  event.category = category;
  event.name = name;
  event.attrs = std::move(attrs);
  events_.push_back(std::move(event));
  return span;
}

void Tracer::EndSpan(uint64_t span, std::string_view category,
                     std::string_view name, Attrs attrs) {
  if (!options_.capture_events) return;
  Event event;
  event.phase = Event::Phase::kEnd;
  event.time = clock_();
  event.seq = next_seq_++;
  event.span = span;
  event.category = category;
  event.name = name;
  event.attrs = std::move(attrs);
  events_.push_back(std::move(event));
}

std::string Tracer::ToChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Event& event : events_) {
    if (!first) out += ",\n";
    first = false;
    const char* ph = event.phase == Event::Phase::kBegin  ? "b"
                     : event.phase == Event::Phase::kEnd ? "e"
                                                         : "i";
    out += StrCat("{\"name\":", JsonString(event.name).c_str(),
                  ",\"cat\":", JsonString(event.category).c_str(),
                  ",\"ph\":\"", ph, "\",\"ts\":",
                  JsonNumber(event.time * 1e6).c_str(),
                  ",\"pid\":1,\"tid\":1");
    if (event.span != 0) out += StrCat(",\"id\":", event.span);
    if (event.phase == Event::Phase::kInstant) out += ",\"s\":\"g\"";
    out += ",\"args\":{\"seq\":" + StrCat(event.seq);
    for (const Attr& attr : event.attrs) {
      out += "," + JsonString(attr.key) + ":" + attr.value.ToJson();
    }
    out += "}}";
  }
  out += "],\"metrics\":" + metrics_.ToJson() + "}";
  return out;
}

Tracer* CurrentTracer() { return g_current_tracer; }

ScopedTracer::ScopedTracer(Tracer* tracer) : previous_(g_current_tracer) {
  g_current_tracer = tracer;
}

ScopedTracer::~ScopedTracer() { g_current_tracer = previous_; }

}  // namespace fabric::obs
