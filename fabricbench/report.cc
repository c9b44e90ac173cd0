#include "report.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "calibrate.h"
#include "obs/metrics.h"
#include "stats.h"

namespace fabricbench {
namespace {

// Counters whose timed-phase deltas are reported (and fingerprinted).
const char* const kCounters[] = {
    "sim.processes_spawned",     "net.recomputes",
    "net.flows_opened",          "net.bytes_requested",
    "vertica.rows_scanned",      "tm.moveout_runs",
    "tm.mergeout_runs",          "vertica.wos_stall_ms",
    "wm.admitted",               "wm.queued",
    "wm.queue_timeouts",         "wm.spills",
    "vertica.session_rejects",   "connector.session_backoffs",
    "vertica.txns_begun",        "vertica.txns_aborted",
    "sql.compiled_pipelines",    "sql.interpreted_fallbacks",
    "spark.fused_map_stages",    "vertica.merge_joins",
    "vertica.hash_joins",        "spark.jobs",
    "spark.attempts_launched",   "spark.attempts_failed",
    "spark.speculative_launched", "spark.shuffle.map_outputs",
    "spark.shuffle.bytes",       "spark.spills",
    "v2s.partitions_scanned",    "v2s.agg_pushdowns",
    "s2v.phase1_commits",        "s2v.phase1_duplicates",
    "vertica.copy_rows",
};

// Virtual-time span kinds reported as virt.<category>.<name>_s.
const std::pair<const char*, const char*> kVirtualSpans[] = {
    {"net", "flow"}, {"spark", "task"}, {"v2s", "scan"}};

// Span names whose host-time coverage is reported as <name>.host_ms.
const char* const kHostSpans[] = {
    "vertica.connect",        "vertica.execute.select",
    "vertica.execute.join",   "vertica.execute.score",
    "spark.collect",          "connector.s2v",
    "connector.v2s",
};

class Deltas {
 public:
  explicit Deltas(const Capture& c) : c_(c) {}
  double operator()(const char* name) const {
    return c_.after.counter(name) - c_.before.counter(name);
  }
  double HistogramCount(const char* name) const {
    return static_cast<double>(c_.after.histogram(name).count -
                               c_.before.histogram(name).count);
  }

 private:
  const Capture& c_;
};

double ProjectionScans(const Capture& c) {
  Deltas d(c);
  double scans = 0;
  for (const std::string& name : c.projections) {
    scans += d(("vertica.projection_scans{" + name + "}").c_str());
  }
  return scans;
}

// Real rows delivered to clients by the round's read operations.
double RowsReturned(const RoundResult& round) {
  double rows = 0;
  for (const OpSample& op : round.ops) {
    if (op.kind.rfind("s2v", 0) != 0) rows += static_cast<double>(op.real_rows);
  }
  return rows;
}

// The tail percentile; the maximum when the sample is too small for a
// percentile above the median. The note states which.
Metric Tail(const std::string& name, const std::string& unit,
            const std::vector<double>& values, double want) {
  Metric metric{name, unit, 0, ""};
  if (values.empty()) {
    metric.note = "no samples";
    return metric;
  }
  std::optional<Percentile> p = TailPercentile(values, want);
  if (p.has_value() && p->fraction > 0.5) {
    metric.value = p->value;
    char note[64];
    std::snprintf(note, sizeof(note), "p%.1f of %zu samples",
                  100 * p->fraction, p->samples);
    metric.note = note;
  } else {
    double max = values[0];
    for (double v : values) max = std::max(max, v);
    metric.value = max;
    metric.note = "max of " + std::to_string(values.size()) +
                  " samples (too few for a tail percentile)";
  }
  return metric;
}

std::map<std::string, double> VirtualSpanSeconds(
    const std::vector<fabric::obs::Event>& events) {
  using fabric::obs::Event;
  std::map<uint64_t, const Event*> open;
  std::map<std::string, double> seconds;
  for (const Event& e : events) {
    if (e.phase == Event::Phase::kBegin) {
      open[e.span] = &e;
    } else if (e.phase == Event::Phase::kEnd) {
      auto it = open.find(e.span);
      if (it == open.end()) continue;
      seconds[e.category + "." + e.name] += e.time - it->second->time;
      open.erase(it);
    }
  }
  return seconds;
}

// Host milliseconds covered by spans of each name, per round; and the
// self time of the Engine::Run spans.
struct RoundSpans {
  std::map<std::string, double> covered_ms;
  double run_self_ms = 0;
};

std::map<int, RoundSpans> AnalyzeSpans(const std::vector<Span>& spans) {
  std::map<int, std::map<std::string, std::vector<std::pair<double, double>>>>
      by_name;
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    by_name[s.run][s.name].emplace_back(s.start_ms, s.end_ms);
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
  }
  std::map<int, RoundSpans> out;
  for (const auto& [run, names] : by_name) {
    for (const auto& [name, intervals] : names) {
      out[run].covered_ms[name] = UnionLength(intervals);
    }
  }
  for (const Span& s : spans) {
    if (s.name != "sim.run") continue;
    out[s.run].run_self_ms += SelfTime(s.start_ms, s.end_ms, children[s.id]);
  }
  return out;
}

// Scales a round's host times to the reference machine speed.
double SpeedFactor(const RoundResult& round) {
  return round.calibration_ms > 0 ? kReferenceMs / round.calibration_ms : 1;
}

}  // namespace

std::string Fmt(double value) {
  if (std::isinf(value)) return value > 0 ? "1e999" : "-1e999";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::vector<Metric> EndToEndMetrics(const std::vector<RoundResult>& rounds,
                                    double peak_rss_mb) {
  // Per-round summaries, then medians over rounds: the statistics do not
  // depend on how many rounds fit into the run.
  std::vector<double> setup, host, rows_per_s, op_host_p50, op_host_tail;
  double attempted = 0, completed = 0;
  Metric tail_shape;
  for (const RoundResult& r : rounds) {
    const double speed = SpeedFactor(r);
    setup.push_back(r.setup_s * speed);
    host.push_back(r.host_s * speed);
    double rows = 0;
    std::vector<double> op_host_ms;
    for (const OpSample& op : r.ops) {
      rows += static_cast<double>(op.real_rows);
      op_host_ms.push_back(op.host_ms * speed);
      attempted += 1;
      if (op.ok) completed += 1;
    }
    rows_per_s.push_back(rows / (r.host_s * speed));
    op_host_p50.push_back(Median(op_host_ms));
    tail_shape = Tail("op_host_tail_ms", "ms", op_host_ms, 0.95);
    op_host_tail.push_back(tail_shape.value);
  }
  // Virtual latencies repeat exactly in every round: take the first.
  std::vector<double> latency;
  size_t failed = 0;
  for (const OpSample& op : rounds.front().ops) {
    if (op.ok) {
      latency.push_back(op.done_vs - op.due_vs);
    } else {
      ++failed;
    }
  }
  latency = LatenciesCountingFailures(std::move(latency), failed);
  std::string over_rounds =
      "median of " + std::to_string(rounds.size()) + " rounds";
  return {
      {"setup_s", "s", Median(setup), over_rounds},
      {"host_s", "s", Median(host), over_rounds},
      {"virtual_s", "s", rounds.front().virtual_s, "identical every round"},
      {"completed_frac", "ratio", completed / attempted,
       "of " + Fmt(attempted) + " ops"},
      {"peak_rss_mb", "MB", peak_rss_mb, "VmHWM"},
      {"real_rows_per_host_s", "1/s", Median(rows_per_s), over_rounds},
      {"op_host_p50_ms", "ms", Median(op_host_p50),
       "per-round median, " + over_rounds},
      {"op_host_tail_ms", "ms", Median(op_host_tail),
       "per-round " + tail_shape.note + ", " + over_rounds},
      {"op_p50_vs", "s", Median(latency),
       "of " + std::to_string(latency.size()) + " ops"},
      Tail("op_tail_vs", "s", latency, 0.99),
  };
}

std::vector<Metric> PerLayerMetrics(const std::vector<RoundResult>& traced,
                                    const std::vector<RoundResult>& untraced,
                                    const std::vector<Span>& spans) {
  const RoundResult& round = traced.front();
  const Capture& c = round.capture;
  Deltas d(c);
  std::vector<Metric> m;
  auto add = [&m](const std::string& name, const std::string& unit,
                  double value) { m.push_back({name, unit, value, ""}); };
  auto ratio = [&m](const std::string& name, Ratio r,
                    const std::string& base) {
    m.push_back({name, "ratio", r.value(), "base " + base + " = " +
                                                Fmt(r.base)});
  };

  // Host time from the benchmark's spans, at the reference speed:
  // medians over traced rounds.
  std::map<int, RoundSpans> per_round = AnalyzeSpans(spans);
  auto host_median = [&](const std::string& name) {
    std::vector<double> values;
    for (const RoundResult& r : traced) {
      const RoundSpans& rs = per_round[r.run];
      auto it = rs.covered_ms.find(name);
      values.push_back(
          (it == rs.covered_ms.end() ? 0 : it->second) * SpeedFactor(r));
    }
    return Median(values);
  };
  std::vector<double> run_self;
  for (const RoundResult& r : traced) {
    run_self.push_back(per_round[r.run].run_self_ms * SpeedFactor(r));
  }

  std::map<std::string, double> virt = VirtualSpanSeconds(c.events);

  // sim
  add("sim.processes_spawned", "count", d("sim.processes_spawned"));
  add("sim.sleeps", "count", d.HistogramCount("sim.sleep_seconds"));
  add("sim.run.self_host_ms", "ms", Median(run_self));
  // net
  add("net.recomputes", "count", d("net.recomputes"));
  add("net.flows_opened", "count", d("net.flows_opened"));
  ratio("net.recomputes_per_flow",
        {d("net.recomputes"), d("net.flows_opened")}, "net.flows_opened");
  add("net.bytes_paper", "bytes", d("net.bytes_requested"));
  for (const auto& [category, name] : kVirtualSpans) {
    std::string key = std::string(category) + "." + name;
    add("virt." + key + "_s", "s", virt.count(key) ? virt[key] : 0);
  }
  // storage
  const SysTables& sys = c.sys_after;
  double scanned = d("vertica.rows_scanned") / c.data_scale;
  double returned = RowsReturned(round);
  add("storage.ros_containers", "count", sys.ros_containers);
  add("storage.raw_bytes_real", "bytes", sys.raw_bytes);
  ratio("storage.encoded_per_raw", {sys.encoded_bytes, sys.raw_bytes},
        "storage.raw_bytes_real");
  add("storage.rows_scanned_real", "count", scanned);
  add("storage.rows_returned_real", "count", returned);
  ratio("storage.scanned_per_returned", {scanned, returned},
        "storage.rows_returned_real");
  // vertica/tm
  double moved = (sys.moveout_bytes_paper + sys.mergeout_bytes_paper) -
                 (c.sys_before.moveout_bytes_paper +
                  c.sys_before.mergeout_bytes_paper);
  double loaded =
      std::max(0.0, sys.raw_bytes - c.sys_before.raw_bytes) * c.data_scale;
  add("tm.moveout_runs", "count", d("tm.moveout_runs"));
  add("tm.mergeout_runs", "count", d("tm.mergeout_runs"));
  add("tm.loaded_bytes_paper", "bytes", loaded);
  ratio("tm.write_amp", {moved, loaded}, "tm.loaded_bytes_paper");
  add("tm.wos_stall_ms", "ms", d("vertica.wos_stall_ms"));
  // vertica/wm
  std::vector<double> waits;
  for (const fabric::obs::Event& e : c.events) {
    if (e.category == "wm" &&
        (e.name == "queue.grant" || e.name == "queue.timeout")) {
      waits.push_back(e.DoubleAttr("waited"));
    }
  }
  std::vector<double> lags;
  for (const OpSample& op : round.ops) lags.push_back(op.start_vs - op.due_vs);
  add("wm.admitted", "count", d("wm.admitted"));
  add("wm.queued", "count", d("wm.queued"));
  Metric wait_tail = Tail("wm.queue_wait_tail_vs", "s", waits, 0.99);
  m.push_back(wait_tail);
  add("wm.queue_timeouts", "count", d("wm.queue_timeouts"));
  add("wm.session_rejects", "count", d("vertica.session_rejects"));
  add("wm.spills", "count", d("wm.spills"));
  add("connector.session_backoffs", "count", d("connector.session_backoffs"));
  m.push_back(Tail("mux.start_lag_tail_vs", "s", lags, 0.99));
  // vertica (session, SQL): host time of the calls
  for (const char* name : kHostSpans) {
    add(std::string(name) + ".host_ms", "ms", host_median(name));
  }
  ratio("vertica.txn_abort_frac",
        {d("vertica.txns_aborted"), d("vertica.txns_begun")},
        "vertica.txns_begun");
  add("vertica.txns_begun", "count", d("vertica.txns_begun"));
  // exec, vertica/pipeline
  double compiled = d("sql.compiled_pipelines");
  double fallbacks = d("sql.interpreted_fallbacks");
  add("exec.compile_attempts", "count", compiled + fallbacks);
  ratio("exec.compiled_frac", {compiled, compiled + fallbacks},
        "exec.compile_attempts");
  add("exec.cache_lookups", "count", c.cache_hits + c.cache_misses);
  ratio("exec.cache_hit_ratio", {c.cache_hits, c.cache_hits + c.cache_misses},
        "exec.cache_lookups");
  add("spark.fused_map_stages", "count", d("spark.fused_map_stages"));
  // vertica/projections
  add("vertica.projection_scans", "count", ProjectionScans(c));
  add("vertica.merge_joins", "count", d("vertica.merge_joins"));
  add("vertica.hash_joins", "count", d("vertica.hash_joins"));
  // spark
  add("spark.jobs", "count", d("spark.jobs"));
  add("spark.attempts_launched", "count", d("spark.attempts_launched"));
  ratio("spark.attempt_waste",
        {d("spark.attempts_failed"), d("spark.attempts_launched")},
        "spark.attempts_launched");
  add("spark.speculative_launched", "count", d("spark.speculative_launched"));
  // spark/shuffle
  add("spark.shuffle.map_outputs", "count", d("spark.shuffle.map_outputs"));
  add("spark.shuffle.bytes_paper", "bytes", d("spark.shuffle.bytes"));
  add("spark.spills", "count", d("spark.spills"));
  // connector
  add("v2s.partitions_scanned", "count", d("v2s.partitions_scanned"));
  add("v2s.agg_pushdowns", "count", d("v2s.agg_pushdowns"));
  add("s2v.phase1_commits", "count", d("s2v.phase1_commits"));
  ratio("s2v.dup_frac",
        {d("s2v.phase1_duplicates"), d("s2v.phase1_commits")},
        "s2v.phase1_commits");
  add("vertica.copy_rows", "count", d("vertica.copy_rows"));
  // Outcomes and the cost of tracing itself.
  double attempted = static_cast<double>(round.ops.size());
  double failed = 0;
  for (const OpSample& op : round.ops) failed += op.ok ? 0 : 1;
  ratio("failed_frac", {failed, attempted}, "ops attempted");
  std::vector<double> traced_host, untraced_host, unscaled_host, probe_ms;
  for (const RoundResult& r : traced) {
    traced_host.push_back(r.host_s * SpeedFactor(r));
    probe_ms.push_back(r.calibration_ms);
  }
  for (const RoundResult& r : untraced) {
    untraced_host.push_back(r.host_s * SpeedFactor(r));
    unscaled_host.push_back(r.host_s);
    probe_ms.push_back(r.calibration_ms);
  }
  add("trace.host_s", "s", Median(traced_host));
  add("trace.overhead_s", "s", Median(traced_host) - Median(untraced_host));
  // The raw measurements behind the scaling.
  add("host.probe_ms", "ms", Median(probe_ms));
  add("host.unscaled_host_s", "s", Median(unscaled_host));
  return m;
}

std::string Fingerprint(const RoundResult& round) {
  const Capture& c = round.capture;
  Deltas d(c);
  std::string out = "virtual_s=" + Fmt(round.virtual_s) + "\n";
  for (const OpSample& op : round.ops) {
    out += op.kind + (op.ok ? " ok " : " failed ") + Fmt(op.due_vs) + " " +
           Fmt(op.start_vs) + " " + Fmt(op.done_vs) + " " +
           std::to_string(op.real_rows) + "\n";
  }
  for (const char* name : kCounters) out += std::string(name) + "=" +
                                            Fmt(d(name)) + "\n";
  out += "sim.sleeps=" + Fmt(d.HistogramCount("sim.sleep_seconds")) + "\n";
  out += "projection_scans=" + Fmt(ProjectionScans(c)) + "\n";
  out += "cache=" + Fmt(c.cache_hits) + "/" + Fmt(c.cache_misses) + "\n";
  for (const SysTables* s : {&c.sys_before, &c.sys_after}) {
    out += "sys=" + Fmt(s->ros_containers) + " " + Fmt(s->raw_bytes) + " " +
           Fmt(s->encoded_bytes) + " " + Fmt(s->moveout_bytes_paper) + " " +
           Fmt(s->mergeout_bytes_paper) + "\n";
  }
  return out;
}

std::string ResultJson(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += fabric::obs::JsonString(metrics[i].name) + ": {\"value\": " +
           Fmt(metrics[i].value) +
           ", \"unit\": " + fabric::obs::JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

std::string SpansJson(const std::vector<Span>& spans) {
  std::string out = "{\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "{\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"name\": " + fabric::obs::JsonString(s.name) +
           ", \"start_ms\": " + Fmt(s.start_ms) +
           ", \"end_ms\": " + Fmt(s.end_ms) +
           ", \"run\": " + std::to_string(s.run) + "}";
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace fabricbench
