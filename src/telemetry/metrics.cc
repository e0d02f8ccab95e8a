#include "telemetry/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "common/logging.h"

namespace redy::telemetry {

namespace {

/// Minimal JSON string escaping (metric names and label values are
/// ASCII identifiers in practice, but stay correct anyway).
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

void AppendHistogramJson(std::string* out, const char* key,
                         const Histogram& h) {
  *out += '"';
  *out += key;
  *out += "\":{\"count\":";
  AppendU64(out, h.count());
  *out += ",\"min\":";
  AppendU64(out, h.min());
  *out += ",\"max\":";
  AppendU64(out, h.max());
  *out += ",\"p50\":";
  AppendU64(out, h.Percentile(0.5));
  *out += ",\"p99\":";
  AppendU64(out, h.Percentile(0.99));
  *out += ",\"p999\":";
  AppendU64(out, h.Percentile(0.999));
  *out += '}';
}

std::string LabelString(const Labels& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); i++) {
    if (i != 0) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  return out;
}

}  // namespace

WindowedHistogram::WindowedHistogram(sim::Simulation* sim,
                                     sim::SimTime window_ns)
    : sim_(sim), window_ns_(window_ns == 0 ? 1 : window_ns) {
  window_index_ = sim_->Now() / window_ns_;
}

void WindowedHistogram::MaybeRotate() {
  const uint64_t idx = sim_->Now() / window_ns_;
  if (idx == window_index_) return;
  if (idx == window_index_ + 1) {
    // The window that just closed carries current_'s samples.
    std::swap(last_, current_);
  } else {
    // At least one whole empty window elapsed: the last completed
    // window has no samples.
    last_.Reset();
  }
  current_.Reset();
  window_index_ = idx;
}

void WindowedHistogram::Add(uint64_t value_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  MaybeRotate();
  cumulative_.Add(value_ns);
  current_.Add(value_ns);
}

void WindowedHistogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  cumulative_.Reset();
  current_.Reset();
  last_.Reset();
  window_index_ = sim_->Now() / window_ns_;
}

const Histogram& WindowedHistogram::last_window() {
  std::lock_guard<std::mutex> lock(mu_);
  MaybeRotate();
  return last_;
}

const Histogram& WindowedHistogram::current_window() {
  std::lock_guard<std::mutex> lock(mu_);
  MaybeRotate();
  return current_;
}

Histogram WindowedHistogram::SnapshotCumulative() {
  std::lock_guard<std::mutex> lock(mu_);
  MaybeRotate();
  return cumulative_;
}

Histogram WindowedHistogram::SnapshotLastWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  MaybeRotate();
  return last_;
}

MetricsRegistry::Entry* MetricsRegistry::Lookup(const std::string& name,
                                                const Labels& labels,
                                                Kind kind,
                                                sim::SimTime window_ns) {
  std::string key = name;
  key += '|';
  key += LabelString(labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    REDY_CHECK(it->second->kind == kind);
    return it->second;
  }
  // The metric object is created here, inside the critical section, so
  // both a concurrent registration of the same identity and a
  // concurrent exporter walk always see a fully built entry.
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<WindowedHistogram>(sim_, window_ns);
      break;
  }
  Entry* out = entry.get();
  entries_.push_back(std::move(entry));
  index_.emplace(std::move(key), out);
  return out;
}

std::vector<MetricsRegistry::Entry*> MetricsRegistry::SnapshotEntries() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry*> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.get());
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  return Lookup(name, labels, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  return Lookup(name, labels, Kind::kGauge)->gauge.get();
}

WindowedHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                 const Labels& labels,
                                                 sim::SimTime window_ns) {
  return Lookup(name, labels, Kind::kHistogram, window_ns)->histogram.get();
}

std::string MetricsRegistry::ToJson() {
  const std::vector<Entry*> entries = SnapshotEntries();
  std::string out;
  out.reserve(256 + entries.size() * 96);
  out += "{\"sim_now_ns\":";
  AppendU64(&out, sim_->Now());
  out += ",\"metrics\":[";
  for (size_t i = 0; i < entries.size(); i++) {
    Entry& e = *entries[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    AppendJsonString(&out, e.name);
    out += ",\"labels\":{";
    for (size_t l = 0; l < e.labels.size(); l++) {
      if (l != 0) out += ',';
      AppendJsonString(&out, e.labels[l].first);
      out += ':';
      AppendJsonString(&out, e.labels[l].second);
    }
    out += "},";
    switch (e.kind) {
      case Kind::kCounter:
        out += "\"type\":\"counter\",\"value\":";
        AppendU64(&out, e.counter->Value());
        break;
      case Kind::kGauge:
        out += "\"type\":\"gauge\",\"value\":";
        AppendI64(&out, e.gauge->Value());
        break;
      case Kind::kHistogram: {
        out += "\"type\":\"histogram\",\"window_ns\":";
        AppendU64(&out, e.histogram->window_ns());
        out += ',';
        AppendHistogramJson(&out, "cumulative",
                            e.histogram->SnapshotCumulative());
        out += ',';
        AppendHistogramJson(&out, "last_window",
                            e.histogram->SnapshotLastWindow());
        break;
      }
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace redy::telemetry
