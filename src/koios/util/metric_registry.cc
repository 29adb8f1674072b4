#include "koios/util/metric_registry.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace koios::util {

namespace {

/// Shortest round-trippable rendering of a double: integers print bare
/// ("42"), everything else with enough digits ("0.0125", "1e-06").
std::string RenderDouble(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Prometheus help-text escaping: backslash and newline.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Splits a registered series name into base and label body:
/// `base{key="v"}` -> {"base", `key="v"`}; an unlabeled name has an empty
/// label body.
struct NameParts {
  std::string_view base;
  std::string_view labels;  // without the enclosing braces
};

NameParts SplitName(std::string_view name) {
  const size_t brace = name.find('{');
  if (brace == std::string_view::npos) return {name, {}};
  std::string_view labels = name.substr(brace + 1);
  if (!labels.empty() && labels.back() == '}') {
    labels.remove_suffix(1);
  }
  return {name.substr(0, brace), labels};
}

/// `base_bucket{<labels,>le="0.1"}` — merges a histogram's own labels
/// with the `le` bucket label.
std::string BucketSeries(const NameParts& parts, const std::string& le) {
  std::string out(parts.base);
  out += "_bucket{";
  if (!parts.labels.empty()) {
    out += parts.labels;
    out += ",";
  }
  out += "le=\"" + le + "\"} ";
  return out;
}

/// `base_sum{labels}` / plain `base_sum` for unlabeled histograms.
std::string SuffixSeries(const NameParts& parts, const char* suffix) {
  std::string out(parts.base);
  out += suffix;
  if (!parts.labels.empty()) {
    out += "{";
    out += parts.labels;
    out += "}";
  }
  return out;
}

}  // namespace

std::string LabeledMetricName(std::string_view base, std::string_view key,
                              std::string_view value) {
  std::string out(base);
  out += "{";
  out += key;
  out += "=\"";
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  out += "\"}";
  return out;
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Observe(double value) {
  const size_t idx =
      std::upper_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  // upper_bound gives the first bound STRICTLY greater; Prometheus buckets
  // are upper-inclusive, so step back when the value sits exactly on one.
  const size_t bucket =
      (idx > 0 && bounds_[idx - 1] == value) ? idx - 1 : idx;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::CumulativeCount(size_t i) const {
  uint64_t total = 0;
  for (size_t b = 0; b <= i && b <= bounds_.size(); ++b) {
    total += buckets_[b].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Percentile(double p) const {
  // The rank comes from the bucket total, not count_, so it is consistent
  // with the walk below. Observations only add, so the walk's running total
  // reaches the rank no later than it did when the total was summed.
  uint64_t total = 0;
  for (size_t b = 0; b <= bounds_.size(); ++b) {
    total += buckets_[b].load(std::memory_order_relaxed);
  }
  if (total == 0) return 0.0;
  const double rank_real =
      std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total));
  const uint64_t rank =
      std::clamp<uint64_t>(static_cast<uint64_t>(rank_real), 1, total);
  uint64_t below = 0;
  for (size_t b = 0; b < bounds_.size(); ++b) {
    const uint64_t in_bucket = buckets_[b].load(std::memory_order_relaxed);
    if (below + in_bucket >= rank) {
      const double lo = b == 0 ? 0.0 : bounds_[b - 1];
      return lo + (bounds_[b] - lo) * static_cast<double>(rank - below) /
                      static_cast<double>(in_bucket);
    }
    below += in_bucket;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();  // the +Inf bucket
}

void Histogram::SetSnapshot(const std::vector<uint64_t>& bucket_counts,
                            double sum) {
  uint64_t total = 0;
  const size_t n = std::min(bucket_counts.size(), bounds_.size() + 1);
  // The snapshot is authoritative: slots past a short vector are zeroed,
  // never left holding counts from a previous snapshot or Observe.
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    const uint64_t v = i < n ? bucket_counts[i] : 0;
    buckets_[i].store(v, std::memory_order_relaxed);
    total += v;
  }
  sum_.store(sum, std::memory_order_relaxed);
  count_.store(total, std::memory_order_relaxed);
}

std::vector<double> GeometricBuckets(double first, double ratio,
                                     double limit) {
  assert(first > 0.0 && ratio > 1.0);
  std::vector<double> bounds;
  for (double b = first; b < limit; b *= ratio) bounds.push_back(b);
  return bounds;
}

std::vector<double> ExponentialLatencyBuckets() {
  return GeometricBuckets(1e-4, 2.0, 200.0);
}

std::vector<double> FineLatencyBuckets() {
  return GeometricBuckets(1e-6, std::exp2(0.125), 200.0);
}

// ----------------------------------------------------------- MetricRegistry

const MetricRegistry::Entry* MetricRegistry::Find(std::string_view name) const {
  for (const auto& [n, entry] : metrics_) {
    if (n == name) return &entry;
  }
  return nullptr;
}

Counter* MetricRegistry::RegisterCounter(std::string_view name,
                                         std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const Entry* existing = Find(name)) {
    return existing->kind == Entry::kCounter ? existing->counter.get()
                                             : nullptr;
  }
  Entry entry;
  entry.kind = Entry::kCounter;
  entry.help = help;
  entry.counter.reset(new Counter());
  Counter* ptr = entry.counter.get();
  metrics_.emplace_back(std::string(name), std::move(entry));
  return ptr;
}

Gauge* MetricRegistry::RegisterGauge(std::string_view name,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const Entry* existing = Find(name)) {
    return existing->kind == Entry::kGauge ? existing->gauge.get() : nullptr;
  }
  Entry entry;
  entry.kind = Entry::kGauge;
  entry.help = help;
  entry.gauge.reset(new Gauge());
  Gauge* ptr = entry.gauge.get();
  metrics_.emplace_back(std::string(name), std::move(entry));
  return ptr;
}

Histogram* MetricRegistry::RegisterHistogram(std::string_view name,
                                             std::string_view help,
                                             std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const Entry* existing = Find(name)) {
    return existing->kind == Entry::kHistogram ? existing->histogram.get()
                                               : nullptr;
  }
  Entry entry;
  entry.kind = Entry::kHistogram;
  entry.help = help;
  entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram* ptr = entry.histogram.get();
  metrics_.emplace_back(std::string(name), std::move(entry));
  return ptr;
}

Counter* MetricRegistry::FindCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry* entry = Find(name);
  return entry != nullptr && entry->kind == Entry::kCounter
             ? entry->counter.get()
             : nullptr;
}

Gauge* MetricRegistry::FindGauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry* entry = Find(name);
  return entry != nullptr && entry->kind == Entry::kGauge ? entry->gauge.get()
                                                          : nullptr;
}

void MetricRegistry::AddCollectionCallback(std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(callbacks_mutex_);
  callbacks_.push_back(std::move(callback));
}

std::string MetricRegistry::RenderText() const {
  // Callbacks refresh gauges from their authoritative sources first. They
  // run OUTSIDE the registry mutex (a callback may register a new labeled
  // series, e.g. a freshly observed trace phase) but hold the callbacks
  // mutex, so renders serialize against each other.
  {
    std::lock_guard<std::mutex> lock(callbacks_mutex_);
    for (const auto& callback : callbacks_) callback();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  // Group every series of one base name under a single HELP/TYPE block
  // (Prometheus requires all samples of a metric to be contiguous).
  // Groups render in first-registration order, series within a group in
  // registration order — stable scrapes diff cleanly.
  std::vector<std::pair<std::string_view, std::vector<size_t>>> groups;
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const std::string_view base = SplitName(metrics_[i].first).base;
    bool found = false;
    for (auto& [have, indices] : groups) {
      if (have == base) {
        indices.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) groups.push_back({base, {i}});
  }

  std::string out;
  out.reserve(metrics_.size() * 96);
  for (const auto& [base, indices] : groups) {
    const std::string base_name(base);
    // HELP from the first series with help text; TYPE from the first.
    for (size_t i : indices) {
      const std::string& help = metrics_[i].second.help;
      if (!help.empty()) {
        out += "# HELP " + base_name + " " + EscapeHelp(help) + "\n";
        break;
      }
    }
    switch (metrics_[indices.front()].second.kind) {
      case Entry::kCounter:
        out += "# TYPE " + base_name + " counter\n";
        break;
      case Entry::kGauge:
        out += "# TYPE " + base_name + " gauge\n";
        break;
      case Entry::kHistogram:
        out += "# TYPE " + base_name + " histogram\n";
        break;
    }
    for (size_t i : indices) {
      const std::string& name = metrics_[i].first;
      const Entry& entry = metrics_[i].second;
      const NameParts parts = SplitName(name);
      switch (entry.kind) {
        case Entry::kCounter:
          out += name + " " + std::to_string(entry.counter->Value()) + "\n";
          break;
        case Entry::kGauge:
          out += name + " " + RenderDouble(entry.gauge->Value()) + "\n";
          break;
        case Entry::kHistogram: {
          const Histogram& h = *entry.histogram;
          for (size_t b = 0; b < h.bounds().size(); ++b) {
            out += BucketSeries(parts, RenderDouble(h.bounds()[b])) +
                   std::to_string(h.CumulativeCount(b)) + "\n";
          }
          out += BucketSeries(parts, "+Inf") + std::to_string(h.Count()) + "\n";
          out += SuffixSeries(parts, "_sum") + " " + RenderDouble(h.Sum()) +
                 "\n";
          out += SuffixSeries(parts, "_count") + " " +
                 std::to_string(h.Count()) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace koios::util
