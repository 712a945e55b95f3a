#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace ooc::obs {
namespace {

using detail::Series;
using detail::SeriesType;

Labels sortedLabels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// Appends "name\x1f<label-key>", so key order IS (name, labels) order.
void appendSeriesKey(std::string& key, std::string_view name,
                     const Labels& sorted) {
  key += name;
  key += '\x1f';
  for (const auto& [k, v] : sorted) {
    key += k;
    key += '\x1e';
    key += v;
    key += '\x1f';
  }
}

/// Folds `from` into `into`, a series of the same (name, labels, type).
/// The first histogram folded in fixes the bounds; one under other bounds
/// is dropped, since its samples cannot be re-bucketed.
void fold(Series& into, const Series& from) {
  switch (into.type) {
    case SeriesType::kCounter:
      into.counter += from.counter;
      return;
    case SeriesType::kGauge:
      into.gauge = from.gauge;
      return;
    case SeriesType::kHistogram:
      break;
  }
  if (into.bucketCounts.empty()) {
    into.bounds = from.bounds;
    into.bucketCounts.assign(from.bucketCounts.size(), 0);
  } else if (into.bounds != from.bounds) {
    return;
  }
  for (std::size_t i = 0; i < into.bucketCounts.size(); ++i)
    into.bucketCounts[i] += from.bucketCounts[i];
  if (into.count == 0) {
    into.min = from.min;
    into.max = from.max;
  } else {
    into.min = std::min(into.min, from.min);
    into.max = std::max(into.max, from.max);
  }
  into.count += from.count;
  into.sum += from.sum;
}

}  // namespace

const std::vector<double>& defaultBuckets() {
  static const std::vector<double> kBuckets = {
      1,   2,   4,    8,    16,   32,   64,    128,  256,
      512, 1024, 2048, 4096, 8192, 16384, 32768, 65536};
  return kBuckets;
}

Series& Batch::entry(std::string_view name, const Labels& labels,
                     SeriesType type) {
  Labels sorted = sortedLabels(labels);
  std::string key(1, static_cast<char>(type));
  appendSeriesKey(key, name, sorted);
  const auto [it, inserted] = index_.try_emplace(key, entries_.size());
  if (inserted) {
    Entry& fresh = entries_.emplace_back();
    fresh.key = std::move(key);
    fresh.series.type = type;
    fresh.series.name = std::string(name);
    fresh.series.labels = std::move(sorted);
  }
  return entries_[it->second].series;
}

void Batch::addCounter(std::string_view name, std::uint64_t delta,
                       const Labels& labels) {
  entry(name, labels, SeriesType::kCounter).counter += delta;
}

void Batch::observe(std::string_view name, double sample,
                    const Labels& labels, const std::vector<double>& bounds) {
  Series& series = entry(name, labels, SeriesType::kHistogram);
  if (series.bucketCounts.empty()) {
    series.bounds = bounds;
    series.bucketCounts.assign(bounds.size() + 1, 0);
  } else if (series.bounds != bounds) {
    return;  // as fold() would drop it at commit
  }
  std::size_t bucket = series.bounds.size();  // overflow slot
  for (std::size_t i = 0; i < series.bounds.size(); ++i) {
    if (sample <= series.bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++series.bucketCounts[bucket];
  if (series.count == 0) {
    series.min = sample;
    series.max = sample;
  } else {
    series.min = std::min(series.min, sample);
    series.max = std::max(series.max, sample);
  }
  ++series.count;
  series.sum += sample;
}

Registry& Registry::global() noexcept {
  static Registry instance;
  return instance;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  series_.clear();
  dropped_ = 0;
}

Registry::Series* Registry::intern(std::string_view key, const Series& like) {
  const auto it = series_.lower_bound(key);
  if (it != series_.end() && it->first == key) {
    // Same key registered under a different type is a programming error;
    // keep the first registration rather than corrupting it.
    return it->second.type == like.type ? &it->second : nullptr;
  }
  if (series_.size() >= kMaxSeries) {
    ++dropped_;
    return nullptr;
  }
  Series& series = series_.emplace_hint(it, key, Series{})->second;
  series.type = like.type;
  series.name = like.name;
  series.labels = like.labels;
  return &series;
}

void Registry::commit(const Batch& batch) {
  if (!enabled() || batch.entries_.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Batch::Entry& entry : batch.entries_) {
    const std::string_view key = std::string_view(entry.key).substr(1);
    if (Series* series = intern(key, entry.series))
      fold(*series, entry.series);
  }
}

void Registry::addCounter(std::string_view name, std::uint64_t delta,
                          const Labels& labels) {
  if (!enabled()) return;
  Batch batch;
  batch.addCounter(name, delta, labels);
  commit(batch);
}

void Registry::setGauge(std::string_view name, double value,
                        const Labels& labels) {
  if (!enabled()) return;
  Series gauge;
  gauge.type = SeriesType::kGauge;
  gauge.name = std::string(name);
  gauge.labels = sortedLabels(labels);
  gauge.gauge = value;
  std::string key;
  appendSeriesKey(key, name, gauge.labels);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (Series* series = intern(key, gauge)) fold(*series, gauge);
}

void Registry::observe(std::string_view name, double sample,
                       const Labels& labels,
                       const std::vector<double>& bounds) {
  if (!enabled()) return;
  Batch batch;
  batch.observe(name, sample, labels, bounds);
  commit(batch);
}

std::size_t Registry::seriesCount() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

std::size_t Registry::droppedSeries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string Registry::toJson() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter json;
  json.beginObject();
  const auto emitLabels = [&](const Series& series) {
    json.key("labels").beginObject();
    for (const auto& [k, v] : series.labels) json.key(k).value(v);
    json.endObject();
  };
  const auto emitType = [&](const char* arrayKey, Type type,
                            auto&& emitBody) {
    json.key(arrayKey).beginArray();
    for (const auto& [key, series] : series_) {
      if (series.type != type) continue;
      json.beginObject().key("name").value(series.name);
      emitLabels(series);
      emitBody(series);
      json.endObject();
    }
    json.endArray();
  };
  emitType("counters", Type::kCounter, [&](const Series& series) {
    json.key("value").value(series.counter);
  });
  emitType("gauges", Type::kGauge, [&](const Series& series) {
    json.key("value").value(series.gauge);
  });
  emitType("histograms", Type::kHistogram, [&](const Series& series) {
    json.key("count").value(series.count);
    json.key("sum").value(series.sum);
    json.key("min").value(series.count > 0 ? series.min : 0.0);
    json.key("max").value(series.count > 0 ? series.max : 0.0);
    json.key("buckets").beginArray();
    for (std::size_t i = 0; i < series.bounds.size(); ++i) {
      json.beginObject()
          .key("le")
          .value(series.bounds[i])
          .key("count")
          .value(series.bucketCounts[i])
          .endObject();
    }
    json.endArray();
    json.key("overflow").value(
        series.bucketCounts.empty() ? std::uint64_t{0}
                                    : series.bucketCounts.back());
  });
  json.key("dropped_series").value(std::uint64_t{dropped_});
  json.endObject();
  return json.str();
}

}  // namespace ooc::obs
