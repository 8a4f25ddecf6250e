#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

namespace perfbench {

using ctdb::obs::HistogramSnapshot;
using ctdb::obs::kHistogramBuckets;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t Registry::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

HistogramSnapshot Registry::Histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? HistogramSnapshot{} : it->second;
}

namespace {

/// Minimal reader for the registry JSON: nested objects whose leaves are
/// integers. Strings appear only as keys.
class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  bool Expect(char c) {
    Skip();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool Peek(char c) {
    Skip();
    return pos_ < s_.size() && s_[pos_] == c;
  }
  bool Key(std::string* key) {
    if (!Expect('"')) return false;
    key->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
      key->push_back(s_[pos_++]);
    }
    return Expect('"') && Expect(':');
  }
  bool Integer(int64_t* value) {
    Skip();
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    *value = std::strtoll(begin, &end, 10);
    if (end == begin) return false;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }
  bool UInteger(uint64_t* value) {
    Skip();
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    *value = std::strtoull(begin, &end, 10);
    if (end == begin) return false;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }
  /// Iterates the members of an object: `member(key)` consumes the value.
  template <typename F>
  bool Object(F member) {
    if (!Expect('{')) return false;
    if (Expect('}')) return true;
    std::string key;
    do {
      if (!Key(&key) || !member(key)) return false;
    } while (Expect(','));
    return Expect('}');
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  const std::string& s_;
  size_t pos_ = 0;
};

size_t BucketIndexOfUpperBound(uint64_t upper) {
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    if (ctdb::obs::Histogram::BucketUpperBound(b) == upper) return b;
  }
  return kHistogramBuckets - 1;
}

}  // namespace

bool ParseRegistry(const std::string& json, Registry* out) {
  Reader r(json);
  return r.Object([&](const std::string& section) {
    if (section == "counters") {
      return r.Object([&](const std::string& name) {
        return r.UInteger(&out->counters[name]);
      });
    }
    if (section == "gauges") {
      return r.Object([&](const std::string&) {
        int64_t ignored;
        return r.Integer(&ignored);
      });
    }
    if (section == "histograms") {
      return r.Object([&](const std::string& name) {
        HistogramSnapshot& h = out->histograms[name];
        return r.Object([&](const std::string& field) {
          if (field == "buckets") {
            return r.Object([&](const std::string& upper) {
              uint64_t n = 0;
              if (!r.UInteger(&n)) return false;
              h.buckets[BucketIndexOfUpperBound(
                  std::strtoull(upper.c_str(), nullptr, 10))] = n;
              return true;
            });
          }
          uint64_t v = 0;
          if (!r.UInteger(&v)) return false;
          if (field == "count") h.count = v;
          if (field == "sum") h.sum = v;
          if (field == "min") h.min = v;
          if (field == "max") h.max = v;
          return true;
        });
      });
    }
    return false;
  });
}

Registry Delta(const Registry& after, const Registry& before) {
  Registry d;
  for (const auto& [name, value] : after.counters) {
    d.counters[name] = value - before.Counter(name);
  }
  for (const auto& [name, h] : after.histograms) {
    const HistogramSnapshot b = before.Histogram(name);
    HistogramSnapshot& out = d.histograms[name];
    out = h;
    out.count = h.count - b.count;
    out.sum = h.sum - b.sum;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      out.buckets[i] = h.buckets[i] - b.buckets[i];
    }
  }
  return d;
}

double HistogramQuantile(const HistogramSnapshot& h, double q) {
  uint64_t total = 0;
  for (uint64_t n : h.buckets) total += n;
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    const double next = seen + static_cast<double>(h.buckets[b]);
    if (next >= target) {
      if (b == 0) return 0;
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      const double width = lo;  // bucket b holds [2^(b-1), 2^b)
      return lo + width * (target - seen) / static_cast<double>(h.buckets[b]);
    }
    seen = next;
  }
  return static_cast<double>(h.max);
}

double HistogramMean(const HistogramSnapshot& h) {
  return h.count == 0 ? 0 : static_cast<double>(h.sum) /
                                static_cast<double>(h.count);
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

}  // namespace perfbench
