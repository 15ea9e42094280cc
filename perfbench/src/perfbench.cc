#include "perfbench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

mds::DatasetConfig CatalogConfig(uint32_t shard_index, uint32_t shard_count) {
  mds::DatasetConfig config;
  config.num_rows = kCatalogRows;
  config.seed = kCatalogSeed;
  config.shard_index = shard_index;
  config.shard_count = shard_count;
  return config;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kPointCount:
      return "point_count";
    case Op::kBoxQuery:
      return "box_query";
    case Op::kKnn:
      return "knn";
  }
  return "?";
}

uint64_t StreamSeed(uint64_t seed, uint64_t tag, uint64_t index) {
  // splitmix64 over the three inputs.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL +
               index * 0x94d049bb133111ebULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// Median selectivity of a cube of half-width h (magnitudes) centred on a
// random row of the 1M-row seed-42 catalog, measured over 200 centres per
// width by brute force. Interpolated (and extrapolated) in log-log space.
struct CurvePoint {
  double half_width;
  double selectivity;
};
constexpr CurvePoint kSelectivityCurve[] = {
    {0.05, 1.2e-5}, {0.1, 2.22e-4}, {0.2, 2.8e-3},
    {0.5, 3.12e-2}, {1.0, 1.35e-1}, {2.0, 4.73e-1},
};

double HalfWidthFor(double selectivity) {
  constexpr size_t n = std::size(kSelectivityCurve);
  size_t i = 0;
  while (i + 2 < n && selectivity > kSelectivityCurve[i + 1].selectivity) ++i;
  const CurvePoint& a = kSelectivityCurve[i];
  const CurvePoint& b = kSelectivityCurve[i + 1];
  const double t = std::log(selectivity / a.selectivity) /
                   std::log(b.selectivity / a.selectivity);
  return a.half_width * std::pow(b.half_width / a.half_width, t);
}

}  // namespace

QueryGenerator::QueryGenerator(const mds::PointSet* points, const Mix& mix,
                               uint64_t seed)
    : points_(points), mix_(mix), rng_(seed) {
  op_phase_ = rng_.NextDouble();
  sel_phase_ = rng_.NextDouble();
}

namespace {
/// Next point of the Weyl sequence phase + k * step (mod 1).
double Weyl(double* phase, double step) {
  *phase += step;
  *phase -= std::floor(*phase);
  return *phase;
}
// Steps of the R2 low-discrepancy sequence (1/g, 1/g^2, g = the plastic
// number), so the operation and selectivity sequences stay independent.
constexpr double kOpStep = 0.7548776662466927;
constexpr double kSelStep = 0.5698402909980532;
}  // namespace

Query QueryGenerator::Next() {
  double u = Weyl(&op_phase_, kOpStep);
  for (size_t i = 0; i + 1 < kNumOps; ++i) {
    if (u < mix_.share[i]) return NextOf(static_cast<Op>(i));
    u -= mix_.share[i];
  }
  return NextOf(static_cast<Op>(kNumOps - 1));
}

Query QueryGenerator::NextOf(Op op) {
  Query q;
  q.op = op;
  switch (op) {
    case Op::kPointCount:
      q.box = BoxWithSelectivity(mix_.point_count_sel[0],
                                 mix_.point_count_sel[1]);
      break;
    case Op::kBoxQuery:
      q.box = BoxWithSelectivity(mix_.box_query_sel[0], mix_.box_query_sel[1]);
      break;
    case Op::kKnn: {
      const float* row = points_->point(rng_.NextBounded(points_->size()));
      q.point.resize(points_->dim());
      for (size_t j = 0; j < q.point.size(); ++j) {
        q.point[j] = static_cast<double>(row[j]) + 0.05 * rng_.NextGaussian();
      }
      break;
    }
  }
  return q;
}

mds::Box QueryGenerator::BoxWithSelectivity(double lo, double hi) {
  const double u = Weyl(&sel_phase_, kSelStep);
  const double target =
      std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
  const double h = HalfWidthFor(target);
  const float* centre = points_->point(rng_.NextBounded(points_->size()));
  std::vector<double> box_lo(points_->dim()), box_hi(points_->dim());
  for (size_t j = 0; j < box_lo.size(); ++j) {
    box_lo[j] = static_cast<double>(centre[j]) - h;
    box_hi[j] = static_cast<double>(centre[j]) + h;
  }
  return mds::Box(std::move(box_lo), std::move(box_hi));
}

// --- Samples -----------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Percentile(double q) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(values_.size(), static_cast<size_t>(rank)) - 1;
  return values_[index];
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

// --- Tracer ----------------------------------------------------------------

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

uint64_t Tracer::Begin(const char* name, uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = (static_cast<uint64_t>(lane_) << 40) | next_++;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return span.id;
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const int64_t now = NowNs();
  // Spans close in LIFO order, so the open span is near the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = now;
      return;
    }
  }
}

void Tracer::Absorb(const Tracer& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

std::vector<SpanSummary> SummarizeSpans(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanSummary> by_name;
  for (const Span& s : spans) {
    const double total_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    // Self time: the span minus the union of its children's intervals.
    double covered_ns = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv;
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start_ns, s.start_ns),
                        std::min(c->end_ns, s.end_ns));
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (const auto& [lo, hi] : iv) {
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered_ns += static_cast<double>(cur_hi - cur_lo);
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered_ns += static_cast<double>(cur_hi - cur_lo);
    }
    SpanSummary& sum = by_name[s.name];
    sum.name = s.name;
    ++sum.count;
    sum.total_us += total_us;
    sum.self_us += total_us - covered_ns / 1e3;
  }
  std::vector<SpanSummary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<SpanSummary>& summary) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  for (const SpanSummary& s : summary) {
    std::fprintf(f,
                 "{\"summary\":\"%s\",\"count\":%llu,\"total_us\":%s,"
                 "\"self_us\":%s}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.count),
                 JsonNumber(s.total_us).c_str(), JsonNumber(s.self_us).c_str());
  }
  return std::fclose(f) == 0;
}

// --- MetricSet ---------------------------------------------------------------

void MetricSet::AddPercentile(const std::string& name, Samples* samples,
                              double q) {
  const double value = samples->Percentile(q);
  std::printf("  %-34s %14.3f us  (n=%zu)\n", name.c_str(), value,
              samples->count());
  Add(name, value, "us");
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
