#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

// Shared pieces of the serving benchmark: the fixed catalog, the seeded
// query generator, exact percentiles, the span tracer and the metric set
// printed as the run's result.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geom/box.h"
#include "geom/point_set.h"
#include "server/client.h"
#include "server/coordinator.h"
#include "server/dataset.h"
#include "server/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// --- fixed catalog and serving configuration ------------------------------

/// Every workload serves the same catalog: the synthetic SDSS color
/// catalog at 1M rows, dim 5 (3,425 clustered table pages). Only the
/// queries vary with --seed, so figures from different seeds describe the
/// same database.
inline constexpr uint64_t kCatalogRows = 1000000;
inline constexpr uint64_t kCatalogSeed = 42;
/// mdsd's own response-cache default (mdsd --cache-bytes).
inline constexpr size_t kMdsdCacheBytes = 64u << 20;
/// box-spill's buffer pool: about 1/8 of the 3,425 table pages.
inline constexpr size_t kSpillPoolPages = 428;
/// Closed-loop clients (one connection each): the host's core count here.
inline constexpr size_t kClients = 4;
inline constexpr uint32_t kKnnK = 10;

mds::DatasetConfig CatalogConfig(uint32_t shard_index = 0,
                                 uint32_t shard_count = 1);

// --- queries ---------------------------------------------------------------

enum class Op { kPointCount = 0, kBoxQuery = 1, kKnn = 2 };
inline constexpr size_t kNumOps = 3;
const char* OpName(Op op);

struct Query {
  Op op = Op::kPointCount;
  mds::Box box;               // point_count / box_query
  std::vector<double> point;  // knn
};

/// Share of each operation and the selectivity range of each box kind.
/// Box selectivities are drawn log-uniformly between the bounds.
struct Mix {
  double share[kNumOps] = {1.0, 0.0, 0.0};
  double point_count_sel[2] = {1e-5, 0.5};
  double box_query_sel[2] = {1e-5, 1e-2};
};

/// Seeded query stream over the catalog. Box centres are catalog rows and
/// the half-width comes from the catalog's measured median selectivity
/// curve, so log-uniform target selectivities stay log-uniform in the
/// realised ones; kNN probes are catalog rows with 0.05 mag jitter.
///
/// The operation and the target selectivity follow low-discrepancy
/// sequences from seeded phases: every window of a run, on every seed,
/// covers the mix and the selectivity range almost exactly in proportion,
/// which keeps run-to-run spread down to what the system itself adds.
class QueryGenerator {
 public:
  QueryGenerator(const mds::PointSet* points, const Mix& mix, uint64_t seed);

  Query Next();
  Query NextOf(Op op);

 private:
  mds::Box BoxWithSelectivity(double lo, double hi);

  const mds::PointSet* points_;
  Mix mix_;
  mds::Rng rng_;
  double op_phase_ = 0;
  double sel_phase_ = 0;
};

/// Derives an independent stream seed from the run seed and a purpose tag.
uint64_t StreamSeed(uint64_t seed, uint64_t tag, uint64_t index = 0);

// --- exact percentiles -----------------------------------------------------

/// Raw samples with exact nearest-rank percentiles (no histogram buckets).
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double Percentile(double q);
  double Mean() const;

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

// --- spans -----------------------------------------------------------------

/// One timed call into a layer. `parent` is the span that caused it (0 for
/// a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// In-memory span buffer. Thread-compatible: each thread records into its
/// own Tracer (ids are unique across tracers through `lane`), and the
/// buffers are merged and written out when the run ends. A disabled
/// tracer records nothing.
class Tracer {
 public:
  Tracer(bool enabled, uint32_t lane) : enabled_(enabled), lane_(lane) {}

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  void End(uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }
  void Absorb(const Tracer& other);

 private:
  bool enabled_;
  uint32_t lane_;
  uint64_t next_ = 1;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Per span name: count, total and self time (duration minus the union of
/// its children's intervals), in microseconds.
struct SpanSummary {
  std::string name;
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};
std::vector<SpanSummary> SummarizeSpans(const std::vector<Span>& spans);

/// Writes spans as JSON lines followed by the per-name summary. Returns
/// false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<SpanSummary>& summary);

// --- result ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  /// A percentile metric: also printed with its sample count.
  void AddPercentile(const std::string& name, Samples* samples, double q);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

/// JSON number with every digit a double carries.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
