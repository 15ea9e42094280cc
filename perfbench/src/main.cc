// perfbench: the repository's serving benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--trace-out FILE]
//
// Drives the mdsd server (QueryServer) and the mdsc coordinator
// (Coordinator) in this process through the public QueryClient API with
// closed-loop clients, checks replies against an oracle, and prints one
// JSON result as its last line. --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics (see README.md).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "core/simd_dist.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
/// Replies kept per client and operation for the oracle.
constexpr size_t kKeepPerOp = 16;

void PrintStamp(const WorkloadSpec& spec, uint64_t seed, double seconds,
                int trace) {
  const size_t pool_pages = spec.kind == Kind::kBoxSpill
                                ? kSpillPoolPages
                                : mds::ServedDataset::LoadOptions{}.pool_pages;
  std::printf(
      "{\"stamp\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"nproc\":%u,\"simd_tier\":\"%s\",\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"rows\":%llu,\"catalog_seed\":%llu,"
      "\"pool_pages\":%zu,\"cache_bytes\":%zu,\"clients\":%zu,"
      "\"server_workers\":%u,\"batch\":%zu}}\n",
      spec.name, static_cast<unsigned long long>(seed),
      JsonNumber(seconds).c_str(), trace, std::thread::hardware_concurrency(),
      mds::SimdTierName(mds::ActiveSimdTier()), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, static_cast<unsigned long long>(kCatalogRows),
      static_cast<unsigned long long>(kCatalogSeed), pool_pages,
      spec.cache_bytes, kClients, ServerWorkers(), spec.batch);
}

/// Prints `prefix`_p50_us and _p99_us (medians over the window's slices)
/// with their sample count; `report_p50` also adds the p50 to the result.
/// The p99s do not repeat within a tenth from run to run on a shared
/// 4-core host, so they are per-layer metrics of the traced run instead.
void AddLatency(const WindowResult& w, size_t op, const std::string& prefix,
                bool report_p50, MetricSet* m) {
  const size_t n = w.Latencies(op).count();
  const std::pair<const char*, double> quantiles[] = {{"_p50_us", 0.50},
                                                      {"_p99_us", 0.99}};
  for (const auto& [suffix, q] : quantiles) {
    const double v = w.SliceMedian(op, q);
    std::printf("  %-34s %14.3f us    (n=%zu, median of %zu slices)\n",
                (prefix + suffix).c_str(), v, n, kSlices);
    if (report_p50 && q == 0.50) m->Add(prefix + suffix, v, "us");
  }
}

/// The untraced run: set up kSetupReps times (setup_s is their median),
/// warm up, then measure one window and check its replies.
mds::Status RunMeasured(const WorkloadSpec& spec, uint64_t seed,
                        double seconds, const std::string& scratch,
                        RunOutcome* out) {
  Samples setup_s;
  Deployment d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.Stop();
    SetupTimes t;
    MDS_RETURN_NOT_OK(Deploy(spec, scratch, false, &d, &t));
    setup_s.Add(t.total_s);
    std::printf("setup %d: %.3f s (build %.3f s, write %.3f s, load %.3f s)\n",
                rep, t.total_s, t.build_s, t.write_s, t.load_s);
  }
  HotSet hot;
  MDS_RETURN_NOT_OK(Prepare(&d, seed, &hot, out));

  WindowOptions measured;
  measured.seconds = seconds;
  measured.stream_seed = StreamSeed(seed, 11);
  measured.keep_per_op = kKeepPerOp;
  measured.reloads = true;
  WindowResult w = RunWindow(d, measured, hot);
  Account(d, w, out);

  std::printf("window: %.3f s, %llu ok, %llu failed, %llu rejected, "
              "%llu reloads; oracle checked %zu\n",
              w.seconds, static_cast<unsigned long long>(w.ok),
              static_cast<unsigned long long>(w.failed),
              static_cast<unsigned long long>(w.rejected),
              static_cast<unsigned long long>(w.reloads),
              spec.distinct_boxes != 0 ? static_cast<size_t>(w.ok)
                                       : w.checked.size());
  MetricSet& m = out->metrics;
  std::printf("  %-34s %14.3f s   (n=%zu)\n", "setup_s", setup_s.Percentile(0.5),
              setup_s.count());
  m.Add("setup_s", setup_s.Percentile(0.5), "s");
  const double throughput = w.SliceThroughput();
  std::printf("  %-34s %14.3f req/s (%llu replies, median of %zu slices)\n",
              "throughput_rps", throughput,
              static_cast<unsigned long long>(w.ok), kSlices);
  m.Add("throughput_rps", throughput, "req/s");
  const size_t pc = static_cast<size_t>(Op::kPointCount);
  AddLatency(w, kNumOps, "latency", true, &m);
  AddLatency(w, pc, "point_count", true, &m);
  m.Add("rss_peak_mb", PeakRssMb(), "MiB");
  // Operations outside the end-to-end set, for the log only.
  for (Op op : {Op::kBoxQuery, Op::kKnn}) {
    const size_t i = static_cast<size_t>(op);
    if (w.Latencies(i).count() != 0) AddLatency(w, i, OpName(op), false, &m);
  }
  std::printf("  %-34s %14.6f     (%llu of %llu)\n", "error_rate",
              out->attempted == 0 ? 0.0
                                  : static_cast<double>(out->failed) /
                                        static_cast<double>(out->attempted),
              static_cast<unsigned long long>(out->failed),
              static_cast<unsigned long long>(out->attempted));
  return mds::Status::OK();
}

void PrintResult(const RunOutcome& out) {
  std::string json = std::string("{\"correct\": ") +
                     (out.problems.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : out.metrics.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + metric.name + "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR] [--trace-out FILE]\n"
               "workloads: mixed-resident box-spill hot-pipelined "
               "scatter-4shard\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string scratch = ".bench_build/perfbench-run";
  std::string trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--scratch") {
      scratch = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(scratch, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", scratch.c_str());
    return 1;
  }
  if (trace_out.empty()) {
    trace_out = scratch + "/trace-" + workload + "-" + std::to_string(seed) +
                ".jsonl";
  }

  PrintStamp(*spec, seed, seconds, trace);
  RunOutcome out;
  const mds::Status status =
      trace == 0 ? RunMeasured(*spec, seed, seconds, scratch, &out)
                 : RunTraced(*spec, seed, seconds, scratch, trace_out, &out);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", p.c_str());
  }
  std::fflush(stderr);
  PrintResult(out);
  return out.problems.empty() ? 0 : 1;
}
