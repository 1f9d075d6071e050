// Shared pieces of the gmorph_perfbench workloads: arguments, the result
// report, timing helpers, spans around calls into each layer, and the
// output comparisons the correctness checks use.
#ifndef GMORPH_PERFBENCH_SRC_COMMON_H_
#define GMORPH_PERFBENCH_SRC_COMMON_H_

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/trace.h"
#include "src/runtime/fused_engine.h"
#include "src/tensor/tensor.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // CLOCK_MONOTONIC nanoseconds at which the launcher spawned this process;
  // set-up time is measured from there.
  int64_t spawn_ns = 0;
  // Deliberate fault for the negative tests (see README.md); empty in
  // measured runs.
  std::string inject;
  // Directory of this run's artifacts (fresh per run).
  std::string run_dir;
};

// Collects metrics and check outcomes, then prints the one-line JSON result.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // A failed correctness check: logged to stderr, makes the run incorrect.
  void Fail(const std::string& what);
  // Checks `ok`; on false records `what` as a failure. Returns `ok`.
  bool Check(bool ok, const std::string& what);

  // Operations the workload ran, and those of them whose output failed a
  // check (each such failure is also a failed check).
  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }
  bool correct() const { return failures_ == 0; }

  // {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  std::string Json() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int failures_ = 0;
};

// CLOCK_MONOTONIC nanoseconds (the same clock Python's time.monotonic_ns
// reads, so the launcher's spawn time is comparable).
int64_t NowNs();
inline double MsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e6; }

// Seconds from process spawn to now: the set-up time metric.
double SetupSeconds(const Args& args);

// Tensor storage plus kernel scratch bytes allocated process-wide so far.
int64_t HeapBytesNow();
// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();

// Engine latencies are reported at this quantile of a run's samples rather
// than the median: on a shared 4-vCPU VM other tenants slow a varying share of
// the runs, which moves the median between runs about twice as much as the
// 10th percentile (IQR/median over six runs: 0.05-0.09 against 0.05-0.06).
constexpr double kLatencyQuantile = 0.1;

double Median(std::vector<double> values);
// Quantile q in [0, 1] with linear interpolation between order statistics.
double Quantile(std::vector<double> values, double q);
double GeoMean(const std::vector<double>& values);

// What a FusedEngine::Profile() says about a plan's kernel steps (every
// step but the opaque module fallbacks): FLOPs run and time spent in them.
struct KernelWork {
  double flops = 0.0;
  double ms = 0.0;
  // Adds the kernel steps of `profile`, taken after `samples` samples ran
  // since the engine's last ResetProfile().
  void Add(const std::vector<gmorph::FusedEngine::StepProfile>& profile, double samples);
  double Gflops() const { return flops / ms / 1e6; }
};

bool IsFallbackStep(const gmorph::FusedEngine::StepProfile& step);
// Sum of the per-sample FLOPs of every step of a plan, over the graph's
// FLOPs (AbsGraph::TotalFlops): the share of the work the plan attributes.
double AttributedFlopsShare(const std::vector<gmorph::FusedEngine::StepProfile>& profile,
                            double graph_flops);

// Span the benchmark records around one call into a layer, named
// "pb/<layer>/<call>"; a no-op unless tracing is on. The trace analysis in
// run.py attributes its self time to <layer>.
class LayerSpan : public gmorph::obs::TraceSpan {
 public:
  explicit LayerSpan(const char* name) : TraceSpan(name, gmorph::obs::TraceCat::kBench) {}
};

// While tracing is on, appends the events each thread recorded since the
// previous poll to `path` (one JSON event per line) every kPollMs, so spans
// that the tracer's fixed per-thread rings overwrite before exit still reach
// the analysis; every event is written exactly once. Spans on the serving
// server's virtual request lanes are not thread time and are left out.
//
// The tracer's export reads a ring while its thread may be overwriting the
// ring's oldest slots, so the oldest events of a full ring can come out torn.
// A poll therefore writes, per thread, only the events after the newest one
// the previous poll wrote, and counts a gap when that event is gone from the
// ring, or when the ring may be full and fewer of its events precede that one
// than were recorded during the export. gaps() > 0 means events may be lost
// or torn.
class TraceStream {
 public:
  explicit TraceStream(const std::string& path);
  ~TraceStream();  // Finish()es if that has not been done

  TraceStream(const TraceStream&) = delete;
  TraceStream& operator=(const TraceStream&) = delete;

  // Stops the poller and polls once more; call once the workload has ended.
  void Finish();
  int64_t gaps() const { return gaps_; }

  static constexpr int kPollMs = 50;
  // Events a tracer ring holds (ThreadRing::kCapacity in src/obs/trace.cc).
  static constexpr int64_t kRingCapacity = 1 << 15;

 private:
  void Poll();

  std::ofstream out_;
  std::map<int, std::string> last_event_;  // per thread: newest event written
  int64_t gaps_ = 0;
  std::mutex mu_;  // guards stop_
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
};

// max |a - b| / (atol + rtol * |b|) over the elements of row `row_a` of `a`
// and row `row_b` of `b` (rows along dimension 0). <= 1 means within
// tolerance; +inf when the row shapes differ.
double RowErr(const gmorph::Tensor& a, int64_t row_a, const gmorph::Tensor& b, int64_t row_b,
              double atol, double rtol);
// Rows [start, start + count) of `t` as a new batch.
gmorph::Tensor Rows(const gmorph::Tensor& t, int64_t start, int64_t count);
// Swaps rows i and j of `t` in place.
void SwapRows(gmorph::Tensor& t, int64_t i, int64_t j);

void RunSearchB1(const Args& args, Report& report);
void RunInferZoo(const Args& args, Report& report);
void RunServeBert(const Args& args, Report& report);

}  // namespace perfbench

#endif  // GMORPH_PERFBENCH_SRC_COMMON_H_
