#include "perfbench/src/common.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string_view>

#include "src/kernels/scratch.h"
#include "src/obs/proc_stats.h"
#include "src/serving/scheduler.h"

namespace perfbench {

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Fail(const std::string& what) {
  ++failures_;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

bool Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    Fail(what);
  }
  return ok;
}

std::string Report::Json() const {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": ";
    if (std::isfinite(v.value)) {
      os << v.value;
    } else {
      os << "null";
    }
    os << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double SetupSeconds(const Args& args) {
  return static_cast<double>(NowNs() - args.spawn_ns) / 1e9;
}

int64_t HeapBytesNow() {
  return gmorph::Tensor::TotalAllocatedBytes() + gmorph::ScratchArena::TotalHeapBytes();
}

double PeakRssMb() {
  gmorph::obs::ProcessMemory mem;
  if (!gmorph::obs::ReadProcessMemory(&mem)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return static_cast<double>(mem.peak_rss_bytes) / (1024.0 * 1024.0);
}

bool IsFallbackStep(const gmorph::FusedEngine::StepProfile& step) {
  return step.label.find("(module)") != std::string::npos;
}

void KernelWork::Add(const std::vector<gmorph::FusedEngine::StepProfile>& profile,
                     double samples) {
  for (const gmorph::FusedEngine::StepProfile& step : profile) {
    if (!IsFallbackStep(step)) {
      flops += step.flops * samples;
      ms += step.total_ms;
    }
  }
}

double AttributedFlopsShare(const std::vector<gmorph::FusedEngine::StepProfile>& profile,
                            double graph_flops) {
  double step_flops = 0.0;
  for (const gmorph::FusedEngine::StepProfile& step : profile) {
    step_flops += step.flops;
  }
  return step_flops / graph_flops;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

TraceStream::TraceStream(const std::string& path) : out_(path) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!wake_.wait_for(lock, std::chrono::milliseconds(kPollMs), [this] { return stop_; })) {
      Poll();
    }
  });
}

TraceStream::~TraceStream() {
  if (thread_.joinable()) {
    Finish();
  }
}

void TraceStream::Finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
  Poll();
}

namespace {

// Events recorded so far, over every thread (never decreases).
int64_t RecordedEvents() {
  return static_cast<int64_t>(gmorph::obs::TraceEventCount() +
                              gmorph::obs::TraceDroppedCount());
}

}  // namespace

void TraceStream::Poll() {
  const int64_t recorded_before = RecordedEvents();
  const std::string json = gmorph::obs::TraceToJson();
  const int64_t recorded_during = RecordedEvents() - recorded_before;
  // The export writes one event per line, each thread's ring oldest first:
  //   {"name":..,"cat":..,"ph":"X","pid":1,"tid":<n>,"ts":<us>,"dur":<us>}
  // Virtual-lane events sit in the rings of the threads that recorded them;
  // a run of them between two threads' events counts for both.
  std::map<int, std::vector<std::string_view>> by_thread;
  std::map<int, int64_t> virtual_events;
  int64_t pending_virtual = 0;
  int thread = -1;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t end = json.find('\n', pos);
    if (end == std::string::npos) {
      end = json.size();
    }
    std::string_view line(json.data() + pos, end - pos);
    pos = end + 1;
    const size_t at = line.find(",\"tid\":");
    if (line.find("\"ph\":\"X\"") == std::string_view::npos || at == std::string_view::npos) {
      continue;
    }
    const int tid = std::atoi(line.data() + at + 7);
    if (tid >= gmorph::kServingServerLane) {
      ++pending_virtual;
      continue;
    }
    if (tid != thread) {
      virtual_events[thread] += pending_virtual;
    }
    virtual_events[tid] += pending_virtual;
    pending_virtual = 0;
    thread = tid;
    by_thread[tid].push_back(line.substr(0, line.rfind('}') + 1));
  }
  virtual_events[thread] += pending_virtual;
  for (const auto& [tid, lines] : by_thread) {
    // Whether this thread's ring may have been full during the export.
    const bool may_be_full = static_cast<int64_t>(lines.size()) + virtual_events[tid] +
                                 recorded_during >= kRingCapacity;
    std::string& last = last_event_[tid];
    size_t first_new = 0;
    if (!last.empty()) {
      size_t after = lines.size();
      while (after > 0 && lines[after - 1] != last) {
        --after;
      }
      // lines[after - 1] is the event written last time.
      if (after == 0 || (may_be_full && static_cast<int64_t>(after - 1) < recorded_during)) {
        ++gaps_;
      }
      first_new = after;
    } else if (may_be_full) {
      ++gaps_;  // first seen with a ring that may have wrapped already
    }
    for (size_t i = first_new; i < lines.size(); ++i) {
      out_ << lines[i] << '\n';
    }
    last = std::string(lines.back());
  }
  out_.flush();
}

double RowErr(const gmorph::Tensor& a, int64_t row_a, const gmorph::Tensor& b, int64_t row_b,
              double atol, double rtol) {
  const int64_t width_a = a.size() / a.shape()[0];
  const int64_t width_b = b.size() / b.shape()[0];
  if (width_a != width_b || row_a >= a.shape()[0] || row_b >= b.shape()[0]) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (int64_t j = 0; j < width_a; ++j) {
    const double x = a.at(row_a * width_a + j);
    const double y = b.at(row_b * width_b + j);
    const double err = std::fabs(x - y) / (atol + rtol * std::fabs(y));
    // NaN never compares within tolerance.
    worst = std::isnan(err) ? std::numeric_limits<double>::infinity() : std::max(worst, err);
  }
  return worst;
}

gmorph::Tensor Rows(const gmorph::Tensor& t, int64_t start, int64_t count) {
  std::vector<int64_t> dims = t.shape().dims();
  const int64_t width = t.size() / dims[0];
  dims[0] = count;
  std::vector<float> values(t.data() + start * width, t.data() + (start + count) * width);
  return gmorph::Tensor::FromVector(gmorph::Shape(dims), std::move(values));
}

void SwapRows(gmorph::Tensor& t, int64_t i, int64_t j) {
  const int64_t width = t.size() / t.shape()[0];
  std::swap_ranges(t.data() + i * width, t.data() + (i + 1) * width, t.data() + j * width);
}

}  // namespace perfbench
