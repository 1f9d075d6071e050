// gmorph_perfbench: runs one benchmark workload and prints its metrics.
//
//   gmorph_perfbench --workload <search-b1|infer-zoo|serve-bert> --seed <n>
//                    --seconds <s> --spawn-ns <ns> --run-dir <dir>
//                    [--inject <fault>]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. The exit code is 0 only
// when every correctness check passed. run.py builds this binary, pins its
// threads and cache directory, and selects the metrics it reports.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "perfbench/src/common.h"
#include "src/common/check.h"
#include "src/obs/trace.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--spawn-ns") {
      args->spawn_ns = std::strtoll(value.c_str(), nullptr, 10);
    } else if (key == "--inject") {
      args->inject = value;
    } else if (key == "--run-dir") {
      args->run_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         args->spawn_ns > 0 && !args->run_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: gmorph_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--spawn-ns <ns> --run-dir <dir> [--inject <fault>]\n";
    return 2;
  }
  perfbench::Report report;
  // GMORPH_TRACE arms the tracer, which writes its rings at exit; the stream
  // keeps the events those rings overwrite during a long run.
  std::unique_ptr<perfbench::TraceStream> stream;
  if (gmorph::obs::InitTracingFromEnv()) {
    gmorph::obs::SetCurrentThreadName("bench-main");
    stream = std::make_unique<perfbench::TraceStream>(args.run_dir + "/trace-stream.jsonl");
  }
  try {
    if (args.workload == "search-b1") {
      perfbench::RunSearchB1(args, report);
    } else if (args.workload == "infer-zoo") {
      perfbench::RunInferZoo(args, report);
    } else if (args.workload == "serve-bert") {
      perfbench::RunServeBert(args, report);
    } else {
      std::cerr << "unknown workload: " << args.workload << "\n";
      return 2;
    }
  } catch (const gmorph::CheckError& e) {
    std::cerr << "workload aborted: " << e.what() << "\n";
    return 1;
  }
  report.Metric("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  if (stream != nullptr) {
    stream->Finish();
    report.Metric("trace.stream_gaps", static_cast<double>(stream->gaps()), "count");
  }
  std::cout << report.Json() << std::endl;
  return report.correct() ? 0 : 1;
}
