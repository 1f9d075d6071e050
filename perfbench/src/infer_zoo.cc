// infer-zoo: a closed loop (one caller) runs batch-1 and batch-8 inference of
// the original multi-DNN graphs of B1-B7 on the FusedEngine. Weights are
// seeded and untrained; inputs are seeded rows of each benchmark's test
// split.
//
// Checks, after the timed loop: every FusedEngine output at batch 1 and 8
// matches eager MultiTaskModel::Forward within kAtol + kRtol * |eager|; row i
// of a batch-8 output matches the batch-1 output of row i within the same
// tolerance; on every plan without a fallback step the Profile() step FLOPs
// sum to AbsGraph::TotalFlops within kFlopsTolerance. Each checked engine
// call (one batch-8 and kBatch batch-1 calls per benchmark) counts as one
// operation, failed when any of its output rows fails a comparison.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/core/model_parser.h"
#include "src/core/multitask_model.h"
#include "src/data/benchmarks.h"
#include "src/runtime/fused_engine.h"

namespace perfbench {
namespace {

using gmorph::FusedEngine;
using gmorph::Tensor;

constexpr int kBatch = 8;
constexpr double kAtol = 1e-4;
constexpr double kRtol = 1e-3;
// BN and ReLU FLOPs counted by AbsGraph::TotalFlops vanish into the folded
// conv epilogues, so a fully attributed plan sums to about 98% of them.
constexpr double kFlopsTolerance = 0.05;

struct ZooModel {
  int index = 0;
  gmorph::AbsGraph graph;
  std::unique_ptr<gmorph::MultiTaskModel> model;
  std::unique_ptr<FusedEngine> engine;
  Tensor batch;             // kBatch seeded input rows
  std::vector<Tensor> rows;  // the same rows as batch-1 inputs
  double plan_build_ms = 0.0;
  std::vector<double> b1_ms;
  std::vector<double> b8_ms;
  int64_t run_bytes = 0;
  int64_t runs = 0;
};

// Step kind of a FusedEngine::Profile() step, from its label ("conv 3->8
// k3s1 +bn +relu", "res.conv2 ...", "linear 64->32", "Transformer (module)").
std::string StepKind(const FusedEngine::StepProfile& step) {
  if (IsFallbackStep(step)) {
    return "module";
  }
  const std::string head = step.label.substr(0, step.label.find(' '));
  if (head == "conv" || head.rfind("res.", 0) == 0 || head == "adapter.conv") {
    return "conv";
  }
  if (head == "adapter.linear") {
    return "linear";
  }
  if (head == "tok.resize") {
    return "resize";
  }
  return head;
}

std::vector<ZooModel> BuildZoo(const Args& args) {
  gmorph::BenchmarkScale scale;
  scale.train_size = kBatch;
  scale.test_size = kBatch;
  std::vector<ZooModel> zoo;
  for (int k = 1; k <= gmorph::kNumBenchmarks; ++k) {
    ZooModel z;
    z.index = k;
    gmorph::BenchmarkDef def = gmorph::MakeBenchmark(k, scale, args.seed * 131 + k);
    std::vector<gmorph::ModelSpec> specs;
    for (const gmorph::BenchmarkTask& task : def.tasks) {
      specs.push_back(task.model);
    }
    z.graph = gmorph::ParseModelSpecs(specs);
    gmorph::Rng rng(args.seed * 7919 + k);
    z.model = std::make_unique<gmorph::MultiTaskModel>(z.graph, rng);
    {
      LayerSpan span("pb/runtime/FusedEngine");
      const int64_t start = NowNs();
      z.engine = std::make_unique<FusedEngine>(z.model.get());
      z.plan_build_ms = MsSince(start);
    }
    z.batch = Rows(def.test.inputs, 0, kBatch);
    for (int r = 0; r < kBatch; ++r) {
      z.rows.push_back(Rows(def.test.inputs, r, 1));
    }
    // Warm both bindings so the timed loop sees the steady state.
    z.engine->Run(z.rows[0]);
    z.engine->Run(z.batch);
    z.engine->ResetProfile();
    zoo.push_back(std::move(z));
  }
  return zoo;
}

// One timed engine call; returns its milliseconds.
double TimedRun(ZooModel& z, const Tensor& input) {
  LayerSpan span("pb/runtime/Run");
  const int64_t bytes = HeapBytesNow();
  const int64_t start = NowNs();
  z.engine->Run(input);
  const double ms = MsSince(start);
  z.run_bytes += HeapBytesNow() - bytes;
  ++z.runs;
  return ms;
}

// Checks the outputs of `z` and returns the batch-1 latency of its eager
// MultiTaskModel::Forward, which the check computes anyway.
double CheckOutputs(ZooModel& z, const Args& args, Report& report) {
  const std::string tag = "B" + std::to_string(z.index);
  std::vector<Tensor> eager8 = z.model->Forward(z.batch, /*training=*/false);
  std::vector<Tensor> fused8;
  for (const Tensor& t : z.engine->Run(z.batch)) {
    fused8.push_back(t.Clone());
  }
  if (args.inject == "swap-row" && z.index == 1) {
    SwapRows(fused8[0], 0, 1);
  }
  bool batch8_ok = true;
  int64_t failed = 0;
  std::vector<double> eager_ms;
  for (int r = 0; r < kBatch; ++r) {
    const int64_t start = NowNs();
    std::vector<Tensor> eager1 = z.model->Forward(z.rows[static_cast<size_t>(r)], false);
    eager_ms.push_back(MsSince(start));
    std::vector<Tensor> fused1;
    for (const Tensor& t : z.engine->Run(z.rows[static_cast<size_t>(r)])) {
      fused1.push_back(t.Clone());
    }
    if (args.inject == "perturb-logit" && z.index == 1 && r == 0) {
      fused1[0].at(0) += 0.05f;
    }
    bool batch1_ok = true;
    for (size_t t = 0; t < fused1.size(); ++t) {
      const std::string where = tag + " task " + std::to_string(t) + " row " + std::to_string(r);
      batch1_ok &= report.Check(RowErr(fused1[t], 0, eager1[t], 0, kAtol, kRtol) <= 1.0,
                                where + ": fused batch-1 output differs from eager");
      batch8_ok &= report.Check(RowErr(fused8[t], r, eager8[t], r, kAtol, kRtol) <= 1.0,
                                where + ": fused batch-8 output differs from eager");
      batch8_ok &= report.Check(RowErr(fused8[t], r, fused1[t], 0, kAtol, kRtol) <= 1.0,
                                where + ": batch-8 row differs from the batch-1 output of that row");
    }
    failed += batch1_ok ? 0 : 1;
  }
  report.AddAttempted(1 + kBatch);
  report.AddFailed(failed + (batch8_ok ? 0 : 1));
  return Quantile(eager_ms, kLatencyQuantile);
}

}  // namespace

void RunInferZoo(const Args& args, Report& report) {
  std::vector<ZooModel> zoo = BuildZoo(args);
  report.Metric("setup_s", SetupSeconds(args), "s");

  // Closed loop: whole rounds over every benchmark at batch 1 then batch 8,
  // until the time budget is spent.
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  int64_t rounds = 0;
  while (rounds == 0 || NowNs() < deadline) {
    const size_t row = static_cast<size_t>(rounds % kBatch);
    for (ZooModel& z : zoo) {
      z.b1_ms.push_back(TimedRun(z, z.rows[row]));
      z.b8_ms.push_back(TimedRun(z, z.batch));
    }
    ++rounds;
  }
  report.AddAttempted(rounds * static_cast<int64_t>(zoo.size()) * 2);

  std::vector<double> b1s;
  std::vector<double> b8_rates;
  std::vector<double> batching_gains;
  std::vector<double> plan_build_ms;
  double share_sum = 0.0;
  double graph_mflops = 0.0;
  KernelWork kernels;
  std::map<std::string, double> kind_seconds;
  std::map<std::string, double> kind_flops;
  for (ZooModel& z : zoo) {
    const std::string tag = "B" + std::to_string(z.index);
    const double b1 = Quantile(z.b1_ms, kLatencyQuantile);
    const double b8 = Quantile(z.b8_ms, kLatencyQuantile);
    b1s.push_back(b1);
    b8_rates.push_back(kBatch * 1000.0 / b8);
    batching_gains.push_back(kBatch * b1 / b8);
    plan_build_ms.push_back(z.plan_build_ms);
    report.Metric("infer." + tag + ".b1_ms", b1, "ms");
    report.Metric("infer." + tag + ".b8_ms", b8, "ms");
    report.Metric("runtime." + tag + ".bytes_per_run",
                  static_cast<double>(z.run_bytes) / static_cast<double>(z.runs), "bytes");

    // Every step ran once per timed run: `rounds` times at batch 1 and
    // `rounds` times at batch 8.
    const double samples = static_cast<double>(rounds) * (1 + kBatch);
    std::vector<FusedEngine::StepProfile> profile;
    {
      LayerSpan span("pb/runtime/Profile");
      profile = z.engine->Profile();
    }
    kernels.Add(profile, samples);
    int fallbacks = 0;
    for (const FusedEngine::StepProfile& step : profile) {
      const std::string kind = StepKind(step);
      fallbacks += IsFallbackStep(step) ? 1 : 0;
      kind_seconds[kind] += step.total_ms / 1e3;
      kind_flops[kind] += step.flops * samples;
    }
    const double graph_flops = static_cast<double>(z.graph.TotalFlops());
    graph_mflops += graph_flops / 1e6;
    double share = AttributedFlopsShare(profile, graph_flops);
    if (args.inject == "flops-mismatch" && z.index == 1) {
      share *= 0.8;
    }
    if (args.inject == "fallback-count" && z.index == 7) {
      ++fallbacks;
    }
    share_sum += share;
    report.Metric("runtime." + tag + ".fallback_steps", fallbacks, "count");
    report.Metric("runtime." + tag + ".attributed_flops_share", share, "ratio");
    report.Check(fallbacks == z.engine->num_fallback_modules(),
                 tag + ": fallback steps in Profile() != num_fallback_modules()");
    if (fallbacks == 0) {
      report.Check(std::fabs(share - 1.0) <= kFlopsTolerance,
                   tag + ": Profile() step FLOPs disagree with AbsGraph::TotalFlops (share " +
                       std::to_string(share) + ")");
    }
  }
  report.Metric("latency_ms", GeoMean(b1s), "ms");
  report.Metric("throughput_per_s", GeoMean(b8_rates), "1/s");
  report.Metric("speedup_x", GeoMean(batching_gains), "x");
  report.Metric("runtime.b1_ms", GeoMean(b1s), "ms");
  report.Metric("runtime.plan_build_ms", Median(plan_build_ms), "ms");
  report.Metric("runtime.attributed_flops_share", share_sum / static_cast<double>(zoo.size()),
                "ratio");
  report.Metric("kernels.gflops", kernels.Gflops(), "GFLOP/s");
  report.Metric("model.mflops", graph_mflops, "MFLOP");
  for (const auto& [kind, seconds] : kind_seconds) {
    report.Metric("runtime.step." + kind + "_ms", seconds * 1e3 / static_cast<double>(rounds),
                  "ms");
    if (kind_flops[kind] > 0.0) {
      report.Metric("kernels." + kind + ".gflops", kind_flops[kind] / seconds / 1e9, "GFLOP/s");
    }
  }

  LayerSpan span("pb/bench/check");
  std::vector<double> eager_b1;
  for (ZooModel& z : zoo) {
    eager_b1.push_back(CheckOutputs(z, args, report));
  }
  report.Metric("nn.forward_b1_ms", GeoMean(eager_b1), "ms");
}

}  // namespace perfbench
