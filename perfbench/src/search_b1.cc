// search-b1: one GMorph search on B1 (3x VGG-13s) with teachers trained
// fresh in this run: simulated annealing, a 1% accuracy-drop target, the
// FLOPs objective, no evaluation cache and a fixed iteration budget.
// The instance is fixed (kInstance); --seed orders the timed rows.
//
// Checks on the found graph, all computed here rather than taken from the
// search result: it passes the GraphVerifier (with a serializer round trip)
// after a save and reload; re-scored on the test split, every task stays
// within kDropBudget of its teacher's score; its FusedEngine outputs match
// eager MultiTaskModel::Forward within kAtol + kRtol * |eager|; its FLOPs do
// not exceed the original graph's. The deployment (save, reload, verify,
// FLOPs), each task's re-score and the FusedEngine comparison each count as
// one operation, failed when its check fails.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/analysis/graph_verifier.h"
#include "src/core/gmorph.h"
#include "src/core/graph_io.h"
#include "src/core/multitask_model.h"
#include "src/data/benchmarks.h"
#include "src/data/teacher.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/runtime/fused_engine.h"

namespace perfbench {
namespace {

using gmorph::Tensor;

// The search instance: B1 data, teacher initialisation and search stream.
// It does not follow --seed. Whether 8 iterations find a candidate within the
// budget is a step function of the instance (this one finds three; seeds 2
// and 3 find none), so a seeded instance would make flops_speedup and
// speedup_x jump between runs. --seed picks the order in which the found
// model is timed on the test rows.
constexpr uint64_t kInstance = 1;
constexpr int kIterations = 8;
constexpr double kDropBudget = 0.01;
constexpr int kTeacherEpochs = 6;
// Passes over the test split, one batch-1 FusedEngine run per row of the
// found and of the original graph, behind runtime.b1_ms and speedup_x.
constexpr int kFoundPasses = 12;
constexpr double kAtol = 1e-4;
constexpr double kRtol = 1e-3;
constexpr int64_t kEvalBatch = 32;
// Epochs over the training split behind throughput_per_s.
constexpr int kThroughputEpochs = 8;

gmorph::BenchmarkScale SearchScale() {
  gmorph::BenchmarkScale s;
  s.train_size = 128;
  s.test_size = 160;
  s.cnn_width = 4;
  s.image_size = 32;
  s.noise_stddev = 1.0f;
  return s;
}

gmorph::GMorphOptions SearchOptions(const Args& args) {
  gmorph::GMorphOptions o;
  o.accuracy_drop_threshold = kDropBudget;
  o.iterations = kIterations;
  o.max_mutations_per_pass = 1;
  o.policy = gmorph::PolicyKind::kSimulatedAnnealing;
  o.metric = gmorph::OptimizeMetric::kFlops;
  o.finetune.max_epochs = 10;
  o.finetune.eval_interval = 3;
  o.finetune.batch_size = 16;
  o.finetune.lr = 3e-3f;
  o.annealing.alpha = 0.85;
  o.annealing.initial_temp = 1.0;
  o.annealing.max_elites = 4;
  o.latency.measured_runs = 3;
  o.use_eval_cache = false;
  o.cache_dir = args.run_dir;
  o.seed = kInstance;
  return o;
}

int Argmax(const float* row, int64_t n) {
  return static_cast<int>(std::max_element(row, row + n) - row);
}

// Accuracy of per-batch logits produced by `forward` on the test split.
template <typename Forward>
double Accuracy(const gmorph::MultiTaskDataset& test, size_t task, Forward forward) {
  int64_t hits = 0;
  for (int64_t start = 0; start < test.size(); start += kEvalBatch) {
    const int64_t count = std::min(kEvalBatch, test.size() - start);
    const Tensor logits = forward(test.InputBatch(start, count));
    const int64_t classes = logits.size() / count;
    const std::vector<int> labels = test.LabelBatch(task, start, count);
    for (int64_t i = 0; i < count; ++i) {
      hits += Argmax(logits.data() + i * classes, classes) == labels[static_cast<size_t>(i)];
    }
  }
  return static_cast<double>(hits) / static_cast<double>(test.size());
}

// Training samples per second of src/nn on the found graph, trained the way
// distillation fine-tuning trains a candidate: Forward in training mode, L1
// loss to the teachers' logits, Backward and an Adam step per batch of the
// search's fine-tuning batch size. Each batch is timed on its own and the
// rate is taken at the batch time's kLatencyQuantile, as engine latencies are.
double TrainSamplesPerSecond(const gmorph::AbsGraph& graph,
                             const std::vector<gmorph::TaskModel*>& teachers,
                             const gmorph::MultiTaskDataset& train,
                             const gmorph::FinetuneOptions& finetune) {
  const int64_t n = train.size();
  // targets[b][t]: teacher t's logits on batch b.
  std::vector<std::vector<Tensor>> targets;
  for (int64_t start = 0; start < n; start += finetune.batch_size) {
    const Tensor x = train.InputBatch(start, std::min(finetune.batch_size, n - start));
    targets.emplace_back();
    for (gmorph::TaskModel* teacher : teachers) {
      targets.back().push_back(teacher->Forward(x, /*training=*/false));
    }
  }
  gmorph::Rng rng(kInstance * 53 + 5);
  gmorph::MultiTaskModel student(graph, rng);
  gmorph::Adam optimizer(student.Parameters(), finetune.lr);
  std::vector<double> samples_per_s;
  for (int epoch = 0; epoch < kThroughputEpochs; ++epoch) {
    for (size_t b = 0; b < targets.size(); ++b) {
      const int64_t start_ns = NowNs();
      const int64_t start = static_cast<int64_t>(b) * finetune.batch_size;
      const int64_t count = std::min(finetune.batch_size, n - start);
      const std::vector<Tensor> outs =
          student.Forward(train.InputBatch(start, count), /*training=*/true);
      std::vector<Tensor> grads(outs.size());
      for (size_t t = 0; t < outs.size(); ++t) {
        gmorph::L1Loss(outs[t], targets[b][t], grads[t]);
      }
      student.Backward(grads);
      optimizer.Step();
      samples_per_s.push_back(static_cast<double>(count) / (MsSince(start_ns) / 1e3));
    }
  }
  return Quantile(samples_per_s, 1.0 - kLatencyQuantile);
}

}  // namespace

void RunSearchB1(const Args& args, Report& report) {
  gmorph::BenchmarkDef def = gmorph::MakeBenchmark(1, SearchScale(), kInstance * 1000 + 1);
  gmorph::Rng rng(kInstance * 977 + 13);
  std::vector<std::unique_ptr<gmorph::TaskModel>> teachers;
  std::vector<gmorph::TaskModel*> teacher_ptrs;
  const int64_t train_start = NowNs();
  for (size_t t = 0; t < def.tasks.size(); ++t) {
    teachers.push_back(std::make_unique<gmorph::TaskModel>(def.tasks[t].model, rng));
    gmorph::TeacherTrainOptions opts;
    opts.epochs = kTeacherEpochs;
    LayerSpan span("pb/data/TrainTeacher");
    gmorph::TrainTeacher(*teachers.back(), def.train, def.test, t, opts);
    teacher_ptrs.push_back(teachers.back().get());
  }
  report.Metric("data.teacher_train_s", MsSince(train_start) / 1e3, "s");

  const gmorph::GMorphOptions options = SearchOptions(args);
  gmorph::GMorph gm(teacher_ptrs, &def.train, &def.test, options);
  report.Metric("setup_s", SetupSeconds(args), "s");
  gmorph::GMorphResult result;
  {
    LayerSpan span("pb/core/GMorph::Run");
    const int64_t start = NowNs();
    result = gm.Run();
    report.Metric("latency_ms", MsSince(start), "ms");
  }

  int met = 0, rejected = 0, filtered = 0, early = 0, duplicates = 0;
  for (const gmorph::IterationRecord& r : result.trace) {
    met += r.met_target;
    rejected += r.rejected_by_verifier;
    filtered += r.filtered_by_rule;
    early += r.terminated_early;
    duplicates += r.duplicate;
  }
  report.Metric("core.search.met_target", met, "count");
  report.Metric("core.search.verifier_rejects", rejected, "count");
  report.Metric("core.search.rule_filtered", filtered, "count");
  report.Metric("core.search.early_terminated", early, "count");
  report.Metric("core.search.duplicates", duplicates, "count");
  report.Metric("core.search.useful_ratio",
                static_cast<double>(met) / static_cast<double>(result.trace.size()), "ratio");
  report.AddAttempted(static_cast<int64_t>(result.trace.size()));
  report.Metric("throughput_per_s",
                TrainSamplesPerSecond(result.best_graph, teacher_ptrs, def.train,
                                      options.finetune),
                "1/s");

  // Deploy the found graph the way a user would: save, reload, verify.
  report.AddAttempted(1);
  const std::string path = args.run_dir + "/found.gmorph";
  gmorph::GraphLoadResult loaded;
  if (report.Check(gmorph::SaveGraph(path, result.best_graph), "saving the found graph failed")) {
    loaded = gmorph::TryLoadGraph(path);
  }
  if (!report.Check(loaded.ok(), "reloading the found graph failed")) {
    report.AddFailed(1);
    return;
  }
  gmorph::AbsGraph& found_graph = *loaded.graph;
  if (args.inject == "corrupt-shape") {
    gmorph::Shape& shape = found_graph.mutable_node(1).output_shape;
    shape = shape.WithBatch(2);
  }
  gmorph::GraphVerifyOptions verify;
  verify.roundtrip = true;
  if (!report.Check(gmorph::VerifyGraph(found_graph, verify).ok(),
                    "the found graph fails the GraphVerifier")) {
    report.AddFailed(1);
    return;
  }
  if (args.inject == "over-budget") {
    for (int id = 0; id < found_graph.size(); ++id) {
      if (found_graph.node(id).IsHead()) {
        for (Tensor& w : found_graph.mutable_node(id).weights) {
          w = Tensor::Zeros(w.shape());
        }
      }
    }
  }

  const double orig_flops = static_cast<double>(gm.original_graph().TotalFlops());
  double found_flops = static_cast<double>(found_graph.TotalFlops());
  if (args.inject == "more-flops") {
    found_flops = orig_flops * 1.5;
  }
  report.Metric("core.search.orig_mflops", orig_flops / 1e6, "MFLOP");
  report.Metric("core.search.found_mflops", found_flops / 1e6, "MFLOP");
  report.Metric("flops_speedup", orig_flops / found_flops, "x");
  report.Metric("model.mflops", found_flops / 1e6, "MFLOP");
  if (!report.Check(found_flops <= orig_flops,
                    "the found graph has more FLOPs than the original")) {
    report.AddFailed(1);
  }

  gmorph::Rng model_rng(kInstance * 31 + 7);
  gmorph::MultiTaskModel found(found_graph, model_rng);
  std::vector<double> plan_build_ms;
  auto build_engine = [&plan_build_ms](gmorph::MultiTaskModel* model) {
    LayerSpan span("pb/runtime/FusedEngine");
    const int64_t start = NowNs();
    auto built = std::make_unique<gmorph::FusedEngine>(model);
    plan_build_ms.push_back(MsSince(start));
    return built;
  };
  std::unique_ptr<gmorph::FusedEngine> engine = build_engine(&found);

  // Every test row, in an order drawn from the seed: the timed inputs are the
  // same on every seed, so row-dependent run time cannot move the figure.
  std::vector<Tensor> rows;
  for (int64_t r = 0; r < def.test.size(); ++r) {
    rows.push_back(def.test.InputBatch(r, 1));
  }
  gmorph::Rng order_rng(args.seed);
  for (size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[static_cast<size_t>(order_rng.NextInt(static_cast<int>(i + 1)))]);
  }
  // The original graph on the same engine, timed interleaved with the found
  // one: how fast this process's vCPU runs moves both alike (runtime.b1_ms read
  // 0.39 ms in some processes and 0.57-0.66 ms in others), so their ratio is
  // the steady figure.
  gmorph::MultiTaskModel original(gm.original_graph(), model_rng);
  std::unique_ptr<gmorph::FusedEngine> original_engine = build_engine(&original);
  report.Metric("runtime.plan_build_ms", Median(plan_build_ms), "ms");
  engine->Run(rows[0]);
  original_engine->Run(rows[0]);
  engine->ResetProfile();
  std::vector<double> found_ms;
  std::vector<double> original_ms;
  for (int pass = 0; pass < kFoundPasses; ++pass) {
    for (const Tensor& row : rows) {
      LayerSpan span("pb/runtime/Run");
      int64_t start = NowNs();
      engine->Run(row);
      found_ms.push_back(MsSince(start));
      start = NowNs();
      original_engine->Run(row);
      original_ms.push_back(MsSince(start));
    }
  }
  const double found_b1 = Quantile(found_ms, kLatencyQuantile);
  report.Metric("runtime.b1_ms", found_b1, "ms");
  report.Metric("speedup_x", Quantile(original_ms, kLatencyQuantile) / found_b1, "x");
  {
    LayerSpan span("pb/runtime/Profile");
    const std::vector<gmorph::FusedEngine::StepProfile> profile = engine->Profile();
    KernelWork kernels;
    kernels.Add(profile, static_cast<double>(found_ms.size()));
    report.Metric("kernels.gflops", kernels.Gflops(), "GFLOP/s");
    report.Metric("runtime.attributed_flops_share", AttributedFlopsShare(profile, found_flops),
                  "ratio");
  }
  report.AddAttempted(static_cast<int64_t>(found_ms.size() + original_ms.size()));

  LayerSpan span("pb/bench/check");
  std::vector<double> eager_ms;
  for (const Tensor& row : rows) {
    const int64_t start = NowNs();
    found.Forward(row, /*training=*/false);
    eager_ms.push_back(MsSince(start));
  }
  report.Metric("nn.forward_b1_ms", Quantile(eager_ms, kLatencyQuantile), "ms");
  for (size_t t = 0; t < def.tasks.size(); ++t) {
    const double teacher = Accuracy(def.test, t, [&](const Tensor& x) {
      return teacher_ptrs[t]->Forward(x, /*training=*/false);
    });
    const double fused = Accuracy(def.test, t, [&](const Tensor& x) {
      return found.Forward(x, /*training=*/false)[t];
    });
    report.Check(def.tasks[t].metric == gmorph::MetricKind::kAccuracy,
                 "B1 task " + std::to_string(t) + " is not scored by accuracy");
    report.AddAttempted(1);
    if (!report.Check(fused >= teacher - kDropBudget - 1e-9,
                      "task " + std::to_string(t) + ": found graph scores " +
                          std::to_string(fused) + " against teacher " + std::to_string(teacher) +
                          ", over the 1% budget")) {
      report.AddFailed(1);
    }
  }
  const Tensor batch = def.test.InputBatch(0, kEvalBatch);
  const std::vector<Tensor> eager = found.Forward(batch, /*training=*/false);
  std::vector<Tensor> fused;
  for (const Tensor& t : engine->Run(batch)) {
    fused.push_back(t.Clone());
  }
  if (args.inject == "fused-mismatch") {
    fused[0].at(0) += 0.05f;
  }
  report.AddAttempted(1);
  bool fused_ok = true;
  for (size_t t = 0; t < eager.size(); ++t) {
    for (int64_t r = 0; r < kEvalBatch; ++r) {
      fused_ok &= report.Check(RowErr(fused[t], r, eager[t], r, kAtol, kRtol) <= 1.0,
                               "task " + std::to_string(t) + " row " + std::to_string(r) +
                                   ": FusedEngine output of the found graph differs from eager");
    }
  }
  report.AddFailed(fused_ok ? 0 : 1);
}

}  // namespace perfbench
