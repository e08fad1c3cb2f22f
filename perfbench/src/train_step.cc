#include "train_step.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/sgcl_model.h"
#include "data/prefetcher.h"
#include "nn/gin_inference.h"
#include "tensor/optimizer.h"

namespace perfbench {

sgcl::Status TimedSource::Fetch(std::span<const int64_t> indices,
                                sgcl::FetchedGraphs* out) const {
  Span span("data/fetch");
  const auto t0 = Clock::now();
  sgcl::Status st = inner_->Fetch(indices, out);
  const double dt = SecondsSince(t0);
  std::lock_guard<std::mutex> lock(mu_);
  fetch_seconds_.push_back(dt);
  return st;
}

std::vector<double> TimedSource::fetch_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fetch_seconds_;
}

namespace {

std::vector<std::vector<int64_t>> EpochBatches(const sgcl::GraphSource& source,
                                               int batch_size, sgcl::Rng* rng) {
  std::vector<sgcl::IndexRange> blocks = source.FetchBlocks();
  for (size_t i = blocks.size(); i > 1; --i) {
    std::swap(blocks[i - 1],
              blocks[static_cast<size_t>(rng->UniformInt(static_cast<int64_t>(i)))]);
  }
  std::vector<std::vector<int64_t>> batches;
  for (const sgcl::IndexRange& block : blocks) {
    std::vector<int64_t> order;
    for (int64_t i = block.begin; i < block.end; ++i) order.push_back(i);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(rng->UniformInt(static_cast<int64_t>(i)))]);
    }
    for (size_t start = 0; start + 1 < order.size();
         start += static_cast<size_t>(batch_size)) {
      const size_t end =
          std::min(order.size(), start + static_cast<size_t>(batch_size));
      if (end - start < 2) break;  // InfoNCE needs a negative
      batches.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(start),
                           order.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return batches;
}

}  // namespace

sgcl::Status ReplaySteps(const sgcl::SgclConfig& config,
                         const sgcl::GraphSource& source, uint64_t seed,
                         double budget_s, int min_steps, StepReplay* out) {
  sgcl::Rng rng(seed);
  sgcl::SgclModel model(config, &rng);
  sgcl::Adam optimizer(model.Parameters(), config.learning_rate);
  const std::vector<sgcl::GinLayerParams> layers =
      sgcl::GinInferencePlan::Build(model.encoder_k()).layers();
  sgcl::Counter* generator_us =
      sgcl::MetricsRegistry::Global().GetCounter("time/generator_us");
  sgcl::Counter* matmul_flops =
      sgcl::MetricsRegistry::Global().GetCounter("tensor/matmul_flops");
  sgcl::PrefetcherOptions prefetch;
  prefetch.depth = 2;
  sgcl::BatchPrefetcher prefetcher(&source, prefetch);
  const auto start = Clock::now();
  int steps = 0;
  while (steps < min_steps || SecondsSince(start) < budget_s) {
    std::vector<std::vector<int64_t>> batches =
        EpochBatches(source, config.batch_size, &rng);
    if (batches.empty()) {
      return sgcl::Status::InvalidArgument("step replay: no batch of 2 graphs");
    }
    prefetcher.BeginEpoch(std::move(batches));
    while (prefetcher.remaining() > 0 &&
           (steps < min_steps || SecondsSince(start) < budget_s)) {
      Span step_span("train/step");
      const auto t0 = Clock::now();
      auto fetched = [&] {
        Span span("data/next");
        return prefetcher.Next();
      }();
      const auto t1 = Clock::now();
      if (!fetched.ok()) return fetched.status();
      optimizer.ZeroGrad();
      const int64_t gen_before = generator_us->value();
      const int64_t flops_before = matmul_flops->value();
      sgcl::Tensor loss = [&] {
        Span span("core/compute_loss");
        return model.ComputeLoss(fetched->graphs(), &rng);
      }();
      const int64_t gen_after = generator_us->value();
      const int64_t flops_after = matmul_flops->value();
      const auto t2 = Clock::now();
      {
        Span span("tensor/backward");
        loss.Backward();
      }
      const auto t3 = Clock::now();
      {
        Span span("tensor/optimizer");
        optimizer.ClipGradNorm(config.grad_clip);
        optimizer.Step();
      }
      const auto t4 = Clock::now();
      if (!std::isfinite(loss.item())) out->losses_finite = false;
      auto secs = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
      };
      out->step_s.push_back(secs(t0, t4));
      out->next_s.push_back(secs(t0, t1));
      out->loss_s.push_back(secs(t1, t2));
      out->backward_s.push_back(secs(t2, t3));
      out->optimizer_s.push_back(secs(t3, t4));
      out->generator_s.push_back(static_cast<double>(gen_after - gen_before) *
                                 1e-6);
      int64_t nodes = 0;
      for (const sgcl::Graph* g : fetched->graphs()) nodes += g->num_nodes();
      const double num_graphs = static_cast<double>(fetched->size());
      double backward_macs = 0.0;
      const OpCount fwd =
          TapeLossCount(layers, config, static_cast<double>(nodes), num_graphs,
                        &backward_macs);
      out->forward_macs += fwd.macs;
      out->forward_bytes += fwd.bytes;
      out->backward_macs += backward_macs;
      out->tallied_forward_macs +=
          static_cast<double>(flops_after - flops_before) / 2.0;
      out->graphs += fetched->size();
      out->nodes += nodes;
      ++steps;
    }
  }
  return sgcl::Status::OK();
}

void ReportStepReplay(const StepReplay& r,
                      const std::vector<double>& fetch_seconds, Outcome* out) {
  const double steps = static_cast<double>(r.step_s.size());
  if (steps == 0) return;
  out->Check(r.losses_finite, "step replay losses are finite");
  // The shape model must reproduce the library's own matmul tally.
  out->Check(std::abs(r.forward_macs - r.tallied_forward_macs) <=
                 1e-9 * r.tallied_forward_macs,
             "computed forward MACs equal tensor/matmul_flops / 2");
  const double loss_s = Sum(r.loss_s);
  const double generator_s = Sum(r.generator_s);
  const double forward_s = std::max(0.0, loss_s - generator_s);
  const double backward_s = Sum(r.backward_s);
  out->Metric("core.step_ms_p50", 1e3 * Median(r.step_s), "ms");
  out->Metric("core.step_ms_p99", 1e3 * Quantile(r.step_s, 0.99), "ms");
  out->Metric("core.generator_share_pct", 100.0 * generator_s / Sum(r.step_s),
              "%");
  out->Metric("nn.forward_ms_per_step", 1e3 * forward_s / steps, "ms");
  out->Metric("tensor.backward_ms_per_step", 1e3 * backward_s / steps, "ms");
  out->Metric("tensor.optimizer_ms_per_step", 1e3 * Mean(r.optimizer_s), "ms");
  if (forward_s > 0.0) {
    out->Metric("nn.forward_gmacs_per_s", r.forward_macs / forward_s * 1e-9,
                "GMAC/s");
  }
  if (backward_s > 0.0) {
    out->Metric("tensor.backward_gmacs_per_s",
                r.backward_macs / backward_s * 1e-9, "GMAC/s");
  }
  out->Metric("nn.forward_mmacs_per_step", r.forward_macs / steps * 1e-6,
              "MMAC");
  out->Metric("nn.forward_mb_per_step", r.forward_bytes / steps * 1e-6, "MB");
  out->Metric("data.prefetch_stall_ms", 1e3 * Mean(r.next_s), "ms");
  out->Metric("data.fetch_us_p50", 1e6 * Median(fetch_seconds), "us");
  out->Metric("data.fetch_us_p99", 1e6 * Quantile(fetch_seconds, 0.99), "us");
  out->Display("replayed steps", steps, "count",
               "batch graphs " + std::to_string(r.graphs / r.step_s.size()));
  out->Display("tape forward MACs (shape model)", r.forward_macs, "MAC");
  out->Display("tape forward MACs (matmul tally)", r.tallied_forward_macs,
               "MAC");
}

}  // namespace perfbench
