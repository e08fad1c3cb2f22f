// Command-line workflow tool:
//   sgcl_cli generate  --dataset=MUTAG --out=ds [--graphs=N]
//                      [--node-cap=C] [--seed=S]
//   sgcl_cli info      --data=ds
//   sgcl_cli pretrain  --data=ds --out=model.ckpt [--epochs=N]
//                      [--arch=gin|gcn|gat|sage] [--hidden=H] [--layers=L]
//                      [--batch=B] [--seed=S] [--metrics-out=metrics.jsonl]
//                      [--trace-out=trace.json] [--checkpoint-dir=DIR]
//                      [--checkpoint-every=K] [--checkpoint-keep=N]
//                      [--checkpoint-every-batches=B] [--resume]
//                      pretrain streams the store (generate or shard_writer
//                      output) from disk; peak memory stays bounded by the
//                      shard cache + prefetch depth, not the corpus size
//   sgcl_cli evaluate  --data=ds --model=model.ckpt [--folds=K] [--seed=S]
//   sgcl_cli scores    --data=ds --model=model.ckpt [--graph=I]
//   sgcl_cli serve     --model=model.ckpt [--http-port=P] [--http-threads=N]
//                      [--max-batch-graphs=G] [--max-batch-nodes=V]
//                      [--max-queue=Q] [--max-request-graphs=G]
//                      [--max-request-nodes=V] [--duration-s=S]
//                      serves POST /v1/embed and /v1/predict through the
//                      dynamic micro-batcher (serve/service.h); runs until
//                      SIGINT/SIGTERM unless --duration-s > 0. The model is
//                      read here, before serving starts — request handlers
//                      never touch the filesystem (lint rule sgcl-R7)
//
// Datasets are graph stores (data/shard_store.h): a directory holding a
// manifest and its shards. `generate` writes a one-shard store. A model
// file (pretrain --out or any --checkpoint-dir file) carries its config:
// evaluate, scores and serve build the model from it.
//
// Every command supports --help. Flags are typed (common/flags.h):
// malformed values ("--epochs=abc"), unknown flags, and positional
// arguments are errors, not silent defaults.
//
// Observability (pretrain): --metrics-out streams one JSON object per
// epoch (loss, wall seconds, per-stage seconds) plus a final line
// embedding the full metrics-registry snapshot; --trace-out writes the
// trace ring (the last --trace-ring-size sampled batches) as a
// chrome://tracing / Perfetto-loadable span file, whose per-stage self
// times `trace_report` tabulates;
// --log-json appends structured JSONL log records; --http-port serves
// live /metrics /healthz /status /trace for the duration of the run.
// Every sink and endpoint is stamped with one generated run id so the
// exports of a run correlate. Sink paths are validated up front: an
// unwritable --metrics-out/--trace-out/--log-json fails before any
// training work starts.
//
// Crash safety (pretrain): --checkpoint-dir saves an atomic training
// checkpoint every --checkpoint-every epochs (keeping the newest
// --checkpoint-keep); --resume restarts from the latest checkpoint in
// that directory — or from scratch when there is none — and replays the
// remaining epochs with bitwise-identical losses (core/train_state.h).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <thread>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comms/allreduce.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/sgcl_trainer.h"
#include "core/train_state.h"
#include "data/shard_store.h"
#include "data/synthetic_tu.h"
#include "eval/cross_validation.h"
#include "graph/graph_source.h"
#include "serve/service.h"

namespace sgcl {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Shared outcome of FlagSet::Parse: -1 to proceed, 0 for --help, 1 for a
// parse error.
int HandleParse(const FlagSet& flags, const Status& st) {
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }
  return -1;
}

Result<TuDataset> DatasetByName(const std::string& name) {
  for (TuDataset which : AllTuDatasets()) {
    if (GetTuConfig(which).name == name) return which;
  }
  return Status::NotFound("unknown dataset " + name +
                          " (try MUTAG, DD, PROTEINS, NCI1, COLLAB, RDT-B, "
                          "RDT-M-5K, IMDB-B)");
}

// Model-shape and schedule flags: pretrain's alone. Inference commands
// read the config from the model file.
struct TrainFlags {
  std::string arch = "gin";
  int hidden = 32;
  int layers = 3;
  int epochs = 20;
  int batch = 16;

  void Register(FlagSet* flags) {
    flags->String("arch", &arch, "encoder architecture: gin|gcn|gat|sage");
    flags->Int("hidden", &hidden, "encoder hidden dimension");
    flags->Int("layers", &layers, "encoder message-passing layers");
    flags->Int("epochs", &epochs, "pretraining epochs");
    flags->Int("batch", &batch, "minibatch size (graphs)");
  }

  Result<SgclConfig> ToConfig(int64_t feat_dim) const {
    SgclConfig cfg = MakeUnsupervisedConfig(feat_dim);
    if (arch == "gin") {
      cfg.encoder.arch = GnnArch::kGin;
    } else if (arch == "gcn") {
      cfg.encoder.arch = GnnArch::kGcn;
    } else if (arch == "gat") {
      cfg.encoder.arch = GnnArch::kGat;
    } else if (arch == "sage") {
      cfg.encoder.arch = GnnArch::kSage;
    } else {
      return Status::InvalidArgument("--arch must be gin|gcn|gat|sage, got " +
                                     arch);
    }
    cfg.encoder.hidden_dim = hidden;
    cfg.proj_dim = hidden;
    cfg.encoder.num_layers = layers;
    cfg.epochs = epochs;
    cfg.batch_size = batch;
    SGCL_RETURN_NOT_OK(cfg.Validate());
    return cfg;
  }
};

// Shared validation for the request/batch tracing flags. Fail-fast:
// a typo'd rate is a clean error before any work starts.
Status ValidateTraceFlags(double sample_rate, int64_t ring_size) {
  if (sample_rate < 0.0 || sample_rate > 1.0) {
    return Status::InvalidArgument(
        "--trace-sample-rate must be in [0, 1], got " +
        std::to_string(sample_rate));
  }
  if (ring_size < 1) {
    return Status::InvalidArgument(
        "--trace-ring-size must be >= 1, got " + std::to_string(ring_size));
  }
  return Status::OK();
}

// Observability wiring for pretrain.
struct ObservabilityFlags {
  std::string metrics_out;
  std::string trace_out;
  std::string log_json;
  int http_port = -1;
  double trace_sample_rate = 0.0;
  int64_t trace_ring_size = 256;

  void Register(FlagSet* flags) {
    flags->String("metrics-out", &metrics_out,
                  "write per-epoch metrics as JSONL to this path "
                  "(truncates an existing file)");
    flags->String("trace-out", &trace_out,
                  "write the trace ring as a chrome://tracing span file to "
                  "this path at the end of the run: the last "
                  "--trace-ring-size sampled batches (every batch when "
                  "--trace-sample-rate is 0; truncates an existing file)");
    flags->String("log-json", &log_json,
                  "append structured JSONL log records to this path "
                  "(appends across runs; correlate by run_id; also lowers "
                  "the log level to info)");
    flags->Int("http-port", &http_port,
               "serve live telemetry on 127.0.0.1:<port> for the duration "
               "of the run (/metrics /healthz /status /trace /v1/traces; "
               "/trace and /v1/traces hold only batches sampled by "
               "--trace-sample-rate or --trace-out); 0 picks an ephemeral "
               "port, -1 disables");
    flags->Double("trace-sample-rate", &trace_sample_rate,
                  "sample this fraction of training batches into the "
                  "in-memory trace ring (deterministic every-Nth, never "
                  "touches the training RNG; 0 disables, or samples every "
                  "batch when --trace-out is set; span trees at "
                  "/v1/traces when --http-port is set)");
    flags->Int64("trace-ring-size", &trace_ring_size,
                 "capacity of the in-memory trace ring, in traces "
                 "(oldest evicted first)");
  }
};

// Checkpoint/resume wiring for pretrain (core/train_state.h).
struct CheckpointFlags {
  std::string dir;
  int every = 1;
  int keep = 3;
  int64_t every_batches = 0;
  bool resume = false;

  void Register(FlagSet* flags) {
    flags->String("checkpoint-dir", &dir,
                  "save an atomic training checkpoint into this directory "
                  "(created if missing); empty disables checkpointing");
    flags->Int("checkpoint-every", &every,
               "save a checkpoint every K completed epochs (the final "
               "epoch is always checkpointed)");
    flags->Int("checkpoint-keep", &keep,
               "retain only the N newest checkpoints; 0 keeps all");
    flags->Int64("checkpoint-every-batches", &every_batches,
                 "additionally checkpoint inside each epoch after every B "
                 "completed batches (0 disables; mid-epoch checkpoints "
                 "resume bitwise-exactly)");
    flags->Bool("resume", &resume,
                "resume from the latest checkpoint in --checkpoint-dir "
                "(starts fresh when the directory has none)");
  }

  // `flags` is the parsed command line: without --checkpoint-dir, a set
  // checkpoint flag would be silently ignored, so it is an error.
  Status Validate(const FlagSet& flags) const {
    for (const char* name : {"checkpoint-every", "checkpoint-keep",
                             "checkpoint-every-batches", "resume"}) {
      if (dir.empty() && flags.IsSet(name)) {
        return Status::InvalidArgument(
            StrFormat("--%s requires --checkpoint-dir", name));
      }
    }
    if (keep < 0) {
      return Status::InvalidArgument(StrFormat(
          "--checkpoint-keep must be >= 0 (0 keeps all), got %d", keep));
    }
    return Status::OK();
  }

  // Fills PretrainOptions' checkpoint fields, resolving --resume to a
  // concrete checkpoint path. A missing directory or empty directory
  // with --resume starts fresh; any other lookup failure is an error.
  Status Apply(PretrainOptions* options) const {
    if (dir.empty()) return Status::OK();
    options->checkpoint_dir = dir;
    options->checkpoint_every = every;
    options->checkpoint_keep_last = keep;
    options->checkpoint_every_batches = every_batches;
    if (resume) {
      Result<std::string> latest = FindLatestCheckpoint(dir);
      if (latest.ok()) {
        options->resume_from = *latest;
        std::printf("resuming from %s\n", latest->c_str());
      } else if (latest.status().code() == StatusCode::kNotFound) {
        std::printf("no checkpoint under %s, starting fresh\n", dir.c_str());
      } else {
        return latest.status();
      }
    }
    return Status::OK();
  }
};

// Multi-process data-parallel pretraining flags (comms/allreduce.h).
// --workers=0 keeps the historical single-process loop; --workers=N
// runs this process as worker --rank of N, all-reducing gradients with
// the coordinator each round. Rank 0's process hosts the coordinator.
struct DistributedFlags {
  int workers = 0;
  int rank = 0;
  int coordinator_port = 0;
  int grad_accum = 8;
  int allreduce_timeout_ms = 60000;

  void Register(FlagSet* flags) {
    flags->Int("workers", &workers,
               "data-parallel worker count; 0 disables distributed mode. "
               "Losses are bitwise-identical for every worker count");
    flags->Int("rank", &rank, "this process's rank in [0, --workers)");
    flags->Int("coordinator-port", &coordinator_port,
               "all-reduce coordinator port: rank 0 binds it (0 picks an "
               "ephemeral port, printed as 'coordinator: ...'); other "
               "ranks connect to it (required)");
    flags->Int("grad-accum", &grad_accum,
               "global batches reduced into one optimizer step (the "
               "distributed round width; must be >= --workers)");
    flags->Int("allreduce-timeout-ms", &allreduce_timeout_ms,
               "per-operation comms deadline; bounds how long a round "
               "waits for a straggler or a restarting worker");
  }

  // `flags` is the parsed command line: without --workers, a set
  // distributed flag would be silently ignored, so it is an error.
  Status Validate(const FlagSet& flags) const {
    if (workers < 0) {
      return Status::InvalidArgument("--workers must be >= 0");
    }
    if (workers == 0) {
      for (const char* name : {"rank", "coordinator-port", "grad-accum",
                               "allreduce-timeout-ms"}) {
        if (flags.IsSet(name)) {
          return Status::InvalidArgument(
              StrFormat("--%s requires --workers >= 1", name));
        }
      }
      return Status::OK();
    }
    if (grad_accum < workers) {
      return Status::InvalidArgument(
          StrFormat("--grad-accum %d must be >= --workers = %d", grad_accum,
                    workers));
    }
    if (rank < 0 || rank >= workers) {
      return Status::InvalidArgument(StrFormat(
          "--rank %d outside [0, %d)", rank, workers));
    }
    if (rank != 0 && coordinator_port <= 0) {
      return Status::InvalidArgument(
          "--coordinator-port is required for ranks > 0 (rank 0 prints "
          "the port it bound)");
    }
    return Status::OK();
  }
};

// Everything ObservedPretrain needs to run the distributed path:
// the worker options plus (rank 0 only) the coordinator's schedule.
struct DistributedRun {
  DistributedPretrainOptions options;
  AllReduceSchedule schedule;  // rank 0: validated against every HELLO
  int cache_rounds = 64;
};

// Detaches (but does not own) a log sink on scope exit, covering every
// early-return path out of ObservedPretrain.
struct LogSinkGuard {
  explicit LogSinkGuard(LogSink* sink) : sink(sink) {
    if (sink != nullptr) AddLogSink(sink);
  }
  ~LogSinkGuard() {
    if (sink != nullptr) RemoveLogSink(sink);
  }
  LogSink* sink;
};

std::string EpochReportJson(const EpochReport& r) {
  std::string json = "{\"epoch\":" + std::to_string(r.epoch) +
                     ",\"total_epochs\":" + std::to_string(r.total_epochs) +
                     ",\"loss\":" + JsonDouble(r.mean_loss) +
                     ",\"seconds\":" + JsonDouble(r.seconds) +
                     ",\"batches\":" + std::to_string(r.batches) +
                     ",\"stages\":{";
  bool first = true;
  for (const auto& [stage, secs] : r.stage_seconds) {
    if (!first) json += ",";
    first = false;
    json += '"';
    json += JsonEscape(stage);
    json += "\":";
    json += JsonDouble(secs);
  }
  json += "}}";
  return json;
}

// Runs Pretrain with the observability sinks and (optionally) the live
// telemetry endpoint attached. `command` labels the run in /status and
// log records.
Result<PretrainStats> ObservedPretrain(SgclTrainer* trainer,
                                       const GraphSource& source,
                                       const ObservabilityFlags& obs,
                                       const char* command, int total_epochs,
                                       const CheckpointFlags& ckpt,
                                       DistributedRun* dist) {
  SetRunId(GenerateRunId());
  // Fail fast: every sink path is validated here, before training starts,
  // so a typo'd directory is a clean error instead of lost work at the
  // final write.
  std::ofstream metrics_stream;
  if (!obs.metrics_out.empty()) {
    metrics_stream.open(obs.metrics_out, std::ios::trunc);
    if (!metrics_stream) {
      return Status::InvalidArgument("cannot open --metrics-out file " +
                                     obs.metrics_out);
    }
  }
  if (!obs.trace_out.empty()) {
    // Probe in append mode: proves writability without clobbering the
    // previous trace if this run dies before the final (truncating) write.
    std::ofstream probe(obs.trace_out, std::ios::app);
    if (!probe) {
      return Status::InvalidArgument("cannot open --trace-out file " +
                                     obs.trace_out);
    }
  }
  std::unique_ptr<JsonlLogSink> log_sink;
  if (!obs.log_json.empty()) {
    SGCL_ASSIGN_OR_RETURN(log_sink, JsonlLogSink::Open(obs.log_json));
    if (GetLogLevel() > LogLevel::kInfo) SetLogLevel(LogLevel::kInfo);
  }
  LogSinkGuard sink_guard(log_sink.get());

  SGCL_RETURN_NOT_OK(
      ValidateTraceFlags(obs.trace_sample_rate, obs.trace_ring_size));
  // --trace-out dumps the ring, so on its own (rate left at 0) it
  // samples every batch.
  TraceRing::Global().SetSampleRate(
      !obs.trace_out.empty() && obs.trace_sample_rate == 0.0
          ? 1.0
          : obs.trace_sample_rate);
  TraceRing::Global().SetCapacity(static_cast<size_t>(obs.trace_ring_size));
  TraceRing::Global().Clear();  // per-run isolation, like the metrics
  MetricsRegistry::Global().Reset();  // per-run isolation

  RunStatusBoard board;
  // Before the coordinator starts: BeginRun resets the worker rows it
  // reports.
  board.BeginRun(command, total_epochs);
  TelemetryServer server;
  if (obs.http_port >= 0) {
    SGCL_RETURN_NOT_OK(server.Start(obs.http_port, &board));
    // The smoke scripts parse this line to find an ephemeral port.
    std::printf("telemetry: http://127.0.0.1:%d run_id %s\n", server.port(),
                GetRunId().c_str());
    std::fflush(stdout);
  }
  // Rank 0 of a distributed run hosts the reduction coordinator; its
  // per-worker rows feed this run's /status board.
  std::unique_ptr<AllReduceCoordinator> coordinator;
  if (dist != nullptr && dist->options.rank == 0) {
    AllReduceCoordinatorOptions coord_options;
    coord_options.schedule = dist->schedule;
    coord_options.cache_rounds = dist->cache_rounds;
    coord_options.status_board = &board;
    coordinator = std::make_unique<AllReduceCoordinator>(coord_options);
    SGCL_RETURN_NOT_OK(coordinator->Start(dist->options.coordinator_port));
    dist->options.coordinator_port = coordinator->port();
    // The smoke scripts and worker launchers parse this line.
    std::printf("coordinator: 127.0.0.1:%d\n", coordinator->port());
    std::fflush(stdout);
  }
  SGCL_LOG(INFO) << command << " started: run " << GetRunId() << ", "
                 << source.size() << " graphs, " << total_epochs
                 << " epochs";

  PretrainOptions options;
  options.on_epoch_end = [&](const EpochReport& report) {
    if (metrics_stream.is_open()) {
      metrics_stream << EpochReportJson(report) << "\n";
    }
    board.RecordEpoch(report.epoch, report.total_epochs, report.mean_loss,
                      report.seconds, report.stage_seconds);
    SGCL_LOG(INFO) << command << " epoch " << report.epoch + 1 << "/"
                   << report.total_epochs << " loss " << report.mean_loss;
    std::printf("epoch %d/%d: loss %.4f (%.2fs)\n", report.epoch + 1,
                report.total_epochs, report.mean_loss, report.seconds);
    std::fflush(stdout);
  };
  SGCL_RETURN_NOT_OK(ckpt.Apply(&options));
  options.on_checkpoint = [&](const CheckpointReport& report) {
    board.RecordCheckpoint(report.path, report.seconds);
    SGCL_LOG(INFO) << command << " checkpoint " << report.path << " ("
                   << report.seconds << "s)";
  };
  Result<PretrainStats> stats =
      dist != nullptr
          ? trainer->PretrainDistributed(source, {}, options, dist->options)
          : trainer->Pretrain(source, {}, options);
  if (coordinator != nullptr) {
    // Drain before teardown: tearing the coordinator down while other
    // workers are still fetching their last rounds would fail them.
    if (stats.ok() &&
        !coordinator->WaitForGoodbyes(
            dist->options.world_size, dist->options.allreduce_timeout_ms)) {
      SGCL_LOG(WARNING) << "coordinator: not all " << dist->options.world_size
                        << " workers said goodbye before the deadline";
    }
    coordinator->Stop();
  }
  board.EndRun(stats.ok());
  SGCL_LOG(INFO) << command << " finished: run " << GetRunId()
                 << (stats.ok() ? " ok" : " failed");
  if (!obs.trace_out.empty()) {
    SGCL_RETURN_NOT_OK(TraceRing::Global().WriteChromeTrace(obs.trace_out));
    std::printf("wrote %s (%zu traces)\n", obs.trace_out.c_str(),
                TraceRing::Global().Traces().size());
  }
  if (metrics_stream.is_open()) {
    // Final record: whole-run totals plus the full registry snapshot.
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    std::string tail = "{\"final\":true,\"run_id\":\"" +
                       JsonEscape(GetRunId()) + "\"";
    if (stats.ok()) {
      tail += ",\"total_seconds\":" + JsonDouble(stats->total_seconds) +
              ",\"total_batches\":" + std::to_string(stats->total_batches);
    }
    tail += ",\"metrics\":" + snap.ToJson() + "}";
    metrics_stream << tail << "\n";
    if (!metrics_stream.good()) {
      return Status::Internal("failed writing --metrics-out file " +
                             obs.metrics_out);
    }
    std::printf("wrote %s\n", obs.metrics_out.c_str());
  }
  server.Stop();
  return stats;
}

int CmdGenerate(int argc, char** argv) {
  std::string dataset = "MUTAG", out = "dataset";
  int graphs = 200;
  double node_cap = 40.0;
  uint64_t seed = 1;
  FlagSet flags("sgcl_cli generate");
  flags.String("dataset", &dataset, "TU dataset name (e.g. MUTAG)");
  flags.String("out", &out, "output dataset store directory");
  flags.Int("graphs", &graphs, "number of graphs to generate");
  flags.Double("node-cap", &node_cap, "cap on average node count");
  flags.Uint64("seed", &seed, "generation seed");
  if (int rc = HandleParse(flags, flags.Parse(argc, argv, 2)); rc >= 0) {
    return rc;
  }
  if (graphs < 1) {
    return Fail(Status::InvalidArgument(
        StrFormat("--graphs must be >= 1, got %d", graphs)));
  }
  if (!(node_cap > 0.0)) {
    return Fail(Status::InvalidArgument(
        StrFormat("--node-cap must be > 0, got %g", node_cap)));
  }
  auto which = DatasetByName(dataset);
  if (!which.ok()) return Fail(which.status());
  SyntheticTuOptions opt;
  opt.graph_fraction = std::min(
      1.0, static_cast<double>(graphs) / GetTuConfig(*which).num_graphs);
  opt.node_cap = node_cap;
  opt.seed = seed;
  GraphDataset ds = MakeTuDataset(*which, opt);
  Status st = SaveDataset(ds, out);
  if (!st.ok()) return Fail(st);
  DatasetStats stats = ds.Stats();
  std::printf("wrote %s: %lld graphs, %.1f avg nodes, %.1f avg edges\n",
              out.c_str(), static_cast<long long>(stats.num_graphs),
              stats.avg_nodes, stats.avg_edges);
  return 0;
}

int CmdInfo(int argc, char** argv) {
  std::string data = "dataset";
  FlagSet flags("sgcl_cli info");
  flags.String("data", &data, "dataset store directory");
  if (int rc = HandleParse(flags, flags.Parse(argc, argv, 2)); rc >= 0) {
    return rc;
  }
  auto ds = LoadDataset(data);
  if (!ds.ok()) return Fail(ds.status());
  auto feat_dim = ds->FeatDim();
  if (!feat_dim.ok()) return Fail(feat_dim.status());
  DatasetStats stats = ds->Stats();
  std::printf("%s: %lld graphs, %d classes, %d tasks, feat dim %lld,\n"
              "  %.2f avg nodes, %.2f avg edges\n",
              ds->name().c_str(), static_cast<long long>(stats.num_graphs),
              ds->num_classes(), ds->num_tasks(),
              static_cast<long long>(*feat_dim), stats.avg_nodes,
              stats.avg_edges);
  return 0;
}

int CmdPretrain(int argc, char** argv) {
  std::string data = "dataset", out = "model.ckpt";
  uint64_t seed = 1;
  TrainFlags train_flags;
  ObservabilityFlags obs;
  CheckpointFlags ckpt;
  DistributedFlags dist_flags;
  FlagSet flags("sgcl_cli pretrain");
  flags.String("data", &data,
               "dataset store directory (generate or shard_writer output), "
               "streamed from disk");
  flags.String("out", &out, "output checkpoint path");
  flags.Uint64("seed", &seed, "training seed");
  train_flags.Register(&flags);
  obs.Register(&flags);
  ckpt.Register(&flags);
  dist_flags.Register(&flags);
  if (int rc = HandleParse(flags, flags.Parse(argc, argv, 2)); rc >= 0) {
    return rc;
  }
  if (Status st = dist_flags.Validate(flags); !st.ok()) return Fail(st);
  if (Status st = ckpt.Validate(flags); !st.ok()) return Fail(st);
  // Workers checkpoint independently: give each rank its own subtree so
  // FindLatestCheckpoint never picks up a sibling's file.
  if (dist_flags.workers > 0 && !ckpt.dir.empty()) {
    ckpt.dir += "/rank-" + std::to_string(dist_flags.rank);
  }
  auto store = ShardedGraphStore::Open(data);
  if (!store.ok()) return Fail(store.status());
  const GraphSource& source = **store;
  auto feat_dim = source.FeatDim();
  if (!feat_dim.ok()) return Fail(feat_dim.status());
  auto cfg = train_flags.ToConfig(*feat_dim);
  if (!cfg.ok()) return Fail(cfg.status());
  SgclTrainer trainer(*cfg, seed);
  DistributedRun dist_run;
  if (dist_flags.workers > 0) {
    dist_run.options.rank = dist_flags.rank;
    dist_run.options.world_size = dist_flags.workers;
    dist_run.options.grad_accum = dist_flags.grad_accum;
    dist_run.options.coordinator_port = dist_flags.coordinator_port;
    dist_run.options.allreduce_timeout_ms = dist_flags.allreduce_timeout_ms;
    // The coordinator's schedule, against which every worker HELLO is
    // validated. run_seed must be the run's ORIGINAL seed: when rank 0
    // is itself resuming, peek its checkpoint rather than trusting this
    // invocation's --seed.
    uint64_t run_seed = seed;
    if (dist_flags.rank == 0 && ckpt.resume && !ckpt.dir.empty()) {
      Result<std::string> latest = FindLatestCheckpoint(ckpt.dir);
      if (latest.ok()) {
        auto peeked = LoadTrainCheckpoint(*latest);
        if (!peeked.ok()) return Fail(peeked.status());
        run_seed = peeked->train_seed;
      }
    }
    AllReduceSchedule& schedule = dist_run.schedule;
    schedule = MakePretrainSchedule(*cfg, source, source.size(),
                                    dist_flags.workers, dist_flags.grad_accum,
                                    run_seed);
    // The round cache must cover every round a killed worker could have
    // to replay: since its latest checkpoint (the cadence, doubled for
    // slack), or the whole run when checkpointing is off.
    const uint64_t accum = schedule.accum;
    uint64_t cadence_rounds;
    if (ckpt.dir.empty()) {
      cadence_rounds = schedule.total_rounds();
    } else if (ckpt.every_batches > 0) {
      cadence_rounds =
          (static_cast<uint64_t>(ckpt.every_batches) + accum - 1) / accum;
    } else {
      cadence_rounds = schedule.rounds_per_epoch() *
                       static_cast<uint64_t>(std::max(1, ckpt.every));
    }
    dist_run.cache_rounds = static_cast<int>(
        std::min<uint64_t>(std::max<uint64_t>(64, 2 * cadence_rounds),
                           1u << 20));
  }
  auto stats = ObservedPretrain(&trainer, source, obs, "pretrain",
                                cfg->epochs, ckpt,
                                dist_flags.workers > 0 ? &dist_run : nullptr);
  if (!stats.ok()) return Fail(stats.status());
  std::printf("pretrained %d epochs: loss %.4f -> %.4f\n", cfg->epochs,
              stats->epoch_losses.front(), stats->epoch_losses.back());
  Status st = SaveModel(trainer.model(), out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s (%lld parameters)\n", out.c_str(),
              static_cast<long long>(trainer.model().NumParameters()));
  return 0;
}

// The model file at `path`, which must have been trained on `feat_dim`
// node features.
Result<std::unique_ptr<SgclModel>> LoadModelFor(const std::string& path,
                                                int64_t feat_dim) {
  SGCL_ASSIGN_OR_RETURN(std::unique_ptr<SgclModel> model, LoadModel(path));
  const int64_t in_dim = model->config().encoder.in_dim;
  if (in_dim != feat_dim) {
    return Status::InvalidArgument(StrFormat(
        "%s was trained on %lld node features, the dataset has %lld",
        path.c_str(), static_cast<long long>(in_dim),
        static_cast<long long>(feat_dim)));
  }
  return model;
}

int CmdEvaluate(int argc, char** argv) {
  std::string data = "dataset", model_path = "model.ckpt";
  int folds = 10;
  uint64_t seed = 1;
  FlagSet flags("sgcl_cli evaluate");
  flags.String("data", &data, "dataset store directory");
  flags.String("model", &model_path, "model file (pretrain --out)");
  flags.Int("folds", &folds, "SVM cross-validation folds");
  flags.Uint64("seed", &seed, "evaluation seed (cross-validation folds)");
  if (int rc = HandleParse(flags, flags.Parse(argc, argv, 2)); rc >= 0) {
    return rc;
  }
  auto ds = LoadDataset(data);
  if (!ds.ok()) return Fail(ds.status());
  auto feat_dim = ds->FeatDim();
  if (!feat_dim.ok()) return Fail(feat_dim.status());
  if (folds < 2 || folds > ds->size()) {
    return Fail(Status::InvalidArgument(StrFormat(
        "--folds %d must be in [2, %lld] (the dataset's graph count)", folds,
        static_cast<long long>(ds->size()))));
  }
  auto model = LoadModelFor(model_path, *feat_dim);
  if (!model.ok()) return Fail(model.status());
  std::vector<const Graph*> all;
  for (int64_t i = 0; i < ds->size(); ++i) all.push_back(&ds->graph(i));
  Tensor emb = (*model)->EmbedGraphs(all);
  Rng rng(seed);
  MeanStd cv = SvmCrossValidate(emb.values(), emb.rows(), emb.cols(),
                                ds->Labels().value(), ds->num_classes(), folds, &rng);
  std::printf("%d-fold SVM accuracy: %.2f%% ± %.2f%%\n", folds,
              100.0 * cv.mean, 100.0 * cv.std);
  return 0;
}

int CmdScores(int argc, char** argv) {
  std::string data = "dataset", model_path = "model.ckpt";
  int64_t index = 0;
  FlagSet flags("sgcl_cli scores");
  flags.String("data", &data, "dataset store directory");
  flags.String("model", &model_path, "model file (pretrain --out)");
  flags.Int64("graph", &index, "graph index to score");
  if (int rc = HandleParse(flags, flags.Parse(argc, argv, 2)); rc >= 0) {
    return rc;
  }
  auto ds = LoadDataset(data);
  if (!ds.ok()) return Fail(ds.status());
  auto feat_dim = ds->FeatDim();
  if (!feat_dim.ok()) return Fail(feat_dim.status());
  auto model = LoadModelFor(model_path, *feat_dim);
  if (!model.ok()) return Fail(model.status());
  if (index < 0 || index >= ds->size()) {
    return Fail(Status::OutOfRange("--graph outside dataset"));
  }
  const Graph& g = ds->graph(index);
  std::vector<float> k = (*model)->NodeLipschitzConstants(g);
  std::vector<float> p = (*model)->NodePreservationProbs(g);
  std::printf("graph %lld (label %d): node, Lipschitz K, preserve prob%s\n",
              static_cast<long long>(index), g.label(),
              g.semantic_mask().empty() ? "" : ", semantic");
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    std::printf("  %3lld  %8.4f  %6.4f", static_cast<long long>(v), k[v],
                p[v]);
    if (!g.semantic_mask().empty()) {
      std::printf("  %s", g.semantic_mask()[v] ? "S" : "-");
    }
    std::printf("\n");
  }
  return 0;
}

// SIGINT/SIGTERM latch for `serve` (async-signal-safe: just a flag).
volatile std::sig_atomic_t g_serve_stop = 0;
void HandleServeSignal(int) { g_serve_stop = 1; }

int CmdServe(int argc, char** argv) {
  std::string model_path = "model.ckpt";
  double duration_s = 0.0;
  // The flags write straight into the library's options, so their
  // defaults are the library's.
  serve::ServeOptions options;
  FlagSet flags("sgcl_cli serve");
  flags.String("model", &model_path, "model file to serve (pretrain --out)");
  flags.Int("http-port", &options.http_port,
            "listen on 127.0.0.1:<port>; 0 picks an ephemeral port");
  flags.Int("http-threads", &options.http_threads, "HTTP worker threads");
  flags.Int64("max-batch-graphs", &options.batcher.max_batch_graphs,
              "micro-batch cap: graphs per fused forward (1 = no batching)");
  flags.Int64("max-batch-nodes", &options.batcher.max_batch_nodes,
              "micro-batch cap: total nodes per fused forward");
  flags.Int64("max-queue", &options.batcher.max_queue_requests,
              "admission queue bound; beyond it requests get 503");
  flags.Int64("max-request-graphs", &options.limits.max_graphs,
              "per-request graph cap (400 past it)");
  flags.Int64("max-request-nodes", &options.limits.max_total_nodes,
              "per-request total-node cap (400 past it)");
  flags.Double("duration-s", &duration_s,
               "serve for this many seconds then exit; 0 = until "
               "SIGINT/SIGTERM");
  flags.Double("trace-sample-rate", &options.trace_sample_rate,
               "sample this fraction of requests into the in-memory trace "
               "ring (deterministic every-Nth; 0 disables); chrome JSON at "
               "GET /trace, span trees at GET /v1/traces/<id>, ids echoed "
               "in X-Sgcl-Trace");
  flags.Int64("trace-ring-size", &options.trace_ring_size,
              "capacity of the in-memory trace ring, in traces "
              "(oldest evicted first)");
  if (int rc = HandleParse(flags, flags.Parse(argc, argv, 2)); rc >= 0) {
    return rc;
  }
  if (Status trc = ValidateTraceFlags(options.trace_sample_rate,
                                      options.trace_ring_size);
      !trc.ok()) {
    return Fail(trc);
  }
  // The micro-batcher and the service SGCL_CHECK these limits; out of
  // range they are flag errors, reported before anything loads.
  const std::pair<const char*, int64_t> at_least_one[] = {
      {"http-threads", options.http_threads},
      {"max-batch-graphs", options.batcher.max_batch_graphs},
      {"max-batch-nodes", options.batcher.max_batch_nodes},
      {"max-queue", options.batcher.max_queue_requests},
      {"max-request-graphs", options.limits.max_graphs},
      {"max-request-nodes", options.limits.max_total_nodes},
  };
  for (const auto& [name, value] : at_least_one) {
    if (value < 1) {
      return Fail(Status::InvalidArgument(std::string("--") + name +
                                          " must be >= 1, got " +
                                          std::to_string(value)));
    }
  }
  if (options.http_threads > kMaxThreadCount) {
    return Fail(Status::InvalidArgument(
        StrFormat("--http-threads must be <= %d, got %d", kMaxThreadCount,
                  options.http_threads)));
  }
  auto model = LoadModel(model_path);
  if (!model.ok()) return Fail(model.status());

  SetRunId(GenerateRunId());
  options.limits.max_total_nodes = std::min(options.limits.max_total_nodes,
                                            options.batcher.max_batch_nodes);
  MetricsRegistry::Global().Reset();  // per-run isolation
  TraceRing::Global().Clear();
  serve::ServeService service(model->get(), options);
  if (Status st = service.Start(); !st.ok()) return Fail(st);
  // The smoke scripts parse this line to find an ephemeral port.
  std::printf("serve: http://127.0.0.1:%d run_id %s\n", service.port(),
              GetRunId().c_str());
  const EncoderConfig& encoder = (*model)->config().encoder;
  std::printf("model %s: %s %d-layer hidden %lld, feat dim %lld, fused %s\n",
              model_path.c_str(), GnnArchToString(encoder.arch),
              encoder.num_layers, static_cast<long long>(encoder.hidden_dim),
              static_cast<long long>(encoder.in_dim),
              service.session().fused() ? "yes" : "no");
  std::fflush(stdout);

  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  const auto t0 = std::chrono::steady_clock::now();
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (duration_s > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count() >= duration_s) {
      break;
    }
  }
  std::printf("serve: shutting down\n%s\n", service.StatusJson().c_str());
  service.Stop();
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: sgcl_cli "
                 "<generate|info|pretrain|evaluate|scores|serve> "
                 "[--flags]\n"
                 "run 'sgcl_cli <command> --help' for per-command flags\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  const std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "info") return CmdInfo(argc, argv);
  if (cmd == "pretrain") return CmdPretrain(argc, argv);
  if (cmd == "evaluate") return CmdEvaluate(argc, argv);
  if (cmd == "scores") return CmdScores(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) { return sgcl::Run(argc, argv); }
