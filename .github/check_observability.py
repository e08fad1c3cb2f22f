#!/usr/bin/env python3
"""Validates sgcl_cli pretrain's observability exports.

Offline mode (file exports):
    check_observability.py <metrics.jsonl> <trace.json>

Checks that the metrics JSONL parses line-by-line with per-epoch loss and
stage timings plus a final registry snapshot, and that the trace file is
chrome://tracing-loadable JSON containing the pipeline's stage spans: a
dump of the trace ring, so every event is tagged with its trace and
parent span, every parent is in its event's trace, and there are at
most --trace-ring-size (64) train/batch roots.

Live mode (telemetry endpoint):
    check_observability.py --live <sgcl_cli> <dataset>

Launches `sgcl_cli pretrain --http-port=0 --trace-sample-rate=1`,
parses the announced port, and curls /healthz, /status, /metrics
(twice), /v1/traces and /trace while the run is in flight: the
Prometheus text must parse, carry no duplicate series, and show monotone
counters across the two scrapes, the trace ring must hold committed
train/batch trees, and /trace must be chrome JSON of at most 64 roots.
The run's file exports (obs_metrics.jsonl / obs_trace.json) are left
behind for offline checks.

Serve-trace mode (request tracing end to end):
    check_observability.py --serve <sgcl_cli> <serve_load> \
                           <trace_report> <model.ckpt>

Starts `sgcl_cli serve --trace-sample-rate=1`, drives it with
serve_load --slowest-traces, then asserts: the /metrics latency
histogram carries a bucket exemplar that resolves at /v1/traces/<id>;
the span tree is well-formed (serve/request root with parse, queue
wait, forward, and encode children that sum to within 10% of the root's
wall time); and `trace_report` parses the /trace chrome dump
(nonzero exit on parse failure fails the check).
"""
import json
import re
import signal
import subprocess
import sys
import time
import urllib.request

EXPECTED_STAGES = {"generator", "augmentation", "encode", "loss",
                   "backward", "optimizer"}

# The live run's --trace-ring-size: the chrome export holds at most this
# many traces.
RING_SIZE = 64

# Every stage a served request passes through; serve/parse is tiny but
# must still be present for the tree to account for the request.
SERVE_STAGES = {"serve/parse", "serve/queue_wait", "serve/forward",
                "serve/encode"}

TELEMETRY_LINE = re.compile(
    r"telemetry: http://127\.0\.0\.1:(\d+) run_id (\S+)")

SERVE_LINE = re.compile(r"serve: http://127\.0\.0\.1:(\d+) run_id (\S+)")

# Value, optionally followed by an OpenMetrics-style exemplar
# (` # {trace_id="..."} <value>`) as emitted on histogram bucket lines.
SERIES_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s(\S+)"
    r"(?:\s#\s\{[^}]*\}\s\S+)?$")

EXEMPLAR_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*_bucket)\{[^}]*\}\s\S+"
    r"\s#\s\{trace_id=\"([0-9a-f]{16})\"\}\s\S+$")


def check_files(metrics_path: str, trace_path: str) -> None:
    lines = open(metrics_path).read().splitlines()
    assert len(lines) >= 2, f"expected >= 2 JSONL records, got {len(lines)}"
    epochs = [json.loads(line) for line in lines[:-1]]
    for rec in epochs:
        assert {"epoch", "loss", "seconds", "stages"} <= rec.keys(), rec
        assert EXPECTED_STAGES <= rec["stages"].keys(), rec
    final = json.loads(lines[-1])
    assert final.get("final") and "metrics" in final, final
    assert "train/batches" in final["metrics"]["counters"], final
    assert final.get("run_id", "").startswith("run-"), final

    trace = json.load(open(trace_path))
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"generator", "augmentation", "loss"} <= names, names
    roots = check_chrome_trees(trace)
    assert all(root == "train/batch" for root in roots), set(roots)

    print(f"ok: {len(epochs)} epoch records, "
          f"{len(trace['traceEvents'])} trace events in {len(roots)} traces")


def check_chrome_trees(trace: dict) -> list:
    """Asserts a chrome export of the trace ring is a set of well-formed
    span trees (every event tagged, every parent in the event's own
    trace, at most RING_SIZE traces); returns the root span names."""
    events = trace["traceEvents"]
    spans_by_trace = {}
    for event in events:
        args = event.get("args", {})
        for key in ("trace_id", "span_id", "parent_span_id"):
            assert key in args, f"event lacks args.{key}: {event}"
        spans_by_trace.setdefault(args["trace_id"], set()).add(
            args["span_id"])
    roots = []
    for event in events:
        args = event["args"]
        parent = args["parent_span_id"]
        if parent == 0:
            roots.append(event["name"])
        else:
            assert parent in spans_by_trace[args["trace_id"]], \
                f"parent of {event} is not in its trace"
    assert len(roots) == len(spans_by_trace), \
        f"{len(roots)} roots for {len(spans_by_trace)} traces"
    assert len(roots) <= RING_SIZE, f"{len(roots)} roots > {RING_SIZE}"
    return roots


def scrape(port: int, path: str) -> str:
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=5) as response:
        assert response.status == 200, (path, response.status)
        return response.read().decode("utf-8")


def parse_prometheus(text: str):
    """Returns ({metric: type}, {series_key: value}), asserting the
    exposition-format grammar and series uniqueness."""
    types, series = {}, {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                assert parts[2] not in types, f"duplicate TYPE {parts[2]}"
                types[parts[2]] = parts[3]
            continue
        m = SERIES_LINE.match(line)
        assert m, f"unparsable series line: {line!r}"
        key = m.group(1) + (m.group(2) or "")
        assert key not in series, f"duplicate series {key}"
        series[key] = float(m.group(3))  # accepts NaN/+Inf/-Inf spellings
    assert series, "no series in /metrics"
    return types, series


def check_live(cli: str, dataset: str) -> None:
    # Sized to run for a few seconds so the scrapes land mid-flight even
    # on fast machines (a 16-wide 2-layer run finishes in milliseconds).
    epochs = 40
    proc = subprocess.Popen(
        [cli, "pretrain", f"--data={dataset}", f"--epochs={epochs}",
         "--hidden=64", "--layers=3", "--batch=8", "--out=obs_model.ckpt",
         "--metrics-out=obs_metrics.jsonl", "--trace-out=obs_trace.json",
         "--http-port=0", "--trace-sample-rate=1",
         f"--trace-ring-size={RING_SIZE}"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    port, run_id = 0, ""
    try:
        for line in proc.stdout:
            m = TELEMETRY_LINE.search(line)
            if m:
                port, run_id = int(m.group(1)), m.group(2)
                break
        assert port, "pretrain never announced a telemetry port"

        health = json.loads(scrape(port, "/healthz"))
        assert health["status"] == "ok", health
        assert health["run_id"] == run_id, health
        assert "version" in health and "uptime_seconds" in health, health

        # The port is announced just before BeginRun; poll past the gap.
        for _ in range(50):
            status = json.loads(scrape(port, "/status"))
            if status["state"] != "idle":
                break
            time.sleep(0.1)
        assert status["state"] in ("running", "done"), status
        assert status["command"] == "pretrain", status
        assert status["run_id"] == run_id, status
        assert status["total_epochs"] == epochs, status

        types1, series1 = parse_prometheus(scrape(port, "/metrics"))
        types2, series2 = parse_prometheus(scrape(port, "/metrics"))
        assert types1.keys() <= types2.keys(), "metrics disappeared"
        counters = [name for name, kind in types2.items()
                    if kind == "counter"]
        assert counters, "no counters exported"
        for name in counters:
            before = series1.get(name)
            after = series2.get(name)
            if before is not None and after is not None:
                assert after >= before, (name, before, after)

        # Every batch is sampled, so the ring fills with committed
        # train/batch trees; poll past the first-batch window.
        for _ in range(50):
            traces = json.loads(scrape(port, "/v1/traces"))
            if traces["committed"] > 0:
                break
            time.sleep(0.1)
        assert traces["sample_rate"] == 1.0, traces
        assert traces["committed"] > 0, traces
        assert traces["traces"][0]["root"] == "train/batch", traces

        # /trace renders the same ring as chrome JSON.
        chrome_roots = check_chrome_trees(json.loads(scrape(port, "/trace")))
        assert chrome_roots, "/trace has no committed traces"
    finally:
        # Drain stdout so the CLI never blocks on a full pipe, then wait.
        proc.stdout.read()
        rc = proc.wait(timeout=300)
    assert rc == 0, f"pretrain exited with {rc}"
    print(f"ok: live scrape on port {port}, run {run_id}, "
          f"{len(series2)} series, {len(counters)} counters monotone")


def span_index(tree: dict):
    """Flattens a /v1/traces/<id> span tree into {name: node}."""
    nodes = {}

    def walk(node):
        nodes[node["name"]] = node
        for child in node.get("children", []):
            walk(child)

    walk(tree["root"])
    return nodes


def check_serve_traces(cli: str, serve_load: str, trace_report: str,
                       model: str) -> None:
    proc = subprocess.Popen(
        [cli, "serve", f"--model={model}", "--http-port=0",
         "--http-threads=8", "--max-batch-graphs=16",
         "--trace-sample-rate=1", "--trace-ring-size=256"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    port = 0
    try:
        for line in proc.stdout:
            m = SERVE_LINE.search(line)
            if m:
                port = int(m.group(1))
                break
        assert port, "serve exited before announcing a port"

        load = subprocess.run(
            [serve_load, f"--port={port}", "--endpoint=embed",
             "--concurrency=4", "--duration-s=2", "--warmup-s=0.2",
             "--graphs-per-request=4", "--nodes=4", "--features=onehot",
             "--seed=11", "--slowest-traces=3"],
            capture_output=True, text=True)
        sys.stdout.write(load.stdout)
        assert load.returncode == 0, f"serve_load exited {load.returncode}"
        assert "slowest traces" in load.stdout, load.stdout

        # The p99 debugging loop: a latency-histogram bucket exemplar in
        # /metrics names a trace id the ring can resolve.
        metrics = scrape(port, "/metrics")
        parse_prometheus(metrics)  # exemplar suffix must stay parsable
        exemplars = [m.group(2) for line in metrics.splitlines()
                     if (m := EXEMPLAR_LINE.match(line))
                     and m.group(1).startswith("sgcl_serve_")]
        assert exemplars, "no serve latency exemplars in /metrics"

        listing = json.loads(scrape(port, "/v1/traces"))
        assert listing["committed"] > 0, listing
        live_ids = {t["trace_id"] for t in listing["traces"]}
        # The tail-attribution target is the p99-bucket exemplar: of the
        # exemplar ids still resident in the ring, inspect the slowest
        # (per-stage bookkeeping is fixed ~10 us, so only tail requests
        # can meaningfully be asked to tile to 10%). Fall back to the
        # ring's longest trace if every exemplar was evicted.
        candidates = [x for x in exemplars if x in live_ids]
        if not candidates:
            candidates = [max(listing["traces"],
                              key=lambda t: t["dur_us"])["trace_id"]]
        trees = [json.loads(scrape(port, f"/v1/traces/{x}"))
                 for x in candidates]
        tree = max(trees, key=lambda t: t["root"]["dur_us"])
        trace_id = tree["trace_id"]
        nodes = span_index(tree)
        missing = SERVE_STAGES - nodes.keys()
        assert not missing, f"span tree lacks stages {missing}: {tree}"
        root = tree["root"]
        assert root["name"] == "serve/request", root["name"]
        # The instrumented stages must account for the request: their
        # durations sum to within 10% of the root's wall time.
        staged = sum(nodes[name]["dur_us"] for name in SERVE_STAGES)
        assert abs(staged - root["dur_us"]) <= 0.1 * root["dur_us"], \
            f"stages cover {staged} of {root['dur_us']} us"

        # trace_report reproduces the breakdown offline from the chrome
        # dump; a parse failure exits nonzero and fails this check.
        dump = scrape(port, "/trace")
        with open("serve_traces.json", "w") as out:
            out.write(dump)
        report = subprocess.run(
            [trace_report, "serve_traces.json", "--top=3"],
            capture_output=True, text=True)
        sys.stdout.write(report.stdout)
        assert report.returncode == 0, \
            f"trace_report exited {report.returncode}: {report.stderr}"
        assert "serve/forward" in report.stdout, report.stdout
    finally:
        proc.send_signal(signal.SIGINT)
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    assert rc == 0, f"serve exited with {rc}"
    print(f"ok: serve trace smoke on port {port}, trace {trace_id}, "
          f"{len(exemplars)} exemplar(s), trace_report parsed the dump")


def main() -> int:
    if sys.argv[1] == "--live":
        check_live(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "--serve":
        check_serve_traces(*sys.argv[2:6])
    else:
        check_files(sys.argv[1], sys.argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
