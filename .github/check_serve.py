#!/usr/bin/env python3
"""CI smoke for `sgcl_cli serve` driven by serve_load.

    check_serve.py <sgcl_cli> <serve_load> <gin.ckpt> <gcn.ckpt>

Runs two scenario pairs:

  serve/batched vs serve/batch1            GCN checkpoint (tape path)
  serve/fused_batched vs serve/fused_batch1  GIN checkpoint (fused plan)

Each pair starts the inference service on an ephemeral port, drives it
with serve_load for a few seconds, and asserts the 2xx rate — first
with micro-batching on (--max-batch-graphs=16), then with batch-size-1
serving (--max-batch-graphs=1); the two runs differ in that flag alone.
The batcher never waits for stragglers: a batch is whatever queued while
the previous forward ran, so at 16 clients batches fill by themselves.
Each model file carries its config, so serve takes the checkpoint
alone. The tape path has a real per-forward fixed cost (op dispatch +
tensor allocation), so its pair is where micro-batching shows a >= 2x
QPS win; the fused GIN plan's per-forward cost is near zero, so its pair
is expected ~1x. Each pair's QPS ratio is
printed, not asserted: CI runners are noisy. Serving speed is tracked by
perfbench's serve-open workload (BENCH_serve-open.json).
"""
import json
import re
import signal
import subprocess
import sys
import time

SERVE_LINE = re.compile(r"serve: http://127\.0\.0\.1:(\d+) run_id (\S+)")

BATCHED = ["--max-batch-graphs=16"]
BATCH1 = ["--max-batch-graphs=1"]


class Server:
    """sgcl_cli serve on an ephemeral port; context-managed shutdown."""

    def __init__(self, cli, model, extra_args):
        self.proc = subprocess.Popen(
            [cli, "serve", f"--model={model}", "--http-port=0",
             "--http-threads=16", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.port = 0
        deadline = time.time() + 60
        for line in self.proc.stdout:
            m = SERVE_LINE.search(line)
            if m:
                self.port = int(m.group(1))
                break
            assert time.time() < deadline, "serve never announced a port"
        assert self.port, "serve exited before announcing a port"

    def stop(self):
        self.proc.send_signal(signal.SIGINT)
        self.proc.stdout.read()  # drain the shutdown status JSON
        rc = self.proc.wait(timeout=60)
        assert rc == 0, f"serve exited with {rc}"


def run_load(serve_load, port, prefix, out_json):
    cmd = [serve_load, f"--port={port}", "--endpoint=embed",
           "--concurrency=16", "--duration-s=3", "--warmup-s=0.5",
           "--graphs-per-request=16", "--nodes=4", "--features=onehot",
           "--seed=11", f"--name-prefix={prefix}", f"--out-json={out_json}"]
    result = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    assert result.returncode == 0, f"serve_load exited {result.returncode}"
    doc = json.load(open(out_json))
    ctx = doc["context"]
    ok_rate = ctx["ok"] / max(1, ctx["requests"])
    assert ok_rate >= 0.99, f"{prefix}: 2xx rate {ok_rate:.3f} < 0.99"
    assert ctx["qps"] > 0, ctx
    return doc


def run_pair(cli, serve_load, model, prefix):
    server = Server(cli, model, BATCHED)
    try:
        batched = run_load(serve_load, server.port, f"{prefix}batched",
                           f"serve_{prefix.replace('/', '_')}batched.json")
    finally:
        server.stop()

    server = Server(cli, model, BATCH1)
    try:
        batch1 = run_load(serve_load, server.port, f"{prefix}batch1",
                          f"serve_{prefix.replace('/', '_')}batch1.json")
    finally:
        server.stop()

    qps_b = batched["context"]["qps"]
    qps_1 = batch1["context"]["qps"]
    occupancy = batched["context"]["batch_occupancy_mean"]
    print(f"ok: {prefix}batched {qps_b:.1f} qps (occupancy {occupancy:.2f}) "
          f"vs {prefix}batch1 {qps_1:.1f} qps "
          f"-> {qps_b / max(qps_1, 1e-9):.2f}x")


def main() -> int:
    cli, serve_load, gin, gcn = sys.argv[1:5]
    run_pair(cli, serve_load, gcn, "serve/")
    run_pair(cli, serve_load, gin, "serve/fused_")
    return 0


if __name__ == "__main__":
    sys.exit(main())
