#!/usr/bin/env python3
"""CI smoke for the sharded streaming pipeline (DESIGN.md §12).

    check_stream.py <sgcl_cli> <shard_writer>

End-to-end over the real binaries:

  1. shard_writer materializes a tiny synthetic store (multiple shards).
  2. Reference: `sgcl_cli pretrain --data` streams an uninterrupted
     run from disk, exporting per-epoch losses via --metrics-out.
  3. Kill: the same run restarts with mid-epoch batch checkpointing
     (--checkpoint-every-batches) and is SIGKILLed after the first epoch
     line — a real process kill, landing at an arbitrary batch/shard
     boundary, not a cooperative shutdown.
  4. Resume: `--resume` picks up the newest (typically mid-epoch)
     checkpoint under a different trainer seed (the runs train at seed 0,
     a seed like any other: the checkpoint's seed keys the resumed
     batches, not the resuming process's); every epoch loss the
     resumed run reports must equal the reference run's value for the
     same epoch BITWISE (losses travel as %.17g JSON doubles, so float
     equality here is exact-bits equality).

The deterministic per-injection-point crash coverage lives in the
faultinject ctest label; this script proves the same contract holds for
a genuine SIGKILL of the shipped CLI.
"""
import json
import os
import signal
import subprocess
import sys
import time

EPOCHS = 6
MODEL_ARGS = ["--hidden=16", "--layers=2", "--batch=8"]


def run(cmd, **kw):
    print("+", " ".join(cmd), flush=True)
    result = subprocess.run(cmd, capture_output=True, text=True, **kw)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    assert result.returncode == 0, f"{cmd[0]} exited {result.returncode}"
    return result


def epoch_losses(metrics_jsonl):
    """{epoch: loss} from a --metrics-out export (floats are exact bits)."""
    losses = {}
    with open(metrics_jsonl) as f:
        for line in f:
            rec = json.loads(line)
            if "epoch" in rec:
                losses[rec["epoch"]] = rec["loss"]
    return losses


def main() -> int:
    cli, shard_writer = sys.argv[1:3]

    # 1. Materialize a multi-shard store (120 graphs / 32 per shard -> 4).
    run([shard_writer, "--out-dir=stream_store", "--graphs=120",
         "--shard-graphs=32", "--seed=9"])

    # 2. Uninterrupted streaming reference.
    run([cli, "pretrain", "--data=stream_store", f"--epochs={EPOCHS}",
         *MODEL_ARGS, "--seed=0",
         "--metrics-out=stream_ref.jsonl", "--out=stream_ref.ckpt"])
    ref = epoch_losses("stream_ref.jsonl")
    assert len(ref) == EPOCHS, ref

    # 3. Same run with mid-epoch checkpoints, SIGKILLed mid-flight.
    proc = subprocess.Popen(
        [cli, "pretrain", "--data=stream_store", f"--epochs={EPOCHS}",
         *MODEL_ARGS, "--seed=0",
         "--checkpoint-dir=stream_ckpt", "--checkpoint-every-batches=2",
         "--checkpoint-keep=0", "--out=stream_kill.ckpt"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.time() + 120
    for line in proc.stdout:
        sys.stdout.write(line)
        if line.startswith("epoch 1/"):
            proc.send_signal(signal.SIGKILL)
            break
        assert time.time() < deadline, "pretrain never reported an epoch"
    proc.stdout.read()
    rc = proc.wait(timeout=60)
    assert rc != 0, "run finished before the kill; nothing was interrupted"
    ckpts = sorted(os.listdir("stream_ckpt"))
    assert ckpts, "killed run left no checkpoints"
    assert any("-b" in c for c in ckpts), \
        f"no mid-epoch (batch-cursor) checkpoint among {ckpts}"
    print(f"killed after epoch 1; {len(ckpts)} checkpoints on disk")

    # 4. Resume under a different seed; losses must match the reference
    # bitwise for every epoch the resumed run reports.
    run([cli, "pretrain", "--data=stream_store", f"--epochs={EPOCHS}",
         *MODEL_ARGS, "--seed=31337",
         "--checkpoint-dir=stream_ckpt", "--checkpoint-every-batches=2",
         "--checkpoint-keep=0", "--resume",
         "--metrics-out=stream_resume.jsonl", "--out=stream_resume.ckpt"])
    resumed = epoch_losses("stream_resume.jsonl")
    assert resumed, "resumed run reported no epochs"
    assert EPOCHS - 1 in resumed, f"resumed run never finished: {resumed}"
    for epoch, loss in sorted(resumed.items()):
        assert loss == ref[epoch], (
            f"epoch {epoch}: resumed loss {loss!r} != reference "
            f"{ref[epoch]!r} (not bitwise-identical)")
    print(f"ok: {len(resumed)} resumed epoch losses bitwise-identical "
          f"(epochs {min(resumed)}..{max(resumed)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
