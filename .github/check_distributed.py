#!/usr/bin/env python3
"""CI smoke for multi-process data-parallel pretraining (DESIGN.md §14).

    check_distributed.py <sgcl_cli>

End-to-end over the real binaries, with a real process kill:

  1. Reference: `sgcl_cli pretrain --workers=1` (the one-worker
     DISTRIBUTED schedule — grad-accum rounds, not the plain per-batch
     loop) exports per-epoch losses via --metrics-out.
  2. Cluster: rank 0 starts the coordinator on an ephemeral port
     (parsed from its 'coordinator: 127.0.0.1:PORT' line); rank 1
     connects to it. Both checkpoint every round.
  3. Kill: rank 1 is SIGKILLed after its first 'epoch 1/' line — a real
     mid-run process death, not a cooperative shutdown. Rank 0 blocks
     in GetRound waiting for the missing leaves.
  4. Rejoin: rank 1 relaunches under a DIFFERENT trainer seed with
     --resume; the checkpointed train_seed must carry the stochastic
     stream. It re-handshakes, catches up from the coordinator's round
     cache, and the cluster finishes.
  5. Parity: every epoch loss each rank reports must equal the
     1-worker reference BITWISE (losses travel as %.17g JSON doubles,
     so float equality here is exact-bits equality).

The deterministic per-injection-point crash coverage lives in the
faultinject ctest label (comms_faultinject_test); this script proves
the same contract holds for a genuine SIGKILL of the shipped CLI.
"""
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

EPOCHS = 6
ACCUM = 4
MODEL_ARGS = ["--hidden=16", "--layers=2", "--batch=4", "--seed=3",
              f"--epochs={EPOCHS}", f"--grad-accum={ACCUM}"]


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


def assert_bitwise(losses, ref, who):
    assert losses, f"{who} reported no epochs"
    for epoch, loss in sorted(losses.items()):
        assert loss == ref[epoch], (
            f"{who} epoch {epoch}: loss {loss!r} != reference "
            f"{ref[epoch]!r} (not bitwise-identical)")


def main() -> int:
    cli = sys.argv[1]

    run([cli, "generate", "--dataset=MUTAG", "--graphs=48", "--node-cap=14",
         "--seed=3", "--out=dist_ds.bin"])

    # 1. One-worker distributed reference (same rounds, one process).
    run([cli, "pretrain", "--data=dist_ds.bin", *MODEL_ARGS,
         "--workers=1", "--rank=0", "--coordinator-port=0",
         "--metrics-out=dist_ref.jsonl", "--out=dist_ref.ckpt"])
    ref = epoch_losses("dist_ref.jsonl")
    assert len(ref) == EPOCHS, ref

    # 2. Rank 0: coordinator on an ephemeral port + worker 0 of 2.
    rank0 = subprocess.Popen(
        [cli, "pretrain", "--data=dist_ds.bin", *MODEL_ARGS,
         "--workers=2", "--rank=0", "--coordinator-port=0",
         "--checkpoint-dir=dist_ckpt", "--checkpoint-every-batches=4",
         "--checkpoint-keep=0",
         "--metrics-out=dist_r0.jsonl", "--out=dist_r0.ckpt"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    port = None
    rank0_tail = []
    deadline = time.time() + 60
    for line in rank0.stdout:
        sys.stdout.write(line)
        m = re.match(r"coordinator: 127\.0\.0\.1:(\d+)", line)
        if m:
            port = int(m.group(1))
            break
        assert time.time() < deadline, "rank 0 never printed its port"
    assert port, "rank 0 exited before announcing the coordinator port"
    # Keep rank 0's pipe drained while the cluster runs.
    drainer = threading.Thread(
        target=lambda: rank0_tail.extend(rank0.stdout), daemon=True)
    drainer.start()

    # 3. Rank 1 joins, then dies for real after its first epoch line.
    rank1_cmd = [cli, "pretrain", "--data=dist_ds.bin", *MODEL_ARGS,
                 "--workers=2", "--rank=1", f"--coordinator-port={port}",
                 "--checkpoint-dir=dist_ckpt",
                 "--checkpoint-every-batches=4", "--checkpoint-keep=0",
                 "--metrics-out=dist_r1.jsonl", "--out=dist_r1.ckpt"]
    rank1 = subprocess.Popen(rank1_cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
    deadline = time.time() + 120
    for line in rank1.stdout:
        sys.stdout.write(line)
        if line.startswith("epoch 1/"):
            rank1.send_signal(signal.SIGKILL)
            break
        assert time.time() < deadline, "rank 1 never reported an epoch"
    rank1.stdout.read()
    rc = rank1.wait(timeout=60)
    assert rc != 0, "rank 1 finished before the kill; nothing was interrupted"
    ckpts = sorted(os.listdir("dist_ckpt/rank-1"))
    assert ckpts, "killed rank 1 left no checkpoints"
    print(f"killed rank 1 after epoch 1; {len(ckpts)} checkpoints on disk")

    # 4. Rank 1 rejoins under a different seed; the checkpointed
    # train_seed must make the new seed irrelevant.
    rejoin_cmd = [arg if not arg.startswith("--seed=") else "--seed=31337"
                  for arg in rank1_cmd] + ["--resume"]
    run(rejoin_cmd, timeout=300)

    rc0 = rank0.wait(timeout=300)
    drainer.join(timeout=60)
    sys.stdout.writelines(rank0_tail)
    assert rc0 == 0, f"rank 0 exited {rc0}"

    # 5. Bitwise parity: both ranks against the 1-worker reference.
    r0 = epoch_losses("dist_r0.jsonl")
    assert len(r0) == EPOCHS, r0
    assert_bitwise(r0, ref, "rank 0")
    resumed = epoch_losses("dist_r1.jsonl")
    assert EPOCHS - 1 in resumed, f"rejoined rank 1 never finished: {resumed}"
    assert_bitwise(resumed, ref, "rejoined rank 1")
    print(f"ok: 2-worker losses bitwise-identical to --workers=1 "
          f"across the kill/rejoin (epochs {min(resumed)}..{max(resumed)} "
          f"re-reported by rank 1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
