"""Tiny-size self-test of every benchmark workload.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --seconds 1`` untraced and traced and
asserts that the result line is well formed and correct, that every
metric BENCHMARK.json names prints with its unit, that every output
check ran and passed, and that no process the run started (services,
helpers, anything else in its session) and no scratch spill/ledger
directory outlives the run.  It then repeats the
leftover checks after a run that fails on purpose (``--inject-failure``)
and checks that a directory holding only BENCHMARK.json and perfbench/
fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True

CHECKS = {
    "produce_same_counts_every_pass",
    "frames_decode_to_stream_counts",
    "estimate_error_within_bound",
    "round_digest_matches_stream_counts",
    "round_records_merged",
    "round_estimate_exists",
}
TIMEOUT = 300


def session_processes(sid: int) -> list[int]:
    """PIDs in session *sid*: every process a run started, wherever it
    was reparented and whether or not it has exited unreaped."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def invoke(cwd: str, *args: str) -> subprocess.CompletedProcess:
    """Run the benchmark in a session of its own, then fail if any
    process of that session is left, or any scratch state."""
    with subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    label = " ".join(args)
    leftover = session_processes(proc.pid)
    assert not leftover, f"{label}: benchmark processes left behind: {leftover}"
    scratch = os.path.join(ROOT, ".bench_scratch")
    assert not os.path.exists(scratch) or not os.listdir(scratch), (
        f"{label}: scratch state left in {scratch}: {os.listdir(scratch)}"
    )
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            label = f"{workload} --trace {trace}"
            done = invoke(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", trace)
            assert done.returncode == 0, (
                f"{label}: exit {done.returncode}\n{done.stderr}"
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            environment = json.loads(lines[-2])["environment"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
            assert result["attempted"] >= 1, label
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected, label
            for name, unit in expected.items():
                assert any(
                    line.split()[:1] == [name] and line.split()[2:3] == [unit]
                    for line in lines
                ), f"{label}: {name} not printed with unit {unit}"
            assert environment["checks"] == dict.fromkeys(CHECKS, True), (
                f"{label}: checks {environment['checks']}"
            )
            assert environment["seed"] == 7, label
            print(f"ok  {label}")

    done = invoke(ROOT, "--workload", "churn_small", "--seed", "7", "--seconds", "1",
                  "--inject-failure")
    assert done.returncode != 0, "an injected failure must fail the run"
    assert '"correct"' not in done.stdout, "a failed run must not print a result"
    print("ok  injected failure cleans up")

    bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        done = invoke(bare, "--workload", "churn_small", "--seed", "7",
                      "--seconds", "1", "--trace", "0")
        assert done.returncode != 0, "a checkout without src/ must fail"
        assert '"correct"' not in done.stdout, (
            "a checkout without src/ printed a result"
        )
    finally:
        shutil.rmtree(bare)
    print("ok  a directory without the program fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
