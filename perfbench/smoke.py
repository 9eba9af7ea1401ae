"""Smoke test of the benchmark itself, at tiny problem sizes.

    python3 perfbench/smoke.py

Checks that every workload runs in both modes, that the result line carries
exactly the metrics BENCHMARK.json declares with their units, that each
metric is also printed by name and unit, and that a deliberately failing op
is counted as failed and makes the result incorrect.  Exits 0 on success.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def declared(mode: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def check_result(lines: list, expected: dict, what: str) -> dict:
    result = json.loads(lines[-1])
    check(set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}")
    metrics = {k: v["unit"] for k, v in result["metrics"].items()}
    check(metrics == expected, f"{what}: metrics/units {metrics} != {expected}")
    check(result["attempted"] >= 1, f"{what}: nothing attempted")
    for name, unit in expected.items():
        check(any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines),
              f"{what}: {name} [{unit}] not printed")
    return result


def run_workloads() -> None:
    import workloads

    for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
        for name in workloads.WORKLOADS:
            what = f"{name} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            check(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}")
            result = check_result(proc.stdout.splitlines(), declared(mode), what)
            check(result["correct"] and result["failed"] == 0, f"{what}: {proc.stderr}")
            print(f"ok   {what}: {result['attempted']} ops")


def failing_op_is_flagged() -> None:
    """An op whose map meets the degenerate shell must count as failed."""
    import run
    import workloads

    def degenerate(rng, sizes, outdir):
        # f = z + z^2/2: f' = 1 + z vanishes on the unit circle at z = -1.
        cfg = {"family": "polynomial", "coeffs": "1, 0.5", "dt": "0.001",
               "horizon": "0.002", "output_times": "0.001"}
        return (workloads.evolve_call(cfg, outdir),)

    original = workloads.OPS["evolve-poly"]
    workloads.OPS["evolve-poly"] = degenerate
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", "evolve-poly", "--seed", "7", "--seconds", "1",
                      "--trace", "0", "--tiny"])
    finally:
        workloads.OPS["evolve-poly"] = original
    result = check_result(out.getvalue().splitlines(), declared("end_to_end"),
                          "deliberately failing op")
    check(not result["correct"], "failing op not flagged: correct is true")
    check(result["failed"] == result["attempted"],
          f"failed {result['failed']} of {result['attempted']} attempted")
    print(f"ok   deliberately failing op: {result['failed']}/{result['attempted']} failed")


def main() -> int:
    sys.path.insert(0, str(HERE))
    try:
        run_workloads()
        failing_op_is_flagged()
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
