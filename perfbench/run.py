"""Benchmark of the heleshaw CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the package is imported from ``src``.  The
program is driven only through ``heleshaw.cli.main(argv)``, in process, with
its output captured: one client in a closed loop, so the next op starts when
the previous one returns.  Ops come from ``workloads.py`` and each must pass
the correctness gate there.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Op times are reported in units of a fixed reference kernel of the workload
(``reference.py``) timed around each op, because the host's speed drifts
by more than the bounds; wall times are printed on a ``#`` line.
``--trace 1`` reports per-layer self time, calls and failures per op from
``tracing.py``.  Each traced op is paired with an untraced run of the same
input, in alternating order, and the median difference is the tracing
overhead.  Spans are written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give the run
conditions and each metric by name and unit.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads: the series op reads 1.66-1.87 s
# with one thread and 1.44-2.67 s with two on a 2-CPU machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
# Reference kernel samples between two ops; an op is divided by the median
# of the samples on both sides of it.
REF_REPEATS = 3

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes, for the smoke test")
    return ap.parse_args(argv)


def load_cli():
    """Import heleshaw.cli from this checkout's ``src``, or exit with an error."""
    if not (SRC / "heleshaw" / "cli.py").is_file():
        sys.exit(f"error: no heleshaw sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import heleshaw.cli

    if Path(heleshaw.cli.__file__).resolve().parent != SRC / "heleshaw":
        sys.exit(f"error: imported heleshaw from {heleshaw.cli.__file__}, not {SRC}")
    return heleshaw.cli


def import_seconds() -> float:
    """Wall time of a fresh interpreter running ``import heleshaw.cli``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import heleshaw.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True, timeout=60)
    return perf_counter() - t0


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
    }


def run_op(cli, op) -> tuple:
    """Run one op; return its wall seconds and why it failed (None if it passed)."""
    results = []
    t0 = perf_counter()
    for call in op:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(call.argv))
        except Exception:  # main let an exception escape: a failed op
            code = None
            err.write(traceback.format_exc())
        results.append((call, code, out.getvalue(), err.getvalue().strip()))
    elapsed = perf_counter() - t0
    for call, code, stdout, stderr in results:
        why = "raised" if code is None else workloads.gate(call, code, stdout)
        if why:
            detail = f" ({stderr.splitlines()[-1]})" if stderr else ""
            return elapsed, f"{call.argv[1]}: {why}{detail}"
    return elapsed, None


def tail(samples) -> tuple:
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    With 10 or fewer samples no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100
    k = len(s) - 11
    return s[k], (100 * (k + 1)) // len(s)


class Loop:
    """Closed loop: starts an iteration only if it should end by the
    deadline, judged by the length of the previous iteration."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.mark = perf_counter()
        self.attempted = 0
        self.failures: list = []

    def more(self) -> bool:
        now = perf_counter()
        last, self.mark = now - self.mark, now
        return self.attempted == 0 or now - self.start + last <= self.seconds

    def record(self, why) -> None:
        self.attempted += 1
        if why:
            self.failures.append(why)


def end_to_end(cli, ops, seconds: float, kernel) -> tuple:
    """Untraced ops, each divided by the median of ``kernel``'s times right
    before and right after it.  Set-up samples are spread evenly over the
    run, so that their median sees the same machine as the ops do."""
    import_seconds()  # unmeasured: writes bytecode caches, warms the file cache
    kernel()
    loop = Loop(seconds)
    setup, times, refs, ok = [], [], [], []
    while loop.more():
        if len(setup) < SETUP_REPEATS and \
                perf_counter() - loop.start >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(import_seconds())
        refs.append([reference.seconds(kernel) for _ in range(REF_REPEATS)])
        elapsed, why = run_op(cli, next(ops))
        loop.record(why)
        times.append(elapsed)
        ok.append(why is None)
    refs.append([reference.seconds(kernel) for _ in range(REF_REPEATS)])
    ratios = [t / statistics.median(a + b) for t, a, b in zip(times, refs, refs[1:])]
    tail_ref, pct = tail(ratios)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ref_p50": (statistics.median(ratios), "ref"),
        "op_ref_tail": (tail_ref, "ref"),
        "ops_per_kref": (1000 * sum(ok) / sum(ratios), "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"op_ref_tail is p{pct} of {len(times)} ops",
             f"wall time per op: p50 {statistics.median(times):.4f} s, "
             f"p{pct} {tail(times)[0]:.4f} s; reference kernel p50 "
             f"{1000 * statistics.median([r for g in refs for r in g]):.3f} ms",
             f"setup_s is the median of {len(setup)} imports",
             f"failed_frac = {len(loop.failures)}/{loop.attempted}"]
    return loop, metrics, notes


def per_layer(cli, ops, seconds: float, spans_path: Path) -> tuple:
    import tracing

    tracer = tracing.Tracer()
    loop = Loop(seconds)
    overheads = []
    while loop.more():
        op = next(ops)
        i = len(overheads)
        tracer.op_id = i
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                elapsed, why = run_op(cli, op)
            finally:
                tracer.uninstall()
            loop.record(why)
            pair[traced] = elapsed
        overheads.append(pair[True] - pair[False])
    n = len(overheads)
    metrics = {}
    for target, self_s, calls, failed in zip(
        tracer.targets, tracer.self_times(), tracer.calls(), tracer.failed
    ):
        metrics[f"{target}.self_s"] = (float(self_s) / n, "s/op")
        metrics[f"{target}.calls"] = (int(calls) / n, "count/op")
        metrics[f"{target}.failed"] = (failed / n, "count/op")
    for name, count in tracer.work.items():
        metrics[name] = (count / n, "count/op")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s/op")
    tracer.save(str(spans_path))
    ranked = sorted(tracer.targets, key=lambda t: -metrics[f"{t}.self_s"][0])
    notes = [f"{n} traced ops, spans in {spans_path.relative_to(ROOT)}",
             "largest self time: " + ", ".join(ranked[:3])]
    return loop, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    ops = workloads.op_stream(args.workload, args.seed, str(tmp), tiny=args.tiny)
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            loop, metrics, notes = per_layer(cli, ops, args.seconds, spans)
        else:
            kernel = reference.KERNELS[args.workload]
            loop, metrics, notes = end_to_end(cli, ops, args.seconds, kernel)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for why in loop.failures[:5]:
        print(f"failed op: {why}", file=sys.stderr)
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:<14.6g} {unit}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
