"""fwlab benchmark: end-to-end task latency and cold start, or a traced per-layer run.

    python3 perfbench/run.py --workload series|lattice|spin1 --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports fwlab from ``src/``
and fails (non-zero exit, no result line) when that tree is missing.

Each workload is one fixed fwlab experiment repeated as back-to-back
tasks by one caller in one process (a closed loop, one client), with
OpenBLAS limited to min(2, nproc) threads.  Every task's outputs are
checked against oracles after the task, outside the timed region (see
``workloads.py``).

``--trace 0`` reports, for the workload:
  setup_s      median over three fresh interpreters of ``import fwlab``
               plus the workload's first task (the cost of one fwlab
               command line; the first task is never part of the
               percentiles).  The run process is the first of the three;
               after the other two it runs one more untimed task.
  task_p50_s   median time of a steady task.
  task_tail_s  the highest percentile with at least 10 tasks beyond it;
               with fewer than 21 tasks that percentile would sit at or
               below the median, so the maximum is reported instead.
  tasks_per_s  verified tasks per second of timed loop.
  peak_rss_mb  peak resident memory of the run process.
The times are speed-adjusted.  On a shared host the CPU's speed can
change by up to about 2x within tens of seconds, with other tenants'
load, and wall times of one run cannot average that out.  So each
workload has a calibration loop (``workloads.py``) that does the same
kind of work as its tasks (exact rationals in a dict for ``series``, a
dense Hermitian eigendecomposition for ``lattice`` and ``spin1``) but
calls no fwlab code.  It is timed (fastest of five runs, garbage
collector off) just before and just after every task, and the task's
wall time is scaled by the loop's time at the reference speed
(``canary_ref_s``) over the mean of those two times; a cold start is
scaled by the loop's time right after its first task.  A change to fwlab
moves the adjusted times as it moves wall times; a change of the
machine's speed moves the loop as well and cancels.  The wall-time
figures and the loop's times are printed beside them.
The failed fraction and the facts of each task (exit codes, slopes,
residuals) are printed beside them; they are not gated metrics.

``--trace 1`` splits the seconds into an untraced and a traced loop
(the difference of their medians is the tracing overhead), then runs the
size sweep once per size, traced, and a traced pass of ``lattice`` and
``spin1`` in a child process with OpenBLAS limited to one thread.  It
reports per-layer metrics (see ``spans.py``) and writes every span to
``perfbench/out/``.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORK = OUT / f"work-{os.getpid()}"  # report files of this process's tasks
COLD_STARTS = 3
CANARY_REPEATS = 5
CHILD_TIMEOUT_S = 150
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SWEEP_WEIGHTS = (8, 10, 12, 14)
SWEEP_LATTICE_SITES = (64, 128, 256)
SWEEP_SPIN1_NMAX = (60, 120)
SWEEP_HBAR = 0.1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("yield", "_ratio", "_frac")):
        return "ratio"
    return "count"


# -- tasks and their tally ---------------------------------------------------------


class Tally:
    """Attempted and failed tasks, the problems found, and the facts recorded."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.facts: dict[str, Counter] = defaultdict(Counter)

    def record(self, workload, output, error: Exception | None) -> bool:
        self.attempted += 1
        if error is None:
            try:
                problems, facts = workload.check(output)
            except Exception as exc:  # a malformed report is a failed task
                problems, facts = [f"check raised {type(exc).__name__}: {exc}"], {}
        else:
            problems, facts = [f"task raised {type(error).__name__}: {error}"], {}
        for key, value in facts.items():
            self.facts[f"{workload.name}.{key}"][f"{value:.6g}" if isinstance(value, float) else str(value)] += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{workload.name}: {p}" for p in problems)
        return not problems

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.problems.extend(other["problems"])
        for key, values in other["facts"].items():
            self.facts[key].update(values)

    def to_json_obj(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "facts": {k: dict(v) for k, v in self.facts.items()},
        }


def run_task(workload, tally: Tally) -> tuple[float, bool]:
    """Time one task, then check it outside the timed region."""
    error = output = None
    start = time.perf_counter()
    try:
        output = workload.run()
    except Exception as exc:  # counted as a failed task, the loop goes on
        error = exc
    elapsed = time.perf_counter() - start
    return elapsed, tally.record(workload, output, error)


def canary_s(workload) -> float:
    """Fastest of a few runs of the workload's calibration loop, with the garbage collector off."""
    times = []
    gc.disable()
    try:
        for _ in range(CANARY_REPEATS):
            start = time.perf_counter()
            workload.canary()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return min(times)


@dataclass
class Loop:
    """One timed loop: wall and speed-adjusted task times, and the calibration
    loop's times, one before the first task and one after each task."""

    times: list[float] = field(default_factory=list)
    adjusted: list[float] = field(default_factory=list)
    canaries: list[float] = field(default_factory=list)
    verified: int = 0


def timed_loop(workload, seconds: float, tally: Tally, tracer=None, label: str = "task") -> Loop:
    """Tasks back to back until they have taken ``seconds`` of wall time."""
    loop = Loop(canaries=[canary_s(workload)])
    while sum(loop.times) < seconds:
        if tracer is not None:
            tracer.task = f"{label}-{len(loop.times)}"
        elapsed, ok = run_task(workload, tally)
        loop.canaries.append(canary_s(workload))
        speed = 2.0 * workload.canary_ref_s / (loop.canaries[-2] + loop.canaries[-1])
        loop.times.append(elapsed)
        loop.adjusted.append(elapsed * speed)
        loop.verified += ok
    if tracer is not None:
        tracer.task = None
    return loop


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 tasks beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 11) / (n - 1)


# -- cold start ---------------------------------------------------------------------


def cold_start(name: str, seed: int, tally: Tally):
    """import fwlab and the workload's first task, timed in this fresh interpreter."""
    start = time.perf_counter()
    import fwlab.labcli  # noqa: F401

    import_s = time.perf_counter() - start
    if not Path(fwlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fwlab was imported from {fwlab.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, seed, WORK)
    first_task_s, _ = run_task(workload, tally)
    cold = {"import_s": import_s, "first_task_s": first_task_s, "canary_s": canary_s(workload)}
    return workload, cold


def _child(args: list[str]) -> dict:
    """Run this script in a fresh interpreter and parse its last output line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# -- machine facts --------------------------------------------------------------------


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = [line.split()[-1] for line in maps if "openblas" in line.lower()]
    if not paths:
        return None
    lib = ctypes.CDLL(paths[0])
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def machine_facts(seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
        lapack = f"{deps['lapack']['name']} {deps['lapack']['version']}"
    except (TypeError, KeyError):
        blas = lapack = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "lapack": lapack,
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- traced run --------------------------------------------------------------------------


def size_sweep(tracer, seed: int) -> dict[str, float]:
    """Each layer once per size, traced; the metrics come from the spans."""
    from fwlab import eriksen, labcli, matfun, models
    from spans import STAGES

    _dense_warmup()
    for weight in SWEEP_WEIGHTS:
        tracer.task = f"sweep.w{weight}"
        pipeline = eriksen.EriksenPipeline(weight)
        for stage in STAGES:
            getattr(pipeline, stage)
    lattice = labcli.NumericFwConfig()
    for n in SWEEP_LATTICE_SITES:
        tracer.task = f"sweep.lattice.n{n}"
        potential = models.random_smooth_potential(n, lattice.potential_amplitude, seed)
        spec = models.LatticeDiracSpec(n, lattice.box_length, lattice.mass, SWEEP_HBAR, potential)
        parts = models.build_lattice_dirac(spec)
        matfun.eriksen_transform_numeric(parts.block)
        matfun.relfw_hamiltonian_numeric(parts.m_op, parts.e_op, parts.o_op, parts.block.beta)
    spin1 = labcli.Spin1Config(g_factor=2.5)
    for n_max in SWEEP_SPIN1_NMAX:
        tracer.task = f"sweep.spin1.nmax{n_max}"
        spec = models.Spin1LandauSpec(
            spin1.mass, spin1.charge, spin1.g_factor, spin1.field, spin1.hbar, n_max
        )
        models.spin1_numeric_spectrum(spec, spin1.n_levels)
    tracer.task = None

    metrics: dict[str, float] = {}
    for weight in SWEEP_WEIGHTS:
        t = tracer.totals([f"sweep.w{weight}"])
        metrics[f"sweep.w{weight}.fw_build_s"] = sum(t[f"eriksen.{s}"]["span_s"] for s in STAGES)
        if weight == 12:
            for stage in STAGES:
                metrics[f"sweep.w12.{stage}_s"] = t[f"eriksen.{stage}"]["span_s"]
                metrics[f"eriksen.{stage}.terms"] = t[f"eriksen.{stage}"]["terms"]
            metrics["sweep.w12.mul.calls"] = t["ncalg.mul"]["calls"]
            metrics["sweep.w12.mul.self_s"] = t["ncalg.mul"]["self_s"]
            metrics["sweep.w12.mul.pairs_offered"] = t["ncalg.mul"]["pairs_offered"]
    for n in SWEEP_LATTICE_SITES:
        t = tracer.totals([f"sweep.lattice.n{n}"])
        metrics[f"sweep.lattice.n{n}.transform_s"] = t["matfun.transform"]["span_s"]
        metrics[f"sweep.lattice.n{n}.closed_form_s"] = t["matfun.closed_form"]["span_s"]
    for n_max in SWEEP_SPIN1_NMAX:
        t = tracer.totals([f"sweep.spin1.nmax{n_max}"])
        metrics[f"sweep.spin1.nmax{n_max}.spectrum_s"] = t["models.spin1_spectrum"]["span_s"]
    return metrics


def _dense_warmup() -> None:
    """First calls of the LAPACK routines fwlab uses, so the next task is warm."""
    import numpy as np

    a = np.random.default_rng(0).normal(size=(64, 64)) + 1j * np.eye(64)
    h = a + a.conj().T
    for routine in (np.linalg.eigvals, np.linalg.eig, np.linalg.inv, np.linalg.slogdet):
        routine(a)
    np.linalg.eigh(h)
    np.linalg.eigvalsh(h)
    np.linalg.solve(a, h)
    np.linalg.svd(a, compute_uv=False)


def single_thread_pass(seed: int) -> dict:
    """One traced lattice task and one traced spin1 task (run with one BLAS thread)."""
    import fwlab.labcli  # noqa: F401
    from spans import Tracer
    from workloads import Lattice, Spin1

    _dense_warmup()
    tally = Tally()
    tracer = Tracer()
    tracer.install()
    metrics = {}
    try:
        for cls in (Lattice, Spin1):
            workload = cls(ROOT, seed, WORK)
            tracer.task = cls.name
            elapsed, _ = run_task(workload, tally)
            tracer.task = None
            transform = tracer.totals([cls.name])["matfun.transform"]
            metrics[f"st1.{cls.name}.task_s"] = elapsed
            metrics[f"st1.{cls.name}.matfun.transform.self_s"] = transform["self_s"]
    finally:
        tracer.uninstall()
    return {"metrics": metrics, "blas_threads": _openblas_threads(), "tally": tally.to_json_obj()}


def traced_run(workload, seconds: float, tally: Tally) -> tuple[dict, list]:
    from spans import Tracer, layer_metrics

    untraced = timed_loop(workload, seconds / 2, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(workload, seconds / 2, tally, tracer)
        sweep = size_sweep(tracer, workload.seed)
    finally:
        tracer.uninstall()
    task_ids = [f"task-{i}" for i in range(len(traced.times))]
    totals = tracer.totals(task_ids)
    silent = [layer for layer in workload.layers if totals[layer]["calls"] == 0]
    if silent:
        raise SystemExit(f"trace self-check: {workload.name} tasks never called {silent}")

    metrics = layer_metrics(totals, len(traced.times))
    metrics.update(sweep)
    p50_traced = statistics.median(traced.adjusted)
    p50_untraced = statistics.median(untraced.adjusted)
    metrics["trace.task_p50_s"] = p50_traced
    metrics["trace.untraced_task_p50_s"] = p50_untraced
    metrics["trace.overhead_s"] = p50_traced - p50_untraced
    metrics["trace.overhead_frac"] = (p50_traced - p50_untraced) / p50_untraced

    child = _child(["--single-thread-pass", "--seed", str(workload.seed)])
    if child["blas_threads"] not in (None, 1):
        raise SystemExit(f"single-thread pass ran with {child['blas_threads']} BLAS threads")
    tally.merge(child["tally"])
    metrics.update(child["metrics"])

    build = metrics["sweep.w12.fw_build_s"]
    share = metrics["sweep.w12.mul.self_s"] / build
    print(f"profile: ncalg.mul self time is {share:.1%} of the weight-12 build ({build:.3f} s),"
          f" {metrics['sweep.w12.mul.calls']:.0f} calls")
    print(f"profile: matfun.transform.distinct_ratio {metrics['matfun.transform.distinct_ratio']:.3f}"
          f" over {metrics['matfun.transform.calls']:.0f} calls per task")
    print(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s per task"
          f" ({metrics['trace.overhead_frac']:+.1%}, speed-adjusted;"
          f" {len(traced.times)} traced, {len(untraced.times)} untraced tasks)")
    return metrics, tracer.to_json_obj()


# -- main -------------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("series", "lattice", "spin1"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-start", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--single-thread-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fwlab" / "__init__.py").is_file():
        print(f"no fwlab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.single_thread_pass:
        parser.error("--workload is required")
    # set before numpy loads; children inherit it, and the one-thread
    # baseline pass sets its own limit
    os.environ["OPENBLAS_NUM_THREADS"] = "1" if args.single_thread_pass else str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return _run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _run(args) -> int:
    if args.single_thread_pass:
        print(json.dumps(single_thread_pass(args.seed)))
        return 0
    tally = Tally()
    workload, first = cold_start(args.workload, args.seed, tally)
    if args.cold_start:
        print(json.dumps({"cold": first, "tally": tally.to_json_obj()}))
        return 0

    facts = machine_facts(args.seed)
    print(f"fwlab benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if facts["blas_threads"] not in (None, BLAS_THREADS):
        raise SystemExit(f"OpenBLAS runs {facts['blas_threads']} threads, not {BLAS_THREADS}")
    result: dict = {"machine": facts, "workload": args.workload, "seconds": args.seconds, "trace": args.trace}

    if args.trace:
        metrics, spans = traced_run(workload, args.seconds, tally)
        result["spans"] = spans
        for name in sorted(metrics):
            print(f"  {name:<44} {metrics[name]:.6g} {_unit(name)}")
        units = {name: _unit(name) for name in metrics}
    else:
        colds = [first]
        for _ in range(COLD_STARTS - 1):
            child = _child(["--cold-start", "--workload", args.workload, "--seed", str(args.seed)])
            colds.append(child["cold"])
            tally.merge(child["tally"])
        run_task(workload, tally)  # warm-up after the cold-start children, not timed
        loop = timed_loop(workload, args.seconds, tally)
        ref = workload.canary_ref_s
        tail_s, tail_pct = tail(loop.adjusted)
        metrics = {
            "setup_s": statistics.median(
                ref * (c["import_s"] + c["first_task_s"]) / c["canary_s"] for c in colds
            ),
            "task_p50_s": statistics.median(loop.adjusted),
            "task_tail_s": tail_s,
            "tasks_per_s": loop.verified / sum(loop.adjusted),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        result["cold_starts"] = colds
        result["task_times_s"] = loop.times
        result["adjusted_task_times_s"] = loop.adjusted
        result["canary_s"] = loop.canaries
        import_s = statistics.median(c["import_s"] for c in colds)
        first_s = statistics.median(c["first_task_s"] for c in colds)
        wall_tail_s, _ = tail(loop.times)
        print("  (speed-adjusted; wall-time figures in brackets)")
        print(f"  setup_s     {metrics['setup_s']:.4f} s   median of {len(colds)} cold starts"
              f" [import fwlab {import_s:.4f} s, first task {first_s:.4f} s]")
        print(f"  task_p50_s  {metrics['task_p50_s']:.4f} s   {len(loop.times)} steady tasks"
              f" [{statistics.median(loop.times):.4f} s]")
        label = "maximum; fewer than 21 tasks" if tail_pct == 100.0 else f"p{tail_pct:.1f}"
        print(f"  task_tail_s {tail_s:.4f} s   ({label}, n={len(loop.times)}) [{wall_tail_s:.4f} s]")
        print(f"  tasks_per_s {metrics['tasks_per_s']:.4f} 1/s ({loop.verified} verified)"
              f" [{loop.verified / sum(loop.times):.4f} 1/s in {sum(loop.times):.2f} s]")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
        canaries = sorted(loop.canaries)
        cold_canaries = ", ".join(f"{1e3 * c['canary_s']:.2f}" for c in colds)
        print(f"  calibration loop {1e3 * canaries[0]:.2f} / {1e3 * statistics.median(canaries):.2f}"
              f" / {1e3 * canaries[-1]:.2f} ms (min / median / max) against {1e3 * ref:.2f} ms"
              f" at the reference speed; cold starts {cold_canaries} ms")

    print(f"  failed_frac {tally.failed / tally.attempted:.4f}   ({tally.failed} of {tally.attempted} tasks)")
    for key, values in sorted(tally.facts.items()):
        print(f"  fact {key}: " + ", ".join(f"{v} x{n}" for v, n in values.items()))
    for problem in tally.problems[:20]:
        print(f"  problem {problem}")

    result["tally"] = tally.to_json_obj()
    result["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(json.dumps(result), encoding="utf-8")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
