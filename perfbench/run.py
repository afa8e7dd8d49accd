"""spikecl benchmark: one workload per process, end-to-end or per layer.

    python3 perfbench/run.py --workload dense-isicv --seed 0 --seconds 36 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  ``--seed`` generates every input.  The workload is repeated
while another repetition still fits in ``--seconds``.  Every repetition
is checked (complete, finite result matrix in [0, 1], AA at or above the
workload's floor, and the same sha256 fingerprint of result CSVs and Ω
vectors as the first repetition); a failed one counts toward fail_rate.

``--trace 0`` reports the end-to-end metrics: setup_s, wall_s (median
repetition), train_samples_per_s, peak_rss_mb and aa.  ``--trace 1``
spends half the time untraced and half traced; it prints the untraced
end-to-end figures and reports the per-layer metrics of the median
traced repetition plus the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS is pinned to one thread before numpy loads, and all generated
files live in a temporary directory under ``.perfbench_tmp/`` at the
checkout root, removed on exit.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spikecl; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds():
    """Median time of ``import spikecl`` in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def blas_threads(np):
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np, spikecl):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "backend": spikecl.kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def fits(start, walls, seconds):
    """Whether another repetition, as long as the median one, ends in time.

    The first repetition always runs."""
    if not walls:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(walls) <= seconds


class Runner:
    """Repeats one workload, checking every repetition."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.outcome = None   # of the first passing repetition

    def once(self, inputs):
        """One repetition; returns (wall seconds, passed)."""
        self.attempted += 1
        rundir = os.path.join(self.workdir, f"rep{self.attempted}")
        start = time.perf_counter()
        try:
            raw = self.workload.run(inputs, self.seed, rundir)
            wall = time.perf_counter() - start
            outcome = self.workload.check(raw, self.seed, rundir)
            if self.outcome is None:
                self.outcome = outcome
            elif outcome.fingerprint != self.outcome.fingerprint:
                raise RuntimeError(
                    f"fingerprint {outcome.fingerprint} differs from the "
                    f"first repetition's {self.outcome.fingerprint}"
                )
        except Exception:  # noqa: BLE001 - a failed run is a measurement
            wall = time.perf_counter() - start
            self.failed += 1
            print(f"repetition {self.attempted} failed:", file=sys.stderr)
            traceback.print_exc()
            return wall, False
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        return wall, True

    def repeat(self, inputs, seconds):
        walls = []
        start = time.perf_counter()
        while fits(start, walls, seconds):
            wall, passed = self.once(inputs)
            walls.append(wall)
            print(f"rep {self.attempted}: wall_s={wall:.4f} "
                  f"{'ok' if passed else 'FAILED'}")
        return walls


def traced_repeat(runner, tracing, seconds):
    """Traced set-up plus run, repeated; returns (wall, stats, tracer)."""
    passes = []
    start = time.perf_counter()
    while fits(start, [p[0] for p in passes], seconds):
        tracer = tracing.Tracer()
        with tracer.installed():
            inputs = runner.workload.setup(runner.seed, runner.workdir)
            wall, passed = runner.once(inputs)
        print(f"rep {runner.attempted} (traced): wall_s={wall:.4f} "
              f"{'ok' if passed else 'FAILED'}")
        passes.append((wall, tracing.layer_stats(tracer), tracer))
    passes.sort(key=lambda p: p[0])
    return passes[(len(passes) - 1) // 2]


def end_to_end(workload, setup_s, walls, outcome):
    wall_s = statistics.median(walls)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "train_samples_per_s": (workload.train_samples / wall_s, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "aa": (outcome.aa if outcome else 0.0, "1"),
    }


def per_layer(tracing, untraced_walls, traced_wall, stats, tracer, outcome):
    metrics = {}
    for name in tracing.FUNCTIONS:
        s = stats[name]
        metrics[f"{name}.calls"] = (s["calls"], "count")
        if name in tracing.EVERY_WORKLOAD:
            metrics[f"{name}.busy_s"] = (s["busy_s"], "s")
            metrics[f"{name}.self_s"] = (s["self_s"], "s")
        metrics[f"{name}.busy_pct"] = (100.0 * s["busy_s"] / traced_wall, "%")
        metrics[f"{name}.self_pct"] = (100.0 * s["self_s"] / traced_wall, "%")
        if name in tracing.PER_CALL:
            metrics[f"{name}.p50_ms"] = (s["p50_ms"], "ms")
            # the tail percentile follows from calls; see tail_percentile
            metrics[f"{name}.tail_ms"] = (s["tail_ms"], "ms")
    for counter, value in tracer.counters.items():
        metrics[counter] = (value, "bytes")
    metrics["cli.cmd_run.out_bytes"] = (
        outcome.out_bytes if outcome else 0, "bytes")
    untraced = statistics.median(untraced_walls)
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def print_layer_table(tracing, stats, traced_wall):
    print(f"{'layer.function':34s} {'calls':>6s} {'busy_s':>9s} "
          f"{'self_s':>9s} {'self%':>6s} {'p50_ms':>9s}  tail")
    for name in tracing.FUNCTIONS:
        s = stats[name]
        p50 = f"{s['p50_ms']:9.4f}" if s["calls"] else f"{'-':>9s}"
        tail = (f"p{s['tail_pct']:g}={s['tail_ms']:.4f}ms n={s['calls']}"
                if s["tail_pct"] else "-")
        print(f"{name:34s} {s['calls']:6d} {s['busy_s']:9.4f} "
              f"{s['self_s']:9.4f} {100 * s['self_s'] / traced_wall:6.2f} "
              f"{p50}  {tail}")
    top = max(tracing.FUNCTIONS, key=lambda n: stats[n]["self_s"])
    print(f"largest self time: {top} ({stats[top]['self_s']:.4f} s)")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spikecl", "__init__.py")):
        print(f"perfbench: no spikecl package under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import_s = import_seconds()
    import numpy as np
    import spikecl

    if os.path.dirname(os.path.abspath(spikecl.__file__)) != \
            os.path.join(SRC, "spikecl"):
        print(f"perfbench: imported spikecl from {spikecl.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    for key, value in environment(np, spikecl).items():
        print(f"env {key}: {value}")
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")

    tmp_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_parent) as workdir:
            builds = []
            for _ in range(SETUP_REPEATS):
                inputs = None  # keep one copy alive, not two, for peak_rss_mb
                start = time.perf_counter()
                inputs = workload.setup(args.seed, workdir)
                builds.append(time.perf_counter() - start)
            setup_s = import_s + statistics.median(builds)
            print(f"setup: import_s={import_s:.4f} "
                  f"build_s={statistics.median(builds):.4f}")

            runner = Runner(workload, args.seed, workdir)
            if args.trace:
                walls = runner.repeat(inputs, args.seconds / 2)
                untraced = end_to_end(workload, setup_s, walls,
                                      runner.outcome)
                traced_wall, stats, tracer = traced_repeat(
                    runner, tracing, args.seconds / 2)
                print_layer_table(tracing, stats, traced_wall)
                for name, (value, unit) in untraced.items():
                    print(f"untraced metric {name} = {value} {unit}")
                metrics = per_layer(tracing, walls, traced_wall, stats,
                                    tracer, runner.outcome)
            else:
                walls = runner.repeat(inputs, args.seconds)
                metrics = end_to_end(workload, setup_s, walls, runner.outcome)
    finally:
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass  # another run still uses it

    outcome = runner.outcome
    if outcome is not None:
        print(f"fingerprint {outcome.fingerprint}")
        print(f"aa {outcome.aa:.6f} af {outcome.af:.6f}")
    print(f"fail_rate {runner.failed / runner.attempted:g} "
          f"({runner.failed}/{runner.attempted})")
    print(f"wall_s over {len(walls)} untraced repetitions: median "
          f"{statistics.median(walls):.4f} min {min(walls):.4f} "
          f"max {max(walls):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and outcome is not None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
