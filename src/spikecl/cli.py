"""Command-line experiment runner.

Subcommands: ``run`` (one method, all configured seeds), ``sweep``
(repeat over a lambda list) and ``importance-dump`` (re-derive the
firing-regularity report from a saved checkpoint).  All outputs are
plain CSV/JSON; CSVs contain no timestamps so identical configs produce
byte-identical files.

Exit codes: 0 success, 2 configuration error (argparse uses the same
code for usage errors), 3 data error (a ``data.DataError``: any bad
IDX file or checkpoint), 4 runtime failure.

Lanes.  The independent runs of one invocation (the seeds of ``run``,
the (lambda, seed) pairs of ``sweep``) are spread over one lane per CPU
the process may use (``os.sched_getaffinity``; ``taskset -c 0`` gives
one lane, as does a platform without that call).  A lane runs its
share in order: run i goes to lane i % lanes.  Lane 0 is this process;
every other lane is a forked child that writes only its own
checkpoints and sends its results back as one pickle over a pipe.
Every other file and every printed line is written here, in
seed/lambda order, so no output depends on the lane count.

Failures.  A lane stops at its first failed run.  Results are used in
run order up to the first failure, which is then raised as if the runs
had gone one after another: same exit code, same message, and the files
of every earlier seed written.  A child that ends without sending its
results fails as a RuntimeError naming its lane and runs (exit 4).  No
child outlives the command: all are reaped before it returns, and they
are killed at once when this process's own lane fails on the first run
or is interrupted.  After a failure, checkpoints of seeds later than the
failed one may exist, written by lanes that ran ahead.
"""

import argparse
import json
import os
import pickle
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .config import (DATA_FIELDS, FIELDS, ConfigError, comma_list,
                     load_config, text_parser)
from .continual import METHODS, csv_number, run_sequence
from .data import DataError, build_permuted, build_split, build_synthetic, load_idx_dir
from .importance import collect_spike_record, importance_report


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)


def _write_text(path, text):
    write_atomic(path, text.encode("utf-8"))


def _load_base(cfg):
    """Load the IDX train/test pair once per invocation; synthetic needs none."""
    if cfg.benchmark == "synthetic":
        return None
    return load_idx_dir(cfg.data_dir)


def build_tasks(cfg, seed, base):
    """Materialize the configured benchmark for one seed.

    Split benchmarks are seed-independent (fixed class pairs); permuted
    and synthetic derive their permutations/prototypes from the run seed
    so different seeds are fully independent repetitions.  ``base`` is
    ``_load_base(cfg)``.
    """
    if cfg.benchmark == "synthetic":
        return build_synthetic(
            num_tasks=cfg.num_tasks, classes=2,
            train_per_class=cfg.synthetic_train,
            test_per_class=cfg.synthetic_test,
            dim=cfg.synthetic_dim, noise=cfg.synthetic_noise, seed=seed,
        )
    train, test = base
    if cfg.benchmark == "permuted-mnist":
        return build_permuted(
            train, test, num_tasks=cfg.num_tasks, seed=seed,
            train_cap=cfg.train_cap, test_cap=cfg.test_cap,
        )
    # split-mnist and split-fashionmnist share the pair structure; the
    # data directory decides which dataset is being split
    return build_split(
        train, test, train_cap=cfg.train_cap, test_cap=cfg.test_cap,
    )


def _run_one_seed(cfg, seed, base, on_task_complete=None):
    return run_sequence(
        build_tasks(cfg, seed, base), cfg.method, lam=cfg.lam, seed=seed,
        hidden_size=cfg.hidden_size, lif_cfg=cfg.lif_cfg,
        train_params=cfg.train_params, on_task_complete=on_task_complete,
    )


def _lane(job, share):
    """Run ``job`` over one lane's share in order, up to its first failure.

    Returns (results, failure); failure is None or the exception raised.
    """
    results = []
    for item in share:
        try:
            results.append(job(item))
        except Exception as exc:  # noqa: BLE001 - reported in run order
            return results, exc
    return results, None


def _portable(exc):
    """``exc`` if it survives a pickle round trip, else a RuntimeError
    holding its type name and message."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any unpicklable exception
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _child_lane(job, share, read_fd, write_fd):
    """Body of a forked lane: send (results, failure) down the pipe, exit.

    ``os._exit`` skips the atexit hooks and finalizers the child
    inherited from the parent.
    """
    status = 1
    try:
        os.close(read_fd)
        results, failure = _lane(job, share)
        if failure is not None:
            failure = _portable(failure)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump((results, failure), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _run_lanes(job, items, label):
    """``job`` over every item, one lane per available CPU.

    Returns (results, failure): the results of the items before the
    first one that failed, in item order, and that item's exception (or
    None).  ``label(item)`` names an item in the error for a lane that
    ended without sending results.  The module docstring states the
    lane rules.
    """
    # sched_getaffinity (and so a lane per CPU) exists on Linux only
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    lanes = min(len(items), cpus)
    pending = {}    # lane -> (pid, read end of its pipe), until reaped
    outcomes = {}   # lane -> (results, failure)
    try:
        sys.stdout.flush()   # a child must not inherit unwritten output
        for lane in range(1, lanes):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_lane(job, items[lane::lanes], read_fd, write_fd)
            os.close(write_fd)
            pending[lane] = (pid, os.fdopen(read_fd, "rb"))
        done, failure = outcomes[0] = _lane(job, items[0::lanes])
        if failure is not None and not done:
            # the first item failed: no other lane's result is needed
            return [], failure
        for lane in range(1, lanes):
            pid, pipe = pending[lane]
            # read to EOF first: a child blocked on a full pipe never exits
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del pending[lane]
            try:
                outcomes[lane] = pickle.loads(payload)
            except Exception:  # noqa: BLE001 - empty or truncated payload
                code = os.waitstatus_to_exitcode(status)
                names = ", ".join(label(x) for x in items[lane::lanes])
                outcomes[lane] = [], RuntimeError(
                    f"lane {lane} ({names}) exited with status {code} "
                    f"without sending its results"
                )
    finally:
        for pid, pipe in pending.values():
            pipe.close()
            os.kill(pid, 9)   # SIGKILL
            os.waitpid(pid, 0)

    results = []
    for i in range(len(items)):
        done, failure = outcomes[i % lanes]
        if i // lanes == len(done):
            return results, failure
        results.append(done[i // lanes])
    return results, None


METRICS_HEADER = "method,lambda,seed,aa,bwt,af"


def _metrics_rows(results):
    """One CSV row per seed; cross-seed stats live in run.json."""
    lines = []
    for result in results:
        report = result.metrics()
        lines.append(",".join([
            result.method, csv_number(result.lam), str(result.seed),
            *map(csv_number, (report.aa, report.bwt, report.af)),
        ]))
    return lines


def _aggregate(results):
    """Mean and population std of each metric across seeds."""
    reports = [r.metrics() for r in results]
    out = {}
    for name in ("aa", "bwt", "af", "la"):
        values = np.array([getattr(rep, name) for rep in reports])
        out[f"{name}_mean"] = float(values.mean())
        out[f"{name}_std"] = float(values.std())
    return out


def _result_json(result, seconds):
    report = result.metrics()
    return {
        "seed": result.seed,
        "wall_clock_seconds": seconds,
        "method": result.method,
        "lambda": result.lam,
        "metrics": report.to_dict(),
        "matrix": [
            [None if np.isnan(v) else float(v) for v in row]
            for row in result.matrix.values
        ],
        "tasks": [
            {
                "task_id": k,
                "trunk_drift": log.trunk_drift,
                "accuracies": row[:k + 1].tolist(),
                "epochs": [
                    {"loss": e.loss, "accuracy": e.accuracy}
                    for e in log.epochs
                ],
            }
            for k, (log, row) in enumerate(zip(result.logs, result.matrix.values))
        ],
    }


def cmd_run(cfg):
    started = time.perf_counter()
    base = _load_base(cfg)
    _ensure_dir(cfg.out_dir)
    ckpt_dir = os.path.join(cfg.out_dir, "checkpoints")
    imp_dir = os.path.join(cfg.out_dir, "importance")
    _ensure_dir(ckpt_dir)
    _ensure_dir(imp_dir)

    def job(seed):
        def checkpointer(task_id, net):
            save_checkpoint(
                os.path.join(ckpt_dir, f"seed{seed}_task{task_id}.ckpt"), net
            )

        run_started = time.perf_counter()
        result = _run_one_seed(cfg, seed, base, on_task_complete=checkpointer)
        return result, time.perf_counter() - run_started

    timed, failure = _run_lanes(job, cfg.seeds, lambda seed: f"seed {seed}")
    results = [result for result, _ in timed]
    for seed, result in zip(cfg.seeds, results):
        _write_text(
            os.path.join(cfg.out_dir, f"rmatrix_seed{seed}.csv"),
            result.matrix.to_csv(),
        )
        for k, vec in enumerate(result.importances):
            doc = vec.to_json_dict(result.method, k)
            _write_text(
                os.path.join(imp_dir, f"seed{seed}_task{k}.json"),
                json.dumps(doc, indent=2, sort_keys=True) + "\n",
            )
        report = result.metrics()
        print(f"seed {seed}: AA={report.aa:.4f} BWT={report.bwt:+.4f} "
              f"AF={report.af:.4f}")
    if failure is not None:
        raise failure

    _write_text(
        os.path.join(cfg.out_dir, "metrics.csv"),
        "\n".join([METRICS_HEADER] + _metrics_rows(results)) + "\n",
    )
    record = {
        "engine_version": __version__,
        "config": cfg.to_dict(),
        "aggregate": _aggregate(results),
        "runs": [_result_json(r, s) for r, s in timed],
        "wall_clock_seconds": time.perf_counter() - started,
    }
    _write_text(
        os.path.join(cfg.out_dir, "run.json"),
        json.dumps(record, indent=2, sort_keys=True) + "\n",
    )
    print(f"wrote {os.path.join(cfg.out_dir, 'metrics.csv')}")
    return 0


SWEEP_HEADER = "lambda,aa_mean,aa_std,af_mean,af_std"


def cmd_sweep(cfg, lambdas):
    if len(lambdas) < 2:
        raise ConfigError("a sweep needs at least 2 lambda values")
    if len(set(lambdas)) != len(lambdas):
        raise ConfigError(f"lambdas repeat: {lambdas}")
    # building every config first rejects a bad lambda before any training
    configs = [replace(cfg, lam=lam) for lam in lambdas]
    if METHODS[cfg.method][1] is None:
        raise ConfigError(
            f"method {cfg.method!r} never reads lambda; sweep a method "
            f"that anchors")
    base = _load_base(cfg)
    _ensure_dir(cfg.out_dir)
    pairs = [(lam_cfg, seed) for lam_cfg in configs for seed in cfg.seeds]
    done, failure = _run_lanes(
        lambda pair: _run_one_seed(*pair, base), pairs,
        lambda pair: f"lambda {pair[0].lam:g} seed {pair[1]}",
    )
    n = len(cfg.seeds)
    lines = [SWEEP_HEADER]
    for i in range(len(done) // n):   # every lambda whose seeds all ran
        lam_cfg, results = configs[i], done[i * n:(i + 1) * n]
        agg = _aggregate(results)
        lines.append(",".join(csv_number(v) for v in (
            lam_cfg.lam, agg["aa_mean"], agg["aa_std"],
            agg["af_mean"], agg["af_std"],
        )))
        # drift of the trunk away from its post-task-1 anchor
        drift = np.mean([r.logs[1].trunk_drift for r in results])
        print(f"lambda {lam_cfg.lam:g}: AA={agg['aa_mean']:.4f} "
              f"AF={agg['af_mean']:.4f} drift={drift:.4f}")
    if failure is not None:
        raise failure
    path = os.path.join(cfg.out_dir, "sweep.csv")
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_importance_dump(cfg, checkpoint_path, task_id=None, out=None):
    net = load_checkpoint(checkpoint_path)
    if net.num_heads == 0:
        raise DataError(f"{checkpoint_path}: checkpoint has no heads")
    if task_id is None:
        task_id = net.num_heads - 1
    if not 0 <= task_id < net.num_heads:
        raise ConfigError(
            f"task {task_id} not in checkpoint (heads: {net.num_heads})"
        )
    tasks = build_tasks(cfg, cfg.seeds[0], _load_base(cfg))
    if task_id >= len(tasks):
        raise ConfigError(f"benchmark has only {len(tasks)} tasks")
    if tasks.input_dim != net.input_size:
        raise ConfigError(
            f"checkpoint expects {net.input_size} inputs, benchmark "
            f"provides {tasks.input_dim}"
        )
    record = collect_spike_record(net, tasks[task_id].train)
    report = dict(importance_report(record), task_id=task_id)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)
        print(f"wrote {out}")
    return 0


def _add_config_flags(parser, names):
    """``--config`` plus one flag per named ExperimentConfig field.  A
    config file may still set every field."""
    parser.add_argument("-c", "--config", metavar="FILE",
                        help="flat key = value config file")
    for name in names:
        f = FIELDS[name]
        flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=text_parser(f),
                            **f.metadata)


def _config_from_args(args):
    """The config from ``--config`` and the flags the parser defined."""
    overrides = {name: getattr(args, name, None) for name in FIELDS}
    return load_config(path=args.config, overrides=overrides)


def build_parser():
    # no abbreviations: a removed flag must not be read as the prefix of
    # another (--lambda of --lambdas)
    parser = argparse.ArgumentParser(
        prog="spikecl",
        description="Spiking-network continual-learning experiment runner",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one method over all seeds",
                           allow_abbrev=False)
    _add_config_flags(p_run, FIELDS)
    p_run.set_defaults(entry=lambda args: cmd_run(_config_from_args(args)))

    p_sweep = sub.add_parser("sweep", help="repeat a run over lambda values",
                             allow_abbrev=False)
    _add_config_flags(p_sweep, [name for name in FIELDS if name != "lam"])
    p_sweep.add_argument("--lambdas", type=comma_list(float), required=True,
                         metavar="L0,L1,...")
    p_sweep.set_defaults(
        entry=lambda args: cmd_sweep(_config_from_args(args), args.lambdas)
    )

    p_dump = sub.add_parser(
        "importance-dump",
        help="firing-regularity report for a saved checkpoint, run under "
             "its own neuron model",
        allow_abbrev=False,
    )
    _add_config_flags(p_dump, DATA_FIELDS)
    p_dump.add_argument("--checkpoint", required=True)
    p_dump.add_argument("--task", type=int, default=None,
                        help="task index (default: newest head)")
    p_dump.add_argument("--out", default=None,
                        help="output JSON path (default: stdout)")
    p_dump.set_defaults(
        entry=lambda args: cmd_importance_dump(
            _config_from_args(args), args.checkpoint,
            task_id=args.task, out=args.out,
        )
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.entry(args)
    except ConfigError as exc:
        print(f"spikecl: config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"spikecl: data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"spikecl: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
