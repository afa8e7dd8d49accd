"""End-to-end command-line behavior: artifacts, determinism, exit codes."""

import json
import os
import re
import struct
import time
from dataclasses import fields

import numpy as np
import pytest

from conftest import (BAD_LIF_RECORDS, checkpoint_blob,
                      oversized_checkpoint_header)
from spikecl.checkpoint import MAGIC as CHECKPOINT_MAGIC
from spikecl import cli, importance
from spikecl.checkpoint import load_checkpoint, save_checkpoint
from spikecl.cli import METRICS_HEADER, SWEEP_HEADER, main
from spikecl.config import ExperimentConfig
from spikecl.continual import (
    ResultMatrix,
    RunAbortedError,
    SequenceResult,
    TaskLog,
)
from spikecl.data import MNIST_FILES, write_idx_images, write_idx_labels
from spikecl.network import LIFConfig, new_network, register_head


@pytest.fixture(autouse=True)
def _importance_budget(monkeypatch):
    # every importance pass here reads at most 64 samples; forked lanes
    # inherit the patched constant
    monkeypatch.setattr(importance, "SAMPLES", 64)


def _flags(out_dir, **extra):
    base = {
        "benchmark": "synthetic",
        "num-tasks": "2",
        "synthetic-dim": "24",
        "synthetic-train": "30",
        "synthetic-test": "15",
        "hidden-size": "12",
        "timesteps": "5",
        "epochs": "2",
        "batch-size": "16",
        "out-dir": str(out_dir),
    }
    base.update(extra)
    out = []
    for key, value in base.items():
        out.extend([f"--{key}", value])
    return out


def test_run_writes_the_full_artifact_set(tmp_path):
    out = tmp_path / "res"
    assert main(["run", "--method", "isi-cv", *_flags(out)]) == 0

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 2          # one row per seed, nothing else
    seed_row = lines[1].split(",")
    assert seed_row[:3] == ["isi-cv", "500", "0"]
    assert len(seed_row) == 6

    matrix = ResultMatrix.from_csv((out / "rmatrix_seed0.csv").read_text())
    assert matrix.is_complete()

    record = json.loads((out / "run.json").read_text())
    assert record["config"]["method"] == "isi-cv"
    assert record["config"]["lam"] is None
    assert record["aggregate"]["aa_std"] == 0.0   # single seed
    assert len(record["runs"]) == 1
    run = record["runs"][0]
    assert run["lambda"] == 500.0
    assert len(run["tasks"]) == 2
    assert run["tasks"][0]["trunk_drift"] is None
    assert run["tasks"][1]["trunk_drift"] > 0

    for task in (0, 1):
        net = load_checkpoint(out / "checkpoints" / f"seed0_task{task}.ckpt")
        assert net.num_heads == task + 1
        assert net.lif == LIFConfig(timesteps=5)
        report = json.loads(
            (out / "importance" / f"seed0_task{task}.json").read_text()
        )
        assert report["method"] == "isi-cv"
        assert len(report["omega"]) == 12

    # accuracy summary goes to stdout with one line per seed
    # (checked loosely; exact numbers live in metrics.csv)


def test_run_aggregates_across_seeds(tmp_path):
    out = tmp_path / "res"
    code = main(["run", "--method", "none", "--seeds", "0,1,2", *_flags(out)])
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 4
    seeds = [line.split(",")[2] for line in lines[1:]]
    assert seeds == ["0", "1", "2"]
    aa = [float(line.split(",")[3]) for line in lines[1:]]
    agg = json.loads((out / "run.json").read_text())["aggregate"]
    assert agg["aa_mean"] == pytest.approx(np.mean(aa), rel=1e-9)
    assert agg["aa_std"] == pytest.approx(np.std(aa), rel=1e-9, abs=1e-12)
    assert (out / "rmatrix_seed2.csv").exists()


def test_identical_configs_produce_identical_bytes(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", "--method", "ewc", "--seeds", "1", *_flags(out)]) == 0
    for name in ("metrics.csv", "rmatrix_seed1.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_writes_one_row_per_lambda(tmp_path):
    out = tmp_path / "res"
    seeds = ["--seeds", "0,1"]
    code = main(["sweep", "--method", "isi-cv", "--lambdas", "5,50",
                 *seeds, *_flags(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 5
    assert [line.split(",")[0] for line in lines[1:]] == ["5", "50"]

    # each row is the cross-seed aa/af mean and std of the matching run;
    # run.json holds them unrounded, metrics.csv only per seed
    for line in lines[1:]:
        lam = line.split(",")[0]
        run_out = tmp_path / f"run{lam}"
        assert main(["run", "--method", "isi-cv", "--lambda", lam,
                     *seeds, *_flags(run_out)]) == 0
        agg = json.loads((run_out / "run.json").read_text())["aggregate"]
        assert line == ",".join(f"{v:.10g}" for v in (
            float(lam), agg["aa_mean"], agg["aa_std"],
            agg["af_mean"], agg["af_std"],
        ))
        rows = (run_out / "metrics.csv").read_text().splitlines()[1:]
        aa = [float(r.split(",")[3]) for r in rows]
        assert agg["aa_mean"] == pytest.approx(np.mean(aa), rel=1e-9)


def test_sweep_requires_two_lambdas(tmp_path, capsys):
    code = main(["sweep", "--method", "isi-cv", "--lambdas", "5",
                 *_flags(tmp_path / "res")])
    assert code == 2
    assert "at least 2" in capsys.readouterr().err


def test_importance_dump_matches_the_run_artifact(tmp_path, capsys):
    # the dump replays each checkpoint under the neuron model it was
    # trained with, whatever --gain and --timesteps the dump is given
    omegas = []
    for gain in ("1", "1.5"):
        out = tmp_path / f"gain{gain}"
        main(["run", "--method", "isi-cv", *_flags(out, gain=gain)])
        saved = json.loads(
            (out / "importance" / "seed0_task1.json").read_text())
        capsys.readouterr()         # drop the run command's progress lines
        code = main([
            "importance-dump",
            "--checkpoint", str(out / "checkpoints" / "seed0_task1.ckpt"),
            *_flags(out, gain="2", timesteps="7"),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["task_id"] == 1     # defaults to the newest head
        assert report["samples"] == 60
        dumped = [report["neurons"][str(i)]["omega"] for i in range(12)]
        assert dumped == [saved["omega"][str(i)] for i in range(12)]
        omegas.append(dumped)
    assert omegas[0] != omegas[1]

    dest = tmp_path / "report.json"
    code = main([
        "importance-dump",
        "--checkpoint", str(out / "checkpoints" / "seed0_task1.ckpt"),
        "--task", "0", "--out", str(dest), *_flags(out),
    ])
    assert code == 0
    assert json.loads(dest.read_text())["task_id"] == 0


def test_importance_dump_silent_trunk_reports_sentinel_cv(tmp_path, capsys):
    net = new_network(24, 12, 2, LIFConfig(), np.random.default_rng(0))
    net.w1[:] = 0.0
    net.b1[:] = 0.0
    register_head(net, np.random.default_rng(1))
    ckpt = tmp_path / "silent.ckpt"
    save_checkpoint(ckpt, net)
    code = main(["importance-dump", "--checkpoint", str(ckpt),
                 *_flags(tmp_path / "res")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert all(n["cv"] == 2.0 for n in report["neurons"].values())


def test_importance_dump_rejects_a_bad_neuron_model(tmp_path, capsys):
    net = new_network(24, 12, 2, LIFConfig(), np.random.default_rng(0))
    register_head(net, np.random.default_rng(1))
    ckpt = tmp_path / "bad.ckpt"
    for case, (record, message) in BAD_LIF_RECORDS.items():
        ckpt.write_bytes(checkpoint_blob(net, record))
        assert main(["importance-dump", "--checkpoint", str(ckpt),
                     *_flags(tmp_path / "res")]) == 3, case
        captured = capsys.readouterr()
        assert f"data error: {ckpt}: " in captured.err
        assert message in captured.err
        assert captured.out == ""


def test_importance_dump_validates_task_and_shape(tmp_path, capsys):
    out = tmp_path / "res"
    main(["run", "--method", "none", *_flags(out)])
    ckpt = str(out / "checkpoints" / "seed0_task0.ckpt")
    assert main(["importance-dump", "--checkpoint", ckpt, "--task", "5",
                 *_flags(out)]) == 2
    assert "not in checkpoint" in capsys.readouterr().err
    assert main(["importance-dump", "--checkpoint", ckpt,
                 *_flags(out, **{"synthetic-dim": "10"})]) == 2
    assert "expects 24 inputs" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    # 3: benchmark wants IDX files that are not there
    code = main(["run", "--benchmark", "split-mnist",
                 "--data-dir", str(tmp_path / "nodata"),
                 "--out-dir", str(tmp_path / "res")])
    assert code == 3
    assert "missing IDX files" in capsys.readouterr().err

    # 3: IDX headers that declare more than the file holds (once a
    # MemoryError and an OverflowError), 0 images of more pixels than
    # int64 counts (once a ValueError in reshape), a split of no images
    # and images of no pixels (once numpy errors deep in build_permuted)
    for k, (benchmark, images, message) in enumerate((
            ("split-mnist", (2 ** 32 - 1, 28, 28), "bytes of pixels"),
            ("split-mnist", (1, 2 ** 32 - 1, 2 ** 32 - 1), "bytes of pixels"),
            ("split-mnist", (0, 2 ** 32 - 1, 2 ** 32 - 1), "fit int64"),
            ("permuted-mnist", np.zeros((0, 4, 4)), "0 images"),
            ("permuted-mnist", np.zeros((30, 0, 0)), "0 pixels"))):
        data_dir = tmp_path / f"idx{k}"
        if isinstance(images, tuple):
            _write_digits(data_dir, np.arange(30) % 10, np.arange(30) % 10)
            (data_dir / MNIST_FILES["train"][0]).write_bytes(
                struct.pack(">IIII", 0x803, *images) + bytes(16))
        else:
            data_dir.mkdir()
            for images_name, labels_name in MNIST_FILES.values():
                write_idx_images(data_dir / images_name, images)
                write_idx_labels(data_dir / labels_name,
                                 np.arange(len(images)) % 10)
        assert main(["run", "--benchmark", benchmark,
                     "--data-dir", str(data_dir),
                     "--out-dir", str(tmp_path / "res")]) == 3, benchmark
        assert message in capsys.readouterr().err

    # 3: unreadable checkpoint
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert main(["importance-dump", "--checkpoint", str(bad),
                 *_flags(tmp_path / "res")]) == 3

    # 3: array dims whose product overflows int64
    bad.write_bytes(oversized_checkpoint_header())
    capsys.readouterr()
    assert main(["importance-dump", "--checkpoint", str(bad),
                 *_flags(tmp_path / "res")]) == 3
    assert "truncated" in capsys.readouterr().err

    # 3: an empty array whose dims' product overflows int64
    bad.write_bytes(oversized_checkpoint_header((0, 2 ** 32 - 1, 2 ** 32 - 1)))
    assert main(["importance-dump", "--checkpoint", str(bad),
                 *_flags(tmp_path / "res")]) == 3
    assert "do not fit int64" in capsys.readouterr().err

    # 3: a head that does not fit the trunk (12 hidden neurons)
    net = new_network(24, 12, 2, LIFConfig(), np.random.default_rng(0))
    register_head(net, np.random.default_rng(1))
    net.heads[0].w2 = net.heads[0].w2[:, :11]
    save_checkpoint(bad, net)
    capsys.readouterr()
    assert main(["importance-dump", "--checkpoint", str(bad),
                 *_flags(tmp_path / "res")]) == 3
    assert "shape" in capsys.readouterr().err

    # 2: config validation failure
    assert main(["run", *_flags(tmp_path / "res", epochs="0")]) == 2
    assert "epochs" in capsys.readouterr().err

    # 2: a bad sweep lambda is rejected before the good one is trained
    assert main(["sweep", "--lambdas", "10,-1",
                 *_flags(tmp_path / "sweep")]) == 2
    captured = capsys.readouterr()
    assert "lambda must be >= 0" in captured.err
    assert "lambda 10" not in captured.out
    assert not (tmp_path / "sweep" / "sweep.csv").exists()

    # 2: out-of-range or non-finite numbers, repeated seeds and repeated
    # lambdas are rejected before training, the engine's settings with
    # LIFConfig's and TrainParams' own messages
    for argv, message in (
        (["run", "--lambda", "nan"], "lambda must be finite"),
        (["run", "--lr", "inf"], "lr must be finite and > 0, got inf"),
        (["run", "--lr", "nan"], "lr must be finite and > 0, got nan"),
        (["run", "--lr", "0"], "lr must be finite and > 0, got 0.0"),
        (["run", "--gain", "inf"], "gain must be finite and > 0, got inf"),
        (["run", "--gain", "-1"], "gain must be finite and > 0, got -1.0"),
        (["run", "--timesteps", "1"], "timesteps must be >= 2, got 1"),
        (["run", "--batch-size", "0"], "batch_size must be >= 1"),
        (["run", "--epochs", "0"], "epochs must be >= 1"),
        (["sweep", "--lambdas", "1,nan"], "lambda must be finite"),
        (["sweep", "--lambdas", "10,10.0"], "lambdas repeat"),
        (["sweep", "--method", "none", "--lambdas", "1,2"],
         "method 'none' never reads lambda"),
        (["run", "--seeds", "0,0"], "seeds repeat"),
        (["run", "--seeds", "-1"], "seeds must be >= 0"),
    ):
        res = tmp_path / "nonfinite"
        # after _flags, so that a flag it also sets takes this value
        assert main([argv[0], *_flags(res), *argv[1:]]) == 2, argv
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not res.exists()

    # 2: a config path that is a directory, or a file that is not UTF-8
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("out_dir = r\xe9sultats\n".encode("latin-1"))
    for path in (tmp_path, latin1):
        assert main(["run", "-c", str(path), *_flags(tmp_path / "res")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    # 2: a one-task sequence is a config error, caught before any output
    res = tmp_path / "onetask"
    assert main(["run", *_flags(res, **{"num-tasks": "1"})]) == 2
    captured = capsys.readouterr()
    assert "num_tasks must be >= 2" in captured.err
    assert captured.out == ""
    assert not res.exists()

    # 3: an array name that is not ASCII
    bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIH", 2, 1, 2)
                    + b"\xff\xfe" + b"\x00" * 16)
    assert main(["importance-dump", "--checkpoint", str(bad),
                 *_flags(tmp_path / "res")]) == 3
    assert "not ASCII" in capsys.readouterr().err

    # 2: argparse rejects unknown choices itself
    with pytest.raises(SystemExit) as info:
        main(["run", "--benchmark", "imagenet"])
    assert info.value.code == 2

    # 4: unexpected runtime failure (output dir path is a file)
    clash = tmp_path / "clash"
    clash.write_text("in the way")
    assert main(["run", *_flags(clash)]) == 4

    # 2: a negative seed, rejected before the checkpoint is read
    assert main(["importance-dump", "--checkpoint", str(tmp_path / "none"),
                 "--seeds", "-1", *_flags(tmp_path / "res")]) == 2
    captured = capsys.readouterr()
    assert "seeds must be >= 0" in captured.err
    assert captured.out == ""


def _write_digits(data_dir, train_labels, test_labels):
    """An IDX quartet of 4x4 random images with the given labels."""
    rng = np.random.default_rng(0)
    data_dir.mkdir()
    for split, labels in (("train", train_labels), ("test", test_labels)):
        images_name, labels_name = MNIST_FILES[split]
        write_idx_images(data_dir / images_name,
                         rng.integers(0, 256, size=(len(labels), 4, 4)))
        write_idx_labels(data_dir / labels_name, labels)


@pytest.mark.parametrize("split", ["train", "test"])
def test_split_missing_classes_is_a_data_error_before_training(
        tmp_path, capsys, split):
    full = np.repeat(np.arange(10), 3)
    short = full[full < 8]
    _write_digits(tmp_path / "idx", *((short, full) if split == "train"
                                      else (full, short)))
    out = tmp_path / "res"
    assert main(["run", "--benchmark", "split-mnist", "--data-dir",
                 str(tmp_path / "idx"), "--out-dir", str(out),
                 "--hidden-size", "4", "--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert f"classes absent from the {split} split: [8, 9]" in err
    assert not list(out.glob("checkpoints/*.ckpt"))


def test_run_flags_are_the_config_fields(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--help"])
    assert info.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    expected = {"--help", "--config"} | {
        "--lambda" if f.name == "lam" else "--" + f.name.replace("_", "-")
        for f in fields(ExperimentConfig)
    }
    assert flags == expected


def test_gain_reaches_the_network(tmp_path):
    omegas = []
    for gain in ("1", "1.5"):
        out = tmp_path / gain
        assert main(["run", "--method", "isi-cv", "--gain", gain,
                     *_flags(out)]) == 0
        omegas.append((out / "importance" / "seed0_task1.json").read_bytes())
    assert omegas[0] != omegas[1]


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


# Lanes: runs spread over one process per CPU, outputs in run order


def _cpus(monkeypatch, n):
    """Pretend the process may use ``n`` CPUs; None: a platform that
    cannot tell (one lane)."""
    if n is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))


def _tree(root):
    """Every file under ``root`` by relative path; run.json without the
    fields that differ between otherwise identical runs."""
    files = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        name = str(path.relative_to(root))
        if name == "run.json":
            record = json.loads(path.read_text())
            del record["wall_clock_seconds"], record["config"]["out_dir"]
            for run in record["runs"]:
                assert run.pop("wall_clock_seconds") > 0
            files[name] = record
        else:
            files[name] = path.read_bytes()
    return files


@pytest.mark.parametrize("argv", [
    ["run", "--method", "si", "--seeds", "0,1,2"],
    ["sweep", "--method", "ewc", "--lambdas", "10,500", "--seeds", "3,4"],
])
def test_outputs_do_not_depend_on_the_lane_count(tmp_path, monkeypatch,
                                                  capsys, argv):
    seen = []
    for cpus in (1, 3, None):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main([*argv, *_flags(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        seen.append((_tree(out), stdout))
    # run: metrics.csv, run.json and per seed one rmatrix, two importance
    # JSONs and two checkpoints; sweep: sweep.csv
    assert len(seen[0][0]) == (17 if argv[0] == "run" else 1)
    assert seen[0] == seen[1] == seen[2]


def _failing_run_sequence(monkeypatch, fails):
    """cli.run_sequence that calls ``fails(lam, seed)`` before training."""
    real = cli.run_sequence

    def run_sequence(*args, **kwargs):
        fails(kwargs["lam"], kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_sequence", run_sequence)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _abort(lam, seed):
    # in the second lane for 2 CPUs: seed 1 of (0, 1, 2), or
    # (lambda 500, seed 1) of the pairs (10, 0), (10, 1), (500, 0), (500, 1)
    if seed == 1 and lam in (None, 500.0):
        # task 0 finished, so the run aborted at task 1
        raise RunAbortedError(SequenceResult(
            matrix=ResultMatrix(2), logs=[TaskLog(epochs=[])],
            importances=[], method="isi-cv", lam=500.0, seed=seed),
            "OSError: disk full")


@pytest.mark.parametrize("argv", [
    ["run", "--seeds", "0,1,2"],
    ["sweep", "--method", "isi-cv", "--lambdas", "10,500", "--seeds", "0,1"],
])
def test_a_failure_in_a_child_lane_reads_as_one_lane(tmp_path, monkeypatch,
                                                      capsys, argv):
    _failing_run_sequence(monkeypatch, _abort)
    seen = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main([*argv, *_flags(out)]) == 4
        captured = capsys.readouterr()
        seen.append((captured.out.replace(str(out), "OUT"), captured.err))
        _no_children_left()
        if argv[0] == "run":
            assert (out / "rmatrix_seed0.csv").exists()
            assert not (out / "rmatrix_seed1.csv").exists()
            assert not (out / "metrics.csv").exists()
        else:
            assert not (out / "sweep.csv").exists()
    assert seen[0] == seen[1]
    assert seen[0][1] == ("spikecl: RunAbortedError: sequence aborted "
                          "at task 1: OSError: disk full\n")
    if argv[0] == "sweep":
        assert seen[0][0].startswith("lambda 10: ")


def test_a_child_lane_that_dies_is_named(tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def die(lam, seed):
        if seed == 1 and os.getpid() != parent:
            os._exit(1)

    _failing_run_sequence(monkeypatch, die)
    _cpus(monkeypatch, 2)
    out = tmp_path / "res"
    assert main(["run", "--seeds", "0,1,2", *_flags(out)]) == 4
    assert capsys.readouterr().err == (
        "spikecl: RuntimeError: lane 1 (seed 1) exited with status 1 "
        "without sending its results\n"
    )
    _no_children_left()
    assert (out / "rmatrix_seed0.csv").exists()


def test_a_failed_checkpoint_write_names_its_cause(tmp_path, monkeypatch,
                                                   capsys):
    real = cli.save_checkpoint

    def save_checkpoint(path, net):
        if path.endswith("task1.ckpt"):
            raise OSError("disk full")
        real(path, net)

    monkeypatch.setattr(cli, "save_checkpoint", save_checkpoint)
    out = tmp_path / "res"
    assert main(["run", *_flags(out)]) == 4
    assert capsys.readouterr().err == (
        "spikecl: RunAbortedError: sequence aborted at task 1: "
        "OSError: disk full\n"
    )
    assert os.listdir(out / "checkpoints") == ["seed0_task0.ckpt"]


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    # the rename onto a directory fails after the temp file is written
    path = tmp_path / "metrics.csv"
    path.mkdir()
    with pytest.raises(OSError):
        cli._write_text(str(path), "method\n")
    assert os.listdir(tmp_path) == ["metrics.csv"]
    assert os.listdir(path) == []


def test_a_failed_first_run_stops_the_other_lanes(tmp_path, monkeypatch,
                                                  capsys):
    def first_fails_others_hang(lam, seed):
        if seed == 0:
            raise RuntimeError("first run failed")
        time.sleep(60)

    _failing_run_sequence(monkeypatch, first_fails_others_hang)
    _cpus(monkeypatch, 2)
    started = time.perf_counter()
    assert main(["run", "--seeds", "0,1", *_flags(tmp_path / "res")]) == 4
    assert time.perf_counter() - started < 30
    assert capsys.readouterr().err == \
        "spikecl: RuntimeError: first run failed\n"
    _no_children_left()


def test_an_unpicklable_failure_keeps_its_message(tmp_path, monkeypatch,
                                                  capsys):
    class LocalError(Exception):
        pass   # defined in a function, so pickle cannot find it by name

    def fail(lam, seed):
        if seed == 1:
            raise LocalError("boom")

    _failing_run_sequence(monkeypatch, fail)
    _cpus(monkeypatch, 2)
    assert main(["run", "--seeds", "0,1", *_flags(tmp_path / "res")]) == 4
    assert capsys.readouterr().err == \
        "spikecl: RuntimeError: LocalError: boom\n"
    _no_children_left()
