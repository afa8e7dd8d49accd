"""End-to-end command-line behavior: artifacts, determinism, exit codes."""

import json
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

from spikecl.checkpoint import MAGIC as CHECKPOINT_MAGIC
from spikecl.checkpoint import load_checkpoint, save_checkpoint
from spikecl.cli import METRICS_HEADER, SWEEP_HEADER, main
from spikecl.config import ExperimentConfig
from spikecl.continual import ResultMatrix
from spikecl.network import new_network, register_head


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
        "importance-samples": "64",
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
    out = tmp_path / "res"
    main(["run", "--method", "isi-cv", *_flags(out)])
    saved = json.loads((out / "importance" / "seed0_task1.json").read_text())
    capsys.readouterr()             # drop the run command's progress lines
    code = main([
        "importance-dump",
        "--checkpoint", str(out / "checkpoints" / "seed0_task1.ckpt"),
        *_flags(out),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["task_id"] == 1     # defaults to the newest head
    assert report["samples"] == 60
    dumped = [report["neurons"][str(i)]["omega"] for i in range(12)]
    assert dumped == [saved["omega"][str(i)] for i in range(12)]

    dest = tmp_path / "report.json"
    code = main([
        "importance-dump",
        "--checkpoint", str(out / "checkpoints" / "seed0_task1.ckpt"),
        "--task", "0", "--out", str(dest), *_flags(out),
    ])
    assert code == 0
    assert json.loads(dest.read_text())["task_id"] == 0


def test_importance_dump_silent_trunk_reports_sentinel_cv(tmp_path, capsys):
    from spikecl.checkpoint import save_checkpoint
    from spikecl.network import new_network, register_head

    net = new_network(24, 12, 2, np.random.default_rng(0))
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

    # 3: unreadable checkpoint
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert main(["importance-dump", "--checkpoint", str(bad),
                 *_flags(tmp_path / "res")]) == 3

    # 3: a head that does not fit the trunk (12 hidden neurons)
    net = new_network(24, 12, 2, np.random.default_rng(0))
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

    # 2: non-finite numbers and repeated seeds are rejected before training
    for argv, message in (
        (["run", "--lambda", "nan"], "lambda must be finite"),
        (["run", "--lr", "inf"], "lr must be finite"),
        (["run", "--gain", "inf"], "gain must be finite"),
        (["sweep", "--lambdas", "1,nan"], "lambda must be finite"),
        (["run", "--seeds", "0,0"], "seeds repeat"),
        (["run", "--seeds", "-1"], "seeds must be >= 0"),
    ):
        res = tmp_path / "nonfinite"
        assert main([*argv, *_flags(res)]) == 2, argv
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not res.exists()

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
