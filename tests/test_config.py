"""Config defaults, file parsing, and override precedence."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from spikecl import importance
from spikecl.config import (
    ConfigError,
    DATA_DIR_ENV,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from spikecl.network import LIFConfig
from spikecl.training import TrainParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.benchmark == "synthetic"
    assert cfg.method == "none"
    assert cfg.lam is None
    assert cfg.seeds == (0,)
    assert cfg.hidden_size == 128
    assert cfg.timesteps == 10
    assert cfg.epochs == 5
    assert cfg.batch_size == 128
    assert cfg.lr == pytest.approx(1e-3)
    assert cfg.num_tasks == 5
    # the importance passes' sample budget is a constant, not a field
    assert importance.SAMPLES == 1024
    assert not hasattr(cfg, "importance_samples")


def test_config_builds_the_engine_settings_it_describes():
    cfg = ExperimentConfig()
    assert cfg.lif_cfg == LIFConfig()
    assert cfg.train_params == TrainParams()
    # not fields: run.json's config and the flags are unchanged
    assert "lif_cfg" not in cfg.to_dict()
    assert "train_params" not in cfg.to_dict()
    changed = replace(cfg, timesteps=3, lr=5e-3)
    assert changed.lif_cfg == LIFConfig(timesteps=3)
    assert changed.train_params == TrainParams(lr=5e-3)
    assert cfg.lif_cfg == LIFConfig()


@pytest.mark.parametrize("bad", [
    dict(benchmark="imagenet"),
    dict(method="dropout"),
    dict(lam=-1.0),
    dict(seeds=()),
    dict(hidden_size=0),
    dict(timesteps=1),
    dict(epochs=0),
    dict(lr=0.0),
    dict(gain=-1.0),
    dict(train_cap=0),
    dict(synthetic_noise=2.0),
    dict(lam=float("nan")),
    dict(lam=float("inf")),
    dict(lr=float("inf")),
    dict(lr=float("nan")),
    dict(gain=float("inf")),
    dict(gain=float("nan")),
    dict(seeds=(0, 0)),
    dict(seeds=(3, 1, 3)),
    dict(num_tasks=1),
    dict(num_tasks=0),
    dict(seeds=(-1,)),
    dict(seeds=(2, -5)),
])
def test_validation_rejects(bad):
    with pytest.raises(ConfigError):
        ExperimentConfig(**bad)


def test_parse_config_text_with_comments_and_aliases():
    raw = parse_config_text(
        "# experiment\n"
        "method = ewc   # inline comment\n"
        "\n"
        "lambda = 250\n"
        "seeds = 0, 1, 2\n"
    )
    assert raw == {"method": "ewc", "lam": "250", "seeds": "0, 1, 2"}


def test_parse_config_text_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=":2: unknown key"):
        parse_config_text("method = si\nmomentum = 0.9\n")
    with pytest.raises(ConfigError, match=":3: duplicate"):
        parse_config_text("lr = 1e-3\n# x\nlr = 1e-4\n")
    with pytest.raises(ConfigError, match=":1: expected"):
        parse_config_text("just words\n")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "benchmark = synthetic\n"
        "method = isi-cv\n"
        "lambda = 500\n"
        "seeds = 0,1,2\n"
        "train_cap = none\n"
        "epochs = 3\n"
    )
    cfg = load_config(path, env={})
    assert cfg.method == "isi-cv"
    assert cfg.lam == 500.0
    assert cfg.seeds == (0, 1, 2)
    assert cfg.train_cap is None
    assert cfg.epochs == 3


def test_load_config_parses_each_field_by_its_type(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "lambda = null\n"
        "gain = 1.5\n"
        "test_cap = 7\n"
        "data_dir = 12\n"
        "synthetic_noise = 0.25\n"
    )
    cfg = load_config(path, env={})
    assert cfg.lam is None
    assert cfg.gain == 1.5
    assert cfg.test_cap == 7 and isinstance(cfg.test_cap, int)
    assert cfg.data_dir == "12"
    assert cfg.synthetic_noise == 0.25
    path.write_text("hidden_size = none\n")   # only None-default fields unset
    with pytest.raises(ConfigError, match="bad value for hidden_size"):
        load_config(path, env={})
    path.write_text("gain = inf\n")
    with pytest.raises(ConfigError, match="gain must be finite"):
        load_config(path, env={})


def test_load_config_bad_value_and_missing_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("epochs = many\n")
    with pytest.raises(ConfigError, match="bad value for epochs"):
        load_config(path, env={})
    with pytest.raises(ConfigError, match="no such config"):
        load_config(tmp_path / "absent.cfg", env={})


def test_load_config_unreadable_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path, env={})   # a directory
    path = tmp_path / "latin1.cfg"
    path.write_bytes("out_dir = r\xe9sultats\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(path, env={})


def test_every_shipped_config_loads():
    # a removed or renamed field must not silently break a shipped profile
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert paths, f"no configs under {CONFIG_DIR}"
    for path in paths:
        cfg = load_config(path, env={})
        assert isinstance(cfg, ExperimentConfig), path.name
        assert cfg.out_dir == f"results/{path.stem}", path.name


def test_precedence_flag_over_env_over_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("data_dir = from_file\nepochs = 7\n")
    env = {DATA_DIR_ENV: "from_env"}
    cfg = load_config(path, env=env)
    assert cfg.data_dir == "from_env"
    assert cfg.epochs == 7
    cfg = load_config(path, overrides={"data_dir": "from_flag"}, env=env)
    assert cfg.data_dir == "from_flag"
    # None overrides are "flag not given" and must not mask lower layers
    cfg = load_config(path, overrides={"data_dir": None}, env=env)
    assert cfg.data_dir == "from_env"
    assert load_config(env={}).data_dir == "data"


def test_seeds_must_be_integers(tmp_path):
    path = tmp_path / "exp.cfg"
    # a blank item is a bad item, not one to skip
    for seeds in ("0,a,2", "0,,2,"):
        path.write_text(f"seeds = {seeds}\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"exp.cfg: bad value for seeds: '{seeds}'")):
            load_config(path, env={})


def test_unknown_override_is_rejected():
    with pytest.raises(ConfigError, match="unknown config field"):
        load_config(overrides={"momentum": 0.9}, env={})


def test_a_mistyped_override_is_a_config_error():
    # named like a bad file value, before a field check meets the value
    for key, value in (("hidden_size", "x"), ("lr", "fast"), ("seeds", 5),
                       ("seeds", (0, "1")), ("data_dir", 3),
                       ("hidden_size", True), ("lr", True),
                       ("seeds", (True,))):
        with pytest.raises(ConfigError) as info:
            load_config(overrides={key: value}, env={})
        assert str(info.value) == f"bad value for {key}: {value!r}"
    # an int is a float, as argparse's float type would give it
    assert load_config(overrides={"lr": 1}, env={}).lr == 1


def test_to_dict_is_json_friendly():
    d = ExperimentConfig(seeds=(0, 1)).to_dict()
    assert d["seeds"] == [0, 1]
    assert d["lam"] is None
    import json
    json.dumps(d)
