"""Experiment configuration: defaults, flat config files, overrides.

Precedence, lowest to highest: built-in default, config-file value,
SPIKECL_DATA_DIR environment variable (data_dir only), command-line
flag.  Config files are plain text, one ``key = value`` per line with
``#`` comments.
"""

import os
from dataclasses import dataclass, field, fields

from .continual import METHODS, resolve_lambda
from .network import LIFConfig
from .training import TrainParams

BENCHMARKS = ("split-mnist", "permuted-mnist", "split-fashionmnist", "synthetic")

DATA_DIR_ENV = "SPIKECL_DATA_DIR"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Every run setting, declared once: config-file keys and command-line
    flags are both derived from these fields.  A field's ``metadata``
    holds extra argparse settings for its flag.  ``lif_cfg`` and
    ``train_params`` are the LIFConfig and TrainParams built from five
    fields; those classes hold the five defaults and valid ranges."""

    benchmark: str = field(default="synthetic",
                           metadata={"choices": BENCHMARKS})
    method: str = field(default="none", metadata={"choices": tuple(METHODS)})
    lam: float = field(default=None, metadata={   # None = method default
        "help": "penalty strength (default: per-method)"})
    seeds: tuple = field(default=(0,), metadata={"metavar": "S0,S1,..."})
    hidden_size: int = 128
    timesteps: int = LIFConfig.timesteps
    epochs: int = TrainParams.epochs
    batch_size: int = TrainParams.batch_size
    lr: float = TrainParams.lr
    train_cap: int = field(default=None, metadata={   # None = full data
        "help": "per-task training samples (default: all)"})
    test_cap: int = None
    num_tasks: int = 5           # permuted-mnist and synthetic only
    data_dir: str = "data"
    out_dir: str = "results"
    gain: float = LIFConfig.gain
    synthetic_dim: int = 64
    synthetic_noise: float = 0.05
    synthetic_train: int = 200   # per class
    synthetic_test: int = 50     # per class

    def __post_init__(self):
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(
                f"unknown benchmark {self.benchmark!r}, expected one of {BENCHMARKS}"
            )
        # a run trains at least one epoch; TrainParams allows 0
        for name in ("hidden_size", "epochs", "synthetic_dim",
                     "synthetic_train", "synthetic_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        try:
            resolve_lambda(self.method, self.lam)
            self.lif_cfg = LIFConfig(timesteps=self.timesteps, gain=self.gain)
            self.train_params = TrainParams(
                epochs=self.epochs, batch_size=self.batch_size, lr=self.lr)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds repeat: {self.seeds}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if self.num_tasks < 2:
            raise ConfigError(
                "num_tasks must be >= 2 (a continual sequence needs at "
                "least 2 tasks)")
        for name in ("train_cap", "test_cap"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1 or unset")
        if not 0.0 <= self.synthetic_noise <= 1.0:
            raise ConfigError("synthetic_noise is a probability")

    def to_dict(self):
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


FIELDS = {f.name: f for f in fields(ExperimentConfig)}

# The settings that choose a task sequence: cli._load_base and
# cli.build_tasks read these fields and no others, so they are the only
# flags of a command that just replays data (importance-dump).
DATA_FIELDS = ("benchmark", "seeds", "num_tasks", "train_cap", "test_cap",
               "data_dir", "synthetic_dim", "synthetic_noise",
               "synthetic_train", "synthetic_test")


def comma_list(kind):
    """A parser of comma-separated ``kind`` values into a tuple.  A bad
    item, a blank one included, raises ValueError, and the parser's
    ``__name__`` names the type in argparse's "invalid ... value"."""
    def parse(text):
        return tuple(kind(part) for part in text.split(","))
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def text_parser(f):
    """How one field's value is read from text: its type, or a list of
    ints for the seeds."""
    return comma_list(int) if f.type is tuple else f.type


def _parse_value(f, text):
    """Typed value of a config-file entry; "none"/"null"/empty unsets a
    field whose default is None."""
    if f.default is None and text.lower() in ("none", "null", ""):
        return None
    return text_parser(f)(text)


# accepted aliases, mostly so config files can say "lambda"
_ALIASES = {"lambda": "lam"}


def parse_config_text(text, source="<config>"):
    """Parse ``key = value`` lines into a raw string dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = _ALIASES.get(key, key)
        if key not in FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _is(value, kind):
    """isinstance, counting a bool as no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def load_config(path=None, overrides=None, env=None):
    """Build an ExperimentConfig with full precedence applied.

    ``overrides`` maps field names to already-typed values (None entries
    are ignored, a value of another type is a ConfigError); ``env``
    defaults to os.environ.
    """
    env = os.environ if env is None else env
    values = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                raw = parse_config_text(f.read(), source=path)
        except FileNotFoundError:
            raise ConfigError(f"no such config file: {path}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        for key, text in raw.items():
            try:
                values[key] = _parse_value(FIELDS[key], text)
            except ValueError:
                raise ConfigError(f"{path}: bad value for {key}: {text!r}")
    if DATA_DIR_ENV in env:
        values["data_dir"] = env[DATA_DIR_ENV]
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
        # typed as the field's text parser types it; a float takes an
        # int, and a bool is no number
        kind = FIELDS[key].type
        kind = (int, float) if kind is float else kind
        if not _is(value, kind) or (
                kind is tuple and not all(_is(v, int) for v in value)):
            raise ConfigError(f"bad value for {key}: {value!r}")
        values[key] = value
    return ExperimentConfig(**values)
