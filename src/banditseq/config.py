"""Run configuration: a flat ``key = value`` text format.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Every key has a typed default below; unknown keys are hard errors so typos
never silently fall back to defaults. CLI flags override file values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "format_config"]


class ConfigError(ValueError):
    """Invalid configuration key, value, or combination."""


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_OBJECTIVES = ("el", "pr")
_CV_MODES = ("none", "baseline", "sf")
_PAIR_KINDS = {"bin": "binary", "binary": "binary",
               "cont": "continuous", "continuous": "continuous"}
_OPTIMIZERS = ("adam", "sgd")


@dataclass
class RunConfig:
    """All knobs of a pipeline run. Field names are the config keys."""

    # model
    embedding_size: int = 32
    hidden_size: int = 64
    vocab_cutoff: int = 1
    max_len: int = 20
    dropout: float = 0.0
    # optimization
    clip_norm: float = 1.0
    adam_alpha: float = 5e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    optimizer: str = "adam"          # bandit stage only: MLE uses Adam
    sgd_decay: float = 0.0
    mle_alpha: float = 1e-3
    mle_epochs: int = 2
    mle_batch: int = 8
    # bandit stage
    objective: str = "el"
    cv_mode: str = "none"
    pair_feedback: str = "continuous"
    baseline_includes_current: bool = True
    iters: int = 20000
    valid_interval: int = 1000
    # experiment
    seed: int = 13
    runs: int = 2
    stages: str = "gen-data,build-vocab,train-mle,train-bandit,evaluate"
    data_dir: str = ""
    out_dir: str = "out"
    seed_checkpoint: str = ""
    ggleu_max_n: int = 4
    # synthetic task
    src_vocab_size: int = 96
    overlap: float = 0.7
    band_weight_a: float = 0.1
    band_weight_b: float = 0.5
    ambiguity: float = 0.25
    swap_a: bool = True
    swap_b: bool = True
    min_sent_len: int = 3
    max_sent_len: int = 8
    train_a: int = 10000
    valid_a: int = 1000
    test_a: int = 1000
    train_b: int = 2000
    valid_b: int = 500
    test_b: int = 500

    def __post_init__(self):
        if self.objective not in _OBJECTIVES:
            raise ConfigError(f"objective must be one of {_OBJECTIVES}, "
                              f"got {self.objective!r}")
        if self.cv_mode not in _CV_MODES:
            raise ConfigError(f"cv_mode must be one of {_CV_MODES}, "
                              f"got {self.cv_mode!r}")
        if self.pair_feedback not in _PAIR_KINDS:
            raise ConfigError(f"pair_feedback must be bin or cont, "
                              f"got {self.pair_feedback!r}")
        self.pair_feedback = _PAIR_KINDS[self.pair_feedback]
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {_OPTIMIZERS}, "
                              f"got {self.optimizer!r}")
        for key in ("embedding_size", "hidden_size", "max_len", "mle_batch",
                    "ggleu_max_n", "min_sent_len", "train_a", "valid_a",
                    "test_a", "train_b", "valid_b", "test_b"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.mle_epochs < 0:
            raise ConfigError("mle_epochs must be >= 0")
        if self.iters < 0:
            raise ConfigError("iters must be >= 0")
        if self.valid_interval < 1:
            raise ConfigError("valid_interval must be >= 1")
        for key in ("clip_norm", "adam_alpha", "adam_eps", "mle_alpha"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive")
        for key in ("dropout", "adam_beta1", "adam_beta2", "ambiguity"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must be in [0, 1)")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.sgd_decay < 0:
            raise ConfigError("sgd_decay must be >= 0")
        if self.src_vocab_size < 2:
            raise ConfigError("src_vocab_size must be >= 2")
        if self.min_sent_len > self.max_sent_len:
            raise ConfigError(f"min_sent_len {self.min_sent_len} exceeds "
                              f"max_sent_len {self.max_sent_len}")
        for key in ("overlap", "band_weight_a", "band_weight_b"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ConfigError(
                    f"{key} must be in [0, 1], got {getattr(self, key)}")
        if self.band_size == 1:
            raise ConfigError(
                "a bijection cannot differ from another in exactly one entry; "
                "choose an overlap giving a shifted band of 0 or >= 2 entries"
            )

    @property
    def band_size(self):
        """Source tokens whose image domain B shifts: the last
        ``band_size`` of the ``src_vocab_size``."""
        return round((1.0 - self.overlap) * self.src_vocab_size)

    def stage_list(self):
        return [s.strip() for s in self.stages.split(",") if s.strip()]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config(text, overrides=None):
    """Parse config text; ``overrides`` (a dict) wins over file values."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _convert(key, value, lineno)
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown override key {key!r}")
            values[key] = value
    return RunConfig(**values)


def _convert(key, value, lineno):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "bool":
            return _parse_bool(value)
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")


def load_config(path, overrides=None):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides=overrides)


def format_config(cfg):
    """Render a RunConfig back to the text format (canonical key order)."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
