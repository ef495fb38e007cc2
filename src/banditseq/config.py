"""Run configuration: a flat ``key = value`` text format.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Every key has a typed default below; unknown or repeated keys are hard
errors so typos never silently fall back to defaults. CLI flags override
file values; a built config is checked once and frozen. The bandit keys
are checked by the loop's own ``TrainingConfig``, which
:meth:`RunConfig.training_config` builds when the config is parsed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .objectives import TrainingConfig

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config",
           "format_config"]


class ConfigError(ValueError):
    """Invalid configuration key, value, or combination."""


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_PAIR_KINDS = {"bin": "binary", "binary": "binary",
               "cont": "continuous", "continuous": "continuous"}


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a pipeline run. Field names are the config keys. Its
    defaults are the only ones of the bandit loop's settings:
    ``TrainingConfig`` keeps none of its own."""

    # model
    embedding_size: int = 32
    hidden_size: int = 64
    vocab_cutoff: int = 1
    max_len: int = 20
    dropout: float = 0.0             # 0 only: dropout was removed
    # optimization
    clip_norm: float = 1.0
    adam_alpha: float = 5e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    optimizer: str = "adam"          # adam only: SGD was removed
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
        if self.pair_feedback not in _PAIR_KINDS:
            raise ConfigError(f"pair_feedback must be bin or cont, "
                              f"got {self.pair_feedback!r}")
        object.__setattr__(self, "pair_feedback",
                           _PAIR_KINDS[self.pair_feedback])
        for key in ("embedding_size", "hidden_size", "vocab_cutoff",
                    "mle_batch", "ggleu_max_n", "runs", "min_sent_len",
                    "train_a", "valid_a", "test_a", "train_b", "valid_b",
                    "test_b"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("mle_epochs", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        for key in ("adam_alpha", "adam_eps", "mle_alpha"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive")
        if (self.dropout, self.optimizer) != (0, "adam"):
            raise ConfigError(f"dropout {self.dropout!r}, optimizer "
                              f"{self.optimizer!r}: dropout and SGD were "
                              f"removed; only 0 and adam are accepted")
        for key in ("adam_beta1", "adam_beta2", "ambiguity"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must be in [0, 1)")
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
        try:
            self.training_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def band_size(self):
        """Source tokens whose image domain B shifts: the last
        ``band_size`` of the ``src_vocab_size``."""
        return round((1.0 - self.overlap) * self.src_vocab_size)

    def training_config(self, seed=0, epoch_size=0):
        """The bandit loop's settings from this config's keys; ``seed`` and
        ``epoch_size`` are the run's own."""
        return TrainingConfig(
            objective=self.objective, cv_mode=self.cv_mode, iters=self.iters,
            valid_interval=self.valid_interval, clip_norm=self.clip_norm,
            seed=seed, alpha=self.adam_alpha, beta1=self.adam_beta1,
            beta2=self.adam_beta2, eps=self.adam_eps,
            baseline_includes_current=self.baseline_includes_current,
            max_len=self.max_len, epoch_size=epoch_size)


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
        if key in values:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
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
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read(), overrides=overrides)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None


def format_config(cfg):
    """Render a RunConfig back to the text format (canonical key order)."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
