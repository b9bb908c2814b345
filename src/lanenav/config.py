"""Run configuration: "key = value" files, override dicts, serialization.

A config file is line-based ``key = value`` text; blank lines and ``#``
comments are skipped, unknown keys and keys given twice are rejected with
their line numbers.
Overrides (CLI flags) use the same keys and beat file values.
"""
from __future__ import annotations

from pathlib import Path

from .mcts import MCTS_INT_KEYS, MCTSConfig
from .models import model_label
from .world import WORLD_INT_KEYS, ConfigError, ObstacleClass, WorldConfig

_WORLD_FLOAT_KEYS = ("level", "spawn_base_rate", "goal_speed", "agent_speed")
_MCTS_FLOAT_KEYS = ("temperature", "c_puct", "prior_kappa", "shaping_beta")

CONFIG_KEYS = WORLD_INT_KEYS + _WORLD_FLOAT_KEYS + MCTS_INT_KEYS + _MCTS_FLOAT_KEYS + ("model",)
# What a bench cell sets for itself: its model, its speed preset's agent_speed and max_steps, and k.
CELL_KEYS = ("model", "agent_speed", "max_steps", "rollout_length")
BENCH_KEYS = tuple(key for key in CONFIG_KEYS if key not in CELL_KEYS)
# What the checks of ``lanenav validate`` read: all but the model, the step limit and the temperature.
VALIDATE_KEYS = tuple(key for key in CONFIG_KEYS if key not in ("model", "max_steps", "temperature"))

DEFAULT_MODEL = "oracle"


def coerce_value(key: str, raw: str, where: str):
    """``raw`` as the type of config or cell key ``key``, model and speed checked; a ConfigError names ``where``."""
    try:
        if key in WORLD_INT_KEYS or key in MCTS_INT_KEYS:
            return int(raw)
        if key in _WORLD_FLOAT_KEYS or key in _MCTS_FLOAT_KEYS:
            return float(raw)
        if key == "model":
            model_label(raw)
        if key == "speed":
            WorldConfig().for_speed(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def read_config_file(path: str | Path, keys: tuple[str, ...] = CONFIG_KEYS) -> dict[str, object]:
    """Parse a key = value file of ``keys`` into a typed dict; errors carry line numbers."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}  # the line of each key read
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is not taken by this command")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice, first at {path}:{lines[key]}")
        lines[key] = lineno
        values[key] = coerce_value(key, raw, f"{path}:{lineno}")
    return values


def coerce_overrides(raw: dict[str, str]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = coerce_value(key, str(value), f"--{key.replace('_', '-')}")
    return out


def build_configs(values: dict[str, object]) -> tuple[WorldConfig, MCTSConfig, str]:
    """Configs from a merged key dict; defaults fill everything absent. Building them validates them."""
    world = WorldConfig(**{k: v for k, v in values.items() if k in WORLD_INT_KEYS + _WORLD_FLOAT_KEYS})
    mcts = MCTSConfig(**{k: v for k, v in values.items() if k in MCTS_INT_KEYS + _MCTS_FLOAT_KEYS})
    return world, mcts, str(values.get("model", DEFAULT_MODEL))


def parse_config(path: str | Path | None = None, overrides: dict[str, str] | None = None,
                 keys: tuple[str, ...] = CONFIG_KEYS) -> tuple[WorldConfig, MCTSConfig, str]:
    """File values (if any) of ``keys`` overridden by flag values."""
    values: dict[str, object] = {}
    if path is not None:
        values.update(read_config_file(path, keys))
    if overrides:
        values.update(coerce_overrides(overrides))
    return build_configs(values)


def _fields_dict(cfg) -> dict:
    """A config dataclass's fields by name, shallow: every value of these configs is immutable."""
    return {name: getattr(cfg, name) for name in cfg.__dataclass_fields__}


def world_config_to_dict(cfg: WorldConfig) -> dict:
    """``dataclasses.asdict`` of ``cfg`` with lists for its tuples, without its deep copies."""
    d = _fields_dict(cfg)
    d["lane_rows"] = list(cfg.lane_rows)
    d["obstacle_classes"] = [_fields_dict(c) for c in cfg.obstacle_classes]
    return d


def world_config_from_dict(d: dict) -> WorldConfig:
    return WorldConfig(**{**d, "lane_rows": tuple(d["lane_rows"]),
                          "obstacle_classes": tuple(ObstacleClass(**c) for c in d["obstacle_classes"])})


def mcts_config_to_dict(cfg: MCTSConfig) -> dict:
    return _fields_dict(cfg)


def mcts_config_from_dict(d: dict) -> MCTSConfig:
    return MCTSConfig(**d)
