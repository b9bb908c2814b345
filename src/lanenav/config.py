"""Run configuration: "key = value" files, override dicts, serialization.

A config file is line-based ``key = value`` text; blank lines and ``#``
comments are skipped, unknown keys are rejected with their line number.
Overrides (CLI flags) use the same keys and beat file values. The ``speed``
key is a preset expanding to agent_speed and max_steps; an explicit value for
either of those wins over the preset.
"""
from __future__ import annotations

from dataclasses import asdict, replace
from pathlib import Path

from .mcts import MCTSConfig
from .models import model_label
from .world import ConfigError, ObstacleClass, WorldConfig

_WORLD_INT_KEYS = ("grid_h", "grid_w", "goal_size", "max_steps", "warmup_steps", "master_seed")
_WORLD_FLOAT_KEYS = ("level", "spawn_base_rate", "goal_speed", "agent_speed")
_MCTS_INT_KEYS = ("n_rollouts", "rollout_length")
_MCTS_FLOAT_KEYS = ("temperature", "c_puct", "prior_kappa", "shaping_beta")
_STR_KEYS = ("model", "speed")

CONFIG_KEYS = _WORLD_INT_KEYS + _WORLD_FLOAT_KEYS + _MCTS_INT_KEYS + _MCTS_FLOAT_KEYS + _STR_KEYS
# What a bench cell sets for itself: its model, its speed preset (agent_speed, max_steps) and k.
CELL_KEYS = ("model", "speed", "agent_speed", "max_steps", "rollout_length")
BENCH_KEYS = tuple(key for key in CONFIG_KEYS if key not in CELL_KEYS)

DEFAULT_MODEL = "oracle"


def coerce_value(key: str, raw: str, where: str):
    """``raw`` as the type of config key ``key``, model and speed checked; a ConfigError names ``where``."""
    try:
        if key in _WORLD_INT_KEYS or key in _MCTS_INT_KEYS:
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
    """Configs from a merged key dict; defaults fill everything absent."""
    world = WorldConfig()
    if "speed" in values:
        world = world.for_speed(str(values["speed"]))
    world_fields = {k: v for k, v in values.items() if k in _WORLD_INT_KEYS + _WORLD_FLOAT_KEYS}
    if world_fields:
        world = replace(world, **world_fields)

    mcts_fields = {k: v for k, v in values.items() if k in _MCTS_INT_KEYS + _MCTS_FLOAT_KEYS}
    mcts = MCTSConfig(**mcts_fields)

    world.validate()
    mcts.validate()
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


def world_config_to_dict(cfg: WorldConfig) -> dict:
    d = asdict(cfg)
    d["lane_rows"] = list(cfg.lane_rows)
    d["obstacle_classes"] = [asdict(c) for c in cfg.obstacle_classes]
    return d


def _require_int(name: str, value) -> None:
    """Serialized integer fields must be JSON integers, not floats or booleans."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def world_config_from_dict(d: dict) -> WorldConfig:
    for key in _WORLD_INT_KEYS:
        if key in d:
            _require_int(key, d[key])
    for row in d["lane_rows"]:
        _require_int("lane_rows", row)
    for c in d["obstacle_classes"]:
        _require_int("class_id", c["class_id"])
    classes = tuple(ObstacleClass(**c) for c in d["obstacle_classes"])
    fields = dict(d)
    fields["lane_rows"] = tuple(d["lane_rows"])
    fields["obstacle_classes"] = classes
    return WorldConfig(**fields)


def mcts_config_to_dict(cfg: MCTSConfig) -> dict:
    return asdict(cfg)


def mcts_config_from_dict(d: dict) -> MCTSConfig:
    for key in _MCTS_INT_KEYS:
        if key in d:
            _require_int(key, d[key])
    return MCTSConfig(**d)
