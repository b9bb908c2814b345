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
from .world import ConfigError, ObstacleClass, WorldConfig

_WORLD_INT_KEYS = ("grid_h", "grid_w", "goal_size", "max_steps", "warmup_steps", "master_seed")
_WORLD_FLOAT_KEYS = ("level", "spawn_base_rate", "goal_speed", "agent_speed")
_MCTS_INT_KEYS = ("n_rollouts", "rollout_length")
_MCTS_FLOAT_KEYS = ("temperature", "c_puct", "prior_kappa", "shaping_beta")
_STR_KEYS = ("model", "speed")

CONFIG_KEYS = _WORLD_INT_KEYS + _WORLD_FLOAT_KEYS + _MCTS_INT_KEYS + _MCTS_FLOAT_KEYS + _STR_KEYS

DEFAULT_MODEL = "oracle"


def _coerce(key: str, raw: str, where: str):
    try:
        if key in _WORLD_INT_KEYS or key in _MCTS_INT_KEYS:
            return int(raw)
        if key in _WORLD_FLOAT_KEYS or key in _MCTS_FLOAT_KEYS:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {raw!r}") from exc


def read_config_file(path: str | Path) -> dict[str, object]:
    """Parse a key = value file into a typed dict; errors carry line numbers."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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
        values[key] = _coerce(key, raw, f"{path}:{lineno}")
    return values


def coerce_overrides(raw: dict[str, str]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = _coerce(key, str(value), "override")
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


def parse_config(path: str | Path | None = None,
                 overrides: dict[str, str] | None = None) -> tuple[WorldConfig, MCTSConfig, str]:
    """File values (if any) overridden by flag values."""
    values: dict[str, object] = {}
    if path is not None:
        values.update(read_config_file(path))
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
