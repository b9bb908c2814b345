import json
import re
from dataclasses import asdict, fields, replace

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from conftest import FUZZ_VALUES
from lanenav.cli import main
from lanenav.config import (
    CONFIG_KEYS,
    build_configs,
    mcts_config_from_dict,
    mcts_config_to_dict,
    parse_config,
    world_config_from_dict,
    world_config_to_dict,
)
from lanenav.mcts import MCTSConfig
from lanenav.world import DEFAULT_CLASSES, ConfigError, ObstacleClass, WorldConfig

# A config file line: a known or unknown key with a fuzzed value, or any text.
CONFIG_LINES = st.builds("{} = {}".format, st.sampled_from(CONFIG_KEYS + ("bogus",)), FUZZ_VALUES) | st.text(max_size=20)


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("")
        world, mcts, model = parse_config(path)
        assert world == WorldConfig()
        assert mcts == MCTSConfig()
        assert model == "oracle"

    def test_no_file_gives_defaults(self):
        world, mcts, model = parse_config()
        assert world == WorldConfig()
        assert mcts == MCTSConfig()

    def test_level_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("level = 6\n")
        world, _, _ = parse_config(path)
        assert world.level == 6.0

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nlevel = 3\n")
        world, _, _ = parse_config(path)
        assert world.level == 3.0

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("level = 6\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r":2"):
            parse_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("max_steps = soon\n")
        with pytest.raises(ConfigError, match=r":1"):
            parse_config(path)

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match=r":1"):
            parse_config(path)

    def test_key_given_twice_names_both_lines(self, tmp_path, capsys):
        # The second value used to win silently; now neither does, through the library or the CLI.
        path = tmp_path / "c.cfg"
        path.write_text("level = 2\n# again\nmodel = frozen\nlevel = 9\n")
        message = f"{path}:4: key 'level' given twice, first at {path}:1"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        assert main(["play", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("level = 6\nmodel = frozen\n")
        world, _, model = parse_config(path, {"level": "2", "model": "velocity"})
        assert world.level == 2.0
        assert model == "velocity"

    def test_speed_is_not_a_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key 'speed'"):
            parse_config(overrides={"speed": "1x"})
        path = tmp_path / "c.cfg"
        path.write_text("level = 6\nspeed = 1x\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: unknown key 'speed'")):
            parse_config(path)

    def test_any_rollout_length_accepted(self):
        _, mcts, _ = parse_config(overrides={"rollout_length": "4"})
        assert mcts.rollout_length == 4

    def test_range_violation_named(self):
        with pytest.raises(ConfigError, match="temperature"):
            parse_config(overrides={"temperature": "0"})
        with pytest.raises(ConfigError, match="agent_speed"):
            parse_config(overrides={"agent_speed": "-1"})

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(overrides={"bogus": "1"})

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=st.lists(CONFIG_LINES, max_size=6).map(lambda lines: "\n".join(lines).encode())
           | st.binary(max_size=40))
    def test_file_fuzz_raises_only_config_errors(self, tmp_path, content):
        path = tmp_path / "c.cfg"
        path.write_bytes(content)
        try:
            parse_config(path)
        except ConfigError:
            pass

    def test_build_configs_mcts_fields(self):
        _, mcts, _ = build_configs({"n_rollouts": 17, "c_puct": 0.9, "prior_kappa": 1.1})
        assert mcts.n_rollouts == 17
        assert mcts.c_puct == 0.9
        assert mcts.prior_kappa == 1.1


class TestSerialization:
    def test_world_round_trip(self):
        cfg = WorldConfig(level=3.0, lane_rows=(4, 8), master_seed=99)
        assert world_config_from_dict(world_config_to_dict(cfg)) == cfg

    def test_mcts_round_trip(self):
        cfg = MCTSConfig(n_rollouts=7, rollout_length=5, shaping_beta=0.3)
        assert mcts_config_from_dict(mcts_config_to_dict(cfg)) == cfg

    @given(st.data())
    def test_header_json_is_that_of_asdict(self, data):
        """The trace header's sort_keys JSON of both configs has the bytes of ``dataclasses.asdict``'s, lists
        for the world's tuples."""
        world, mcts = data.draw(_WORLD_CONFIGS), data.draw(_MCTS_CONFIGS)
        expected = asdict(world)
        expected.update(lane_rows=list(world.lane_rows), obstacle_classes=list(expected["obstacle_classes"]))
        assert world_config_to_dict(world) == expected and mcts_config_to_dict(mcts) == asdict(mcts)
        assert json.dumps(world_config_to_dict(world), sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert json.dumps(mcts_config_to_dict(mcts), sort_keys=True) == json.dumps(asdict(mcts), sort_keys=True)
        assert world_config_from_dict(world_config_to_dict(world)) == world


def _valid(cls, **fields):
    """``cls(**fields)``, or no example where its validation rejects them."""
    try:
        return cls(**fields)
    except ConfigError:
        reject()


_REALS = st.floats(0.0, 4.0)
_CLASSES = st.lists(st.builds(ObstacleClass, st.integers(1, 5), st.floats(0.01, 4.0), _REALS, st.floats(1.0, 8.0),
                              _REALS), min_size=1, max_size=5).map(tuple)
_WORLD_CONFIGS = st.builds(
    lambda **fields: _valid(WorldConfig, **fields), grid_h=st.integers(48, 128), grid_w=st.integers(2, 128),
    level=_REALS, spawn_base_rate=st.floats(0.0, 0.1), lane_rows=st.lists(st.integers(0, 47), unique=True,
                                                                          max_size=8).map(tuple),
    obstacle_classes=_CLASSES, goal_speed=_REALS, goal_size=st.integers(1, 2), agent_speed=st.floats(0.1, 4.0),
    max_steps=st.integers(1, 500), warmup_steps=st.integers(0, 100), master_seed=st.integers(0, 2 ** 64))
_MCTS_CONFIGS = st.builds(
    lambda **fields: _valid(MCTSConfig, **fields), n_rollouts=st.integers(1, 100), rollout_length=st.integers(1, 64),
    temperature=st.floats(0.001, 10.0), c_puct=_REALS, prior_kappa=_REALS, death_value=st.floats(-100.0, 0.0),
    goal_value=st.floats(0.0, 100.0), shaping_beta=_REALS)


def _real_fields(cls) -> list[str]:
    return [f.name for f in fields(cls) if f.type == "float"]


# Every real-valued config field, with a builder of a config holding ``value`` in it.
REAL_FIELDS = (
    [(name, lambda name, v: WorldConfig(**{name: v})) for name in _real_fields(WorldConfig)]
    + [(name, lambda name, v: MCTSConfig(**{name: v})) for name in _real_fields(MCTSConfig)]
    + [(name, lambda name, v: WorldConfig(obstacle_classes=(replace(DEFAULT_CLASSES[0], **{name: v}),)))
       for name in _real_fields(ObstacleClass)]
)


class TestRealFields:
    def test_every_real_field_listed(self):
        assert len(REAL_FIELDS) == 14

    @pytest.mark.parametrize("name, make", REAL_FIELDS, ids=[name for name, _ in REAL_FIELDS])
    def test_boolean_rejected_naming_the_field(self, name, make):
        for value in (True, False):
            with pytest.raises(ConfigError, match=f"{name} must be finite, got {value}"):
                make(name, value)
