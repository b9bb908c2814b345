import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import FUZZ_VALUES
from lanenav import checks, cli
from lanenav.cli import main
from lanenav.config import BENCH_KEYS, CELL_KEYS, CONFIG_KEYS, VALIDATE_KEYS
from lanenav.mcts import MAX_ROLLOUT_LENGTH, MAX_ROLLOUTS
from lanenav.models import MAX_NOISY_SAMPLES, model_label, split_model_specs
from lanenav.tracefile import read_trace
from lanenav.world import MAX_STEPS


@pytest.fixture
def fast_flags(tmp_path):
    """Keep CLI runs quick: tiny step budget and rollout count."""
    return ["--max-steps", "40", "--n-rollouts", "20", "--rollout-length", "1",
            "--out-dir", str(tmp_path)]


@pytest.fixture
def bench_flags(tmp_path):
    """Keep bench runs quick: tiny rollout count (each cell sets its own steps and k)."""
    return ["--n-rollouts", "20", "--out-dir", str(tmp_path)]


class TestPlay:
    def test_play_exit_zero(self, fast_flags, capsys):
        assert main(["play", *fast_flags]) == 0
        out = capsys.readouterr().out
        assert "outcome=" in out

    def test_play_writes_trace(self, fast_flags, tmp_path):
        assert main(["play", *fast_flags, "--trace", "ep.jsonl"]) == 0
        trace = read_trace(tmp_path / "ep.jsonl")
        assert trace.model_spec == "oracle"
        assert len(trace.steps) >= 1

    def test_play_dump_frames(self, fast_flags, tmp_path):
        assert main(["play", *fast_flags, "--dump-frames"]) == 0
        frames = sorted(tmp_path.glob("frame_*.ppm"))
        assert len(frames) >= 2
        assert frames[0].read_bytes().startswith(b"P6\n48 48\n255\n")

    def test_config_file_plus_flags(self, tmp_path, fast_flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = frozen\nlevel = 2\n")
        assert main(["play", "--config", str(cfg), *fast_flags]) == 0

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["play", "--config", str(cfg)]) == 2

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# caf\xe9\nlevel = 2\n".encode("latin-1"))
        assert main(["play", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: not UTF-8 text")

    def test_bad_flag_value_exit_code(self):
        assert main(["play", "--temperature", "0"]) == 2

    @pytest.mark.parametrize("flag, value", [("--agent-speed", "nan"), ("--level", "inf")])
    def test_non_finite_world_value_exit_code(self, flag, value, capsys):
        assert main(["play", flag, value, "--max-steps", "5"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("episode", ["3", "0"])
    def test_episode_and_seed_exclude_each_other(self, episode, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["play", "--episode", episode, "--seed", "5"])
        assert exc.value.code == 2
        assert "argument --seed: not allowed with argument --episode" in capsys.readouterr().err


class TestBench:
    def test_bench_writes_csv(self, bench_flags, tmp_path, capsys):
        code = main(["bench", *bench_flags, "--models", "oracle,frozen",
                     "--ks", "1", "--episodes", "2", "--csv", "out.csv"])
        assert code == 0
        csv_text = (tmp_path / "out.csv").read_text()
        assert csv_text.startswith("model,n_samples,speed,k,G,T,D,S_mean,S_std,episodes")
        assert len(csv_text.strip().split("\n")) == 3
        assert "oracle" in capsys.readouterr().out


    def test_readme_models_list(self, tmp_path, capsys):
        # the README's bench command, one episode per cell
        code = main(["bench", "--models", "oracle,velocity,noisy:0.1,0.02,1.0,5", "--ks", "1,3,5,10",
                     "--speeds", "1x,2x", "--episodes", "1", "--parallelism", "4",
                     "--csv", "table.csv", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "table.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 3 * 4 * 2
        assert sum(row.startswith("noisy,5,") for row in rows) == 8

    @pytest.mark.parametrize("via_env", [False, True])
    def test_relative_out_dir_holds_default_csv(self, tmp_path, monkeypatch, via_env):
        monkeypatch.chdir(tmp_path)
        flags = ["--n-rollouts", "5", "--ks", "1", "--episodes", "1"]
        if via_env:
            monkeypatch.setenv("LANENAV_OUT_DIR", "rel")
        else:
            flags += ["--out-dir", "rel"]
        assert main(["bench", *flags]) == 0
        assert (tmp_path / "rel" / "bench.csv").read_text().startswith("model,")
        assert not (tmp_path / "rel" / "rel").exists()

    def test_split_models_keeps_noisy_fields(self):
        assert split_model_specs("oracle, noisy:0.1,0.02,1.0,5 ,frozen") == [
            "oracle", "noisy:0.1,0.02,1.0,5", "frozen"]
        assert split_model_specs("noisy,noisy:0.2,0,1,3") == ["noisy", "noisy:0.2,0,1,3"]

    def test_short_noisy_spec_exit_code(self, bench_flags, capsys):
        assert main(["bench", *bench_flags, "--models", "noisy:0.1,0.02", "--episodes", "1"]) == 2
        assert "config error: --models: bad value for 'model': noisy model spec needs 4 fields" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [["bench", "--models"], ["play", "--model"]])
    def test_noisy_sample_count_past_the_bound_exit_code(self, argv, capsys):
        assert main([*argv, f"noisy:0.1,0.02,1,{MAX_NOISY_SAMPLES + 1}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {argv[1]}: bad value for 'model'") and "Traceback" not in err
        assert f"n in 1..{MAX_NOISY_SAMPLES}" in err

    def test_non_finite_temperature_exit_code(self):
        assert main(["bench", "--temperature", "nan", "--episodes", "1"]) == 2

    @pytest.mark.parametrize("ks", ["0", "1,-1"])
    def test_non_positive_k_exit_code(self, bench_flags, ks, capsys):
        assert main(["bench", *bench_flags, "--ks", ks, "--episodes", "1"]) == 2
        assert "config error: rollout_length must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["play", "--n-rollouts", str(MAX_ROLLOUTS + 1)], f"n_rollouts must be <= {MAX_ROLLOUTS}"),
        (["bench", "--ks", f"1,{MAX_ROLLOUT_LENGTH + 1}"], f"rollout_length must be <= {MAX_ROLLOUT_LENGTH}"),
    ])
    def test_planner_size_past_the_bound_exit_code(self, tmp_path, argv, message, capsys):
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("config", [False, True])
    def test_max_steps_past_the_bound_exit_code(self, tmp_path, config, capsys):
        # Once an episode's draws and steps allocated 8 bytes and more per step before any check.
        if config:
            (tmp_path / "cfg.txt").write_text("max_steps = 1000000000000\n")
            argv = ["play", "--config", str(tmp_path / "cfg.txt")]
        else:
            argv = ["play", "--max-steps", "1000000000000"]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: max_steps must be <= {MAX_STEPS}, got 1000000000000")
        assert "Traceback" not in err

    @pytest.mark.parametrize("ks", ["abc", "1,3.5", "1,"])
    def test_non_integer_k_exit_code(self, bench_flags, ks, capsys):
        assert main(["bench", *bench_flags, "--ks", ks, "--episodes", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --ks: bad value for 'rollout_length'")
        assert "Traceback" not in err

    # speed: each cell's preset, which is no config key at all.
    @pytest.mark.parametrize("key", CELL_KEYS + ("speed",))
    def test_cell_key_flag_rejected(self, key, capsys):
        flag = f"--{key.replace('_', '-')}"
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, "1", "--episodes", "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key", CELL_KEYS)
    def test_cell_key_config_line_rejected(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"level = 2\n{key} = 1\n")
        assert main(["bench", "--config", str(cfg), "--episodes", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}:2: key {key!r} is not taken")

    @pytest.mark.parametrize("command, keys", [("play", CONFIG_KEYS), ("validate", VALIDATE_KEYS),
                                               ("bench", BENCH_KEYS)])
    def test_config_key_flags_per_command(self, command, keys):
        parser = cli.build_parser()
        for key in keys:
            args = parser.parse_args([command, f"--{key.replace('_', '-')}", "1"])
            assert getattr(args, f"cfg_{key}") == "1"


class TestRender:
    def test_render_triptych(self, fast_flags, tmp_path):
        assert main(["play", *fast_flags, "--trace", "ep.jsonl"]) == 0
        out_dir = tmp_path / "imgs"
        code = main(["render", "--trace", str(tmp_path / "ep.jsonl"), "--step", "0",
                     "--horizon", "3", "--model", "velocity", "--out-dir", str(out_dir)])
        assert code == 0
        for i in (1, 2, 3):
            for prefix in ("true", "pred", "error"):
                assert (out_dir / f"{prefix}_{i:02d}.ppm").exists()

    @pytest.mark.parametrize("bad_line", ["{not json", '{"t": 1}'])
    def test_render_bad_trace_exit_code(self, fast_flags, tmp_path, capsys, bad_line):
        assert main(["play", *fast_flags, "--trace", "ep.jsonl"]) == 0
        path = tmp_path / "ep.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], bad_line, *lines[2:]]) + "\n")
        capsys.readouterr()
        code = main(["render", "--trace", str(path), "--step", "0", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}:2:" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, bound", [("n_rollouts", MAX_ROLLOUTS), ("rollout_length", MAX_ROLLOUT_LENGTH)])
    def test_render_planner_size_past_the_bound_in_header(self, fast_flags, tmp_path, capsys, key, bound):
        assert main(["play", *fast_flags, "--trace", "ep.jsonl"]) == 0
        path = tmp_path / "ep.jsonl"
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["mcts"][key] = bound + 1
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        capsys.readouterr()
        assert main(["render", "--trace", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bad trace: {path}:1:") and f"{key} must be <= {bound}" in err
        assert "Traceback" not in err

    def test_render_non_utf8_trace_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "ep.jsonl"
        path.write_bytes(b"\xff{}\n")
        assert main(["render", "--trace", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"bad trace: {path}: not UTF-8 text")

    def test_render_trace_without_steps(self, fast_flags, tmp_path, capsys):
        assert main(["play", *fast_flags, "--trace", "ep.jsonl"]) == 0
        path = tmp_path / "ep.jsonl"
        header = json.loads(path.read_text().splitlines()[0])
        path.write_text(json.dumps({**header, "outcome": "running"}) + "\n")
        capsys.readouterr()
        assert main(["render", "--trace", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"{path}: trace has no steps\n"

    def test_render_bad_step(self, fast_flags, tmp_path):
        assert main(["play", *fast_flags, "--trace", "ep.jsonl"]) == 0
        code = main(["render", "--trace", str(tmp_path / "ep.jsonl"), "--step", "9999",
                     "--out-dir", str(tmp_path)])
        assert code == 2


class Reached(Exception):
    """The CLI accepted its input and got as far as the episode runner."""


@pytest.fixture
def runner_checks(monkeypatch):
    """Stand in for the episode runners with the checks they make before their first episode,
    and for validate's four checks with a stub that checks nothing."""
    def episode(world_cfg, mcts_cfg, model_spec, *args, **kwargs):
        model_label(model_spec)
        raise Reached

    def benchmark(cells, world_cfg, mcts_cfg, *args, **kwargs):
        for cell in cells:
            model_label(cell.model_spec)
            world_cfg.for_speed(cell.speed)
            replace(mcts_cfg, rollout_length=cell.rollout_length).validate()
        raise Reached
    def check(*args, **kwargs):
        raise Reached
    monkeypatch.setattr(cli, "run_episode", episode)
    monkeypatch.setattr(cli, "run_benchmark", benchmark)
    for name in ("spawn_rate", "goal_speed", "visit_conservation", "oracle_exactness"):
        monkeypatch.setattr(checks, name, check)


@pytest.mark.parametrize("argv", [["bench", "--models", "bogus"], ["play", "--model", "bogus"]])
def test_bad_model_flag_named_before_any_episode(runner_checks, argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {argv[1]}: bad value for 'model'")


@pytest.mark.parametrize("argv, source", [(["bench", "--speeds", "2x,3x"], "--speeds"),
                                          (["bench", "--speeds", "1x,,2x"], "--speeds")])
def test_bad_speed_flag_named_before_any_episode(runner_checks, argv, source, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {source}: bad value for 'speed': unknown speed preset")


@pytest.mark.parametrize("command", ["play", "validate"])
def test_speed_flag_rejected(runner_checks, command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--speed", "1x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --speed 1x" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["play", "validate", "bench"])
def test_speed_config_line_is_an_unknown_key(runner_checks, command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 2\nspeed = 1x\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {cfg}:2: unknown key 'speed'")


def test_bad_model_config_line_named_before_any_episode(runner_checks, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 2\nmodel = bogus\n")
    assert main(["play", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {cfg}:2: bad value for 'model'")


@pytest.mark.parametrize("command, own_flags", [
    ("play", ["--episode", "--seed"]),
    ("bench", ["--models", "--ks", "--speeds", "--episodes", "--parallelism"]),
    ("validate", ["--quick"]),
])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flag_fuzz_exits_2_or_reaches_the_runner(runner_checks, capsys, command, own_flags, data):
    # Every config key, and the bench-only speed preset, so that each flag a command lacks is fuzzed too.
    flags = [f"--{key.replace('_', '-')}" for key in CONFIG_KEYS + ("speed",)] + own_flags
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(flags), FUZZ_VALUES), max_size=3))
    capsys.readouterr()
    try:
        code = main([command, *(item for pair in pairs for item in pair)])
    except SystemExit as exc:  # argparse's own rejection
        code = exc.code
    except Reached:
        return
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--episodes", "0"], "--episodes"),
    (["bench", "--parallelism", "-3"], "--parallelism"),
    (["bench", "--episodes", "two"], "--episodes"),
    (["render", "--trace", "ep.jsonl", "--horizon", "0"], "--horizon"),
    (["render", "--trace", "ep.jsonl", "--horizon", "65"], "--horizon"),
])
def test_integer_flag_below_one_rejected(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unknown", [
    (["play", "--bogus", "1"], "--bogus 1"),
    (["bench", "--max-steps", "30"], "--max-steps 30"),
    (["render", "--trace", "ep.jsonl", "--bogus"], "--bogus"),
    (["validate", "--model", "frozen"], "--model frozen"),
], ids=["play", "bench", "render", "validate"])
def test_unknown_flag_reported_by_the_subcommand(argv, unknown, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lanenav {argv[0]} ")
    assert f"lanenav {argv[0]}: error: unrecognized arguments: {unknown}\n" in err


class TestValidate:
    def test_validate_quick_passes(self, capsys):
        assert main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    @pytest.mark.parametrize("key, value", [("model", "frozen"), ("max_steps", "5"), ("temperature", "7")])
    def test_key_no_check_reads_flag_rejected(self, key, value, capsys):
        flag = f"--{key.replace('_', '-')}"
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--quick", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("model", "frozen"), ("max_steps", "5"), ("temperature", "7")])
    def test_key_no_check_reads_config_line_rejected(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"level = 2\n{key} = {value}\n")
        assert main(["validate", "--quick", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}:2: key {key!r} is not taken")


class TestOutDirEnv:
    def test_env_var_used_when_no_flag(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("LANENAV_OUT_DIR", str(target))
        code = main(["play", "--max-steps", "30", "--n-rollouts", "10",
                     "--rollout-length", "1", "--trace", "ep.jsonl"])
        assert code == 0
        assert (target / "ep.jsonl").exists()
