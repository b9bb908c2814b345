import pytest

from lanenav.cli import main
from lanenav.models import split_model_specs
from lanenav.tracefile import read_trace


@pytest.fixture
def fast_flags(tmp_path):
    """Keep CLI runs quick: tiny step budget and rollout count."""
    return ["--max-steps", "40", "--n-rollouts", "20", "--rollout-length", "1",
            "--out-dir", str(tmp_path)]


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

    def test_bad_flag_value_exit_code(self):
        assert main(["play", "--temperature", "0"]) == 2

    @pytest.mark.parametrize("flag, value", [("--agent-speed", "nan"), ("--level", "inf")])
    def test_non_finite_world_value_exit_code(self, flag, value, capsys):
        assert main(["play", flag, value, "--max-steps", "5"]) == 2
        assert "config error" in capsys.readouterr().err


class TestBench:
    def test_bench_writes_csv(self, fast_flags, tmp_path, capsys):
        code = main(["bench", *fast_flags, "--models", "oracle,frozen",
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
        flags = ["--max-steps", "20", "--n-rollouts", "5", "--ks", "1", "--episodes", "1"]
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

    def test_short_noisy_spec_exit_code(self, fast_flags):
        assert main(["bench", *fast_flags, "--models", "noisy:0.1,0.02", "--episodes", "1"]) == 1

    def test_non_finite_temperature_exit_code(self):
        assert main(["bench", "--temperature", "nan", "--episodes", "1"]) == 2

    @pytest.mark.parametrize("ks", ["0", "1,-1"])
    def test_non_positive_k_exit_code(self, fast_flags, ks, capsys):
        assert main(["bench", *fast_flags, "--ks", ks, "--episodes", "1"]) == 2
        assert "config error: rollout_length must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("ks", ["abc", "1,3.5", "1,"])
    def test_non_integer_k_exit_code(self, fast_flags, ks, capsys):
        assert main(["bench", *fast_flags, "--ks", ks, "--episodes", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --ks: bad value for 'rollout_length'")
        assert "Traceback" not in err


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

    def test_render_bad_step(self, fast_flags, tmp_path):
        assert main(["play", *fast_flags, "--trace", "ep.jsonl"]) == 0
        code = main(["render", "--trace", str(tmp_path / "ep.jsonl"), "--step", "9999",
                     "--out-dir", str(tmp_path)])
        assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--episodes", "0"], "--episodes"),
    (["bench", "--parallelism", "-3"], "--parallelism"),
    (["bench", "--episodes", "two"], "--episodes"),
    (["render", "--trace", "ep.jsonl", "--horizon", "0"], "--horizon"),
])
def test_integer_flag_below_one_rejected(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


class TestValidate:
    def test_validate_quick_passes(self, capsys):
        assert main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out


class TestOutDirEnv:
    def test_env_var_used_when_no_flag(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("LANENAV_OUT_DIR", str(target))
        code = main(["play", "--max-steps", "30", "--n-rollouts", "10",
                     "--rollout-length", "1", "--trace", "ep.jsonl"])
        assert code == 0
        assert (target / "ep.jsonl").exists()
