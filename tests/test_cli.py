import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import cohsync
from cohsync import channel, cli
from conftest import (
    PRINT_BLAS_THREADS, post_snr_for, run_python, step_trace, traced_peak, write_trace,
)
from cohsync.cli import MAX_GRID_POINTS, main
from cohsync.coherence import MAX_TRIAL_NODES
from cohsync.ranging import MAX_FRAME_SAMPLES, _fast_lengths, _next_fast_len
from cohsync.scenario import read_run_log_csv, summarize_run
from cohsync.waveform import crlb_sigma_r


def make_trace(tmp_path, snr_db=23.0, intervals=3, cadence_s=5.25):
    return write_trace(tmp_path / "trace.csv", step_trace((intervals, snr_db), cadence_s=cadence_s))


def small_config(tmp_path, **controller):
    # 50-pulse intervals keep CLI runs quick
    doc = {
        "channel": {"snr_db": 23.0},
        "loop": {"pulses_per_interval": 50},
        "controller": {"k_p": 0.09, "t_i_s": 34.99, **controller},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc thresholds")
class TestAllocator:
    # a fresh process runs one command, then frees and reallocates about
    # 6 MB of 1-2 MB numpy temporaries a pass; with glibc's default dynamic
    # thresholds every pass trims the heap and faults about 1,000 pages in
    SCRIPT = """
import resource, sys
import numpy as np
from cohsync.cli import main
main(["crlb", "--delta-f", "1e6", "--snr-grid", "1e4:1e5:2", "--out", sys.argv[1]])
def temporaries():
    draws = np.random.default_rng(1).standard_normal((20, 3750, 2))
    frames = draws[..., 0] + 1j * draws[..., 1]
    return float(np.abs(np.fft.ifft(np.fft.fft(frames, axis=1), axis=1)).sum())
temporaries()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    temporaries()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

    def test_freed_temporaries_are_reused_after_main(self, tmp_path):
        stdout = run_python("-c", self.SCRIPT, str(tmp_path / "crlb.csv"))
        assert int(stdout.split()[-1]) < 200  # pages faulted over ten passes


class TestNoScipy:
    """numpy does every transform, so no command path loads scipy.

    The commands also load every module under ``src/cohsync/`` and no
    other, so no module that only the tests use sits in the package.
    """

    SCRIPT = """
import json, sys
from pathlib import Path
import cohsync.cli
out, config, trace = map(Path, sys.argv[1:])
cohsync.cli.main(["crlb", "--delta-f", "1e6", "--snr-grid", "1e4:1e5:2", "--out", str(out / "crlb.csv")])
cohsync.cli.main(["run", "--config", str(config), "--trace", str(trace), "--adaptive",
                  "--seed", "3", "--out", str(out / "run")])
cohsync.cli.main(["montecarlo", "--trials", "100", "--sigma-grid", "0.0:0.1:3",
                  "--seed", "3", "--out", str(out / "mc.csv")])
print(json.dumps(sorted(m for m in sys.modules if m == "cohsync" or m.startswith("cohsync."))))
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

    def test_commands_load_no_scipy(self, tmp_path):
        trace, config = make_trace(tmp_path, intervals=2), small_config(tmp_path)
        stdout = run_python("-c", self.SCRIPT, str(tmp_path), str(config), str(trace))
        assert (tmp_path / "run" / "run_log.csv").is_file()
        assert json.loads(stdout.splitlines()[-1]) == []
        package = Path(cohsync.__file__).parent
        modules = sorted(
            "cohsync" if path.stem == "__init__" else f"cohsync.{path.stem}"
            for path in package.glob("*.py")
        )
        assert json.loads(stdout.splitlines()[-2]) == modules

    def test_fast_length_is_scipys(self):
        from scipy.fft import next_fast_len

        assert all(_next_fast_len(t) == next_fast_len(t) for t in range(1, 2**16 + 1))
        # every length above 2**16, the target just past it, and random targets
        smooth = [n for n in _fast_lengths() if n > 2**16]
        rng = np.random.default_rng(8)
        targets = smooth + [n + 1 for n in smooth[:-1]]
        targets += rng.integers(2**16, MAX_FRAME_SAMPLES, 2000, endpoint=True).tolist()
        assert all(_next_fast_len(t) == next_fast_len(t) for t in targets)
        assert _next_fast_len(MAX_FRAME_SAMPLES) == MAX_FRAME_SAMPLES

    @pytest.mark.parametrize("target", [MAX_FRAME_SAMPLES + 1, 2**61, 2**63 + 1, 10**300])
    def test_fast_length_past_the_frame_limit_overflows(self, target):
        with pytest.raises(OverflowError):
            _next_fast_len(target)


class TestInterpTableIsLazy:
    """Importing the CLI and loading a config leave the interpolation table unbuilt."""

    SCRIPT = """
import sys
import cohsync.cli
from cohsync.config import load_config
from cohsync.ranging import _interp_table
load_config(sys.argv[1])
print(_interp_table.cache_info().currsize)
"""

    def test_setup_builds_no_table(self, tmp_path):
        assert run_python("-c", self.SCRIPT, str(small_config(tmp_path))).split() == ["0"]


class TestRowPoolIsLazy:
    """Windows that draw no whole rows import no executor and start no thread."""

    SCRIPT = """
import sys, threading
import cohsync.cli
from cohsync import channel
from cohsync.config import config_from_dict
from cohsync.scenario import simulate_window
# a lag block beside certified disambiguation peaks, then whole 6.3 kHz rows
for waveform in ({}, {"disambiguation_hz": 6.3e3}):
    config = config_from_dict({"waveform": waveform})
    simulate_window(config.waveform, config.channel, 200, seed=1)
    print("concurrent.futures" in sys.modules, threading.active_count())
print(channel._WORKERS)
"""

    def test_block_window_starts_no_thread(self):
        block, whole, workers = run_python("-c", self.SCRIPT).splitlines()
        assert block == "False 1"
        threads = 1 if int(workers) < 2 else 1 + int(workers)
        assert whole == f"{int(workers) > 1} {threads}"


    FORK = """
import os, signal
from cohsync import channel
from cohsync.config import config_from_dict
from cohsync.scenario import simulate_window
channel._WORKERS = 2
config = config_from_dict({"waveform": {"disambiguation_hz": 6.3e3}})  # whole rows
simulate_window(config.waveform, config.channel, 40, seed=1)  # the parent's pool
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child that waited on its parent's threads would hang
    simulate_window(config.waveform, config.channel, 40, seed=1)
    os._exit(0)
print(os.waitpid(pid, 0)[1])
"""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_forked_child_draws_on_its_own_pool(self):
        assert run_python("-c", self.FORK).split() == ["0"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
class TestBlasPin:
    SCRIPT = """
import sys
from cohsync import cli
cli.main(["crlb", "--delta-f", "1e6", "--snr-grid", "1e4:1e5:2", "--out", sys.argv[1]])
""" + PRINT_BLAS_THREADS

    def test_main_runs_openblas_on_one_thread(self, tmp_path):
        stdout = run_python(
            "-c", self.SCRIPT, str(tmp_path / "crlb.csv"), env={"OPENBLAS_NUM_THREADS": "2"}
        )
        assert stdout.split()[-1] == "1"

    def test_no_openblas_mapped_is_a_no_op(self, monkeypatch):
        import ctypes

        def no_load(*args, **kwargs):
            raise AssertionError("_pin_blas loaded a library")

        monkeypatch.setattr(channel, "_openblas_library", lambda: None)
        monkeypatch.setattr(channel, "_blas", None)  # look the library up again
        monkeypatch.setattr(ctypes, "CDLL", no_load)
        assert cli._pin_blas() is None


class TestCrlbCommand:
    def test_curve_matches_library(self, tmp_path, capsys):
        out = tmp_path / "crlb.csv"
        rc = main(
            ["crlb", "--delta-f", "3.75e6", "--snr-grid", "1e4:1e8:5:log", "--out", str(out)]
        )
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "post_snr_2e_n0,sigma_r_m"
        for line in rows[1:]:
            snr, sigma = map(float, line.split(","))
            assert sigma == pytest.approx(crlb_sigma_r(3.75e6, snr), rel=1e-12)

    def test_scaling_across_grid(self, tmp_path):
        out = tmp_path / "crlb.csv"
        main(["crlb", "--delta-f", "3.75e6", "--snr-grid", "1e4:4e4:2", "--out", str(out)])
        rows = out.read_text().strip().splitlines()[1:]
        sigmas = [float(r.split(",")[1]) for r in rows]
        assert sigmas[0] == pytest.approx(2 * sigmas[1], rel=1e-9)

    def test_bad_grid_spec_fails_cleanly(self, tmp_path, capsys):
        rc = main(["crlb", "--delta-f", "1e6", "--snr-grid", "nope", "--out", "x.csv"])
        assert rc == 1
        assert "grid" in capsys.readouterr().err


class TestMonteCarloCommand:
    def test_deterministic_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["montecarlo", "--trials", "2000", "--sigma-grid", "0.0:0.16:17"]
        assert main(args + ["--seed", "5", "--out", str(out_a)]) == 0
        assert main(args + ["--seed", "5", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_zero_sigma_certain_and_report(self, tmp_path):
        out = tmp_path / "mc.csv"
        rc = main(
            [
                "montecarlo",
                "--trials",
                "2000",
                "--sigma-grid",
                "0.0:0.16:17",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        assert float(rows[0][1]) == 1.0  # sigma = 0
        report = json.loads((tmp_path / "mc.report.json").read_text())
        levels = report["sigma_over_lambda_at_probability"]
        assert set(levels) == {"0.9", "0.8", "0.7"}
        assert levels["0.9"] < levels["0.8"] < levels["0.7"]

    def test_report_carries_standard_errors(self, tmp_path):
        out = tmp_path / "mc.csv"
        argv = ["montecarlo", "--trials", "2000", "--sigma-grid", "0.0:0.16:17", "--seed", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        y = np.array([float(r.split(",")[1]) for r in out.read_text().strip().splitlines()[1:]])
        report = json.loads((tmp_path / "mc.report.json").read_text())
        assert np.allclose(report["probability_standard_error"], np.sqrt(y * (1 - y) / 2000), rtol=1e-12, atol=0)
        errors = report["sigma_over_lambda_standard_error"]
        assert set(errors) == {"0.9", "0.8", "0.7"}
        assert all(0 < e < 0.01 for e in errors.values())

    def test_standard_error_null_where_level_not_crossed(self, tmp_path):
        out = tmp_path / "mc.csv"
        argv = ["montecarlo", "--trials", "1000", "--sigma-grid", "0.0:0.01:3", "--seed", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        report = json.loads((tmp_path / "mc.report.json").read_text())
        assert report["sigma_over_lambda_at_probability"] == {"0.9": None, "0.8": None, "0.7": None}
        assert report["sigma_over_lambda_standard_error"] == {"0.9": None, "0.8": None, "0.7": None}

    @pytest.mark.parametrize("threshold", ["nan", "1.5", "-1", "0"])
    def test_threshold_outside_gain_range_rejected(self, tmp_path, capsys, threshold):
        out = tmp_path / "mc.csv"
        rc = main(["montecarlo", "--threshold", threshold, "--trials", "1000", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: --threshold") and len(err.strip().splitlines()) == 1
        assert "(0, 1]" in err
        assert not out.exists()

    def test_low_trials_warns(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        rc = main(
            ["montecarlo", "--trials", "500", "--sigma-grid", "0.01:0.1:4", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_fail_before_the_warning(self, tmp_path, capsys, trials):
        out = tmp_path / "mc.csv"
        rc = main(["montecarlo", "--trials", trials, "--sigma-grid", "0.01:0.1:4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --trials must be >= 1, got {trials}\n"
        assert not out.exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COHSYNC_SEED", "77")
        out = tmp_path / "mc.csv"
        main(["montecarlo", "--trials", "1000", "--sigma-grid", "0.01:0.1:4", "--out", str(out)])
        report = json.loads((tmp_path / "mc.report.json").read_text())
        assert report["seed"] == 77

    def test_env_seed_must_be_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COHSYNC_SEED", "abc")
        out = tmp_path / "mc.csv"
        rc = main(["montecarlo", "--trials", "1000", "--sigma-grid", "0.01:0.1:4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: COHSYNC_SEED must be an integer, got 'abc'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, env, source",
        [
            (["--seed", "-3"], None, "--seed"),
            ([], "-2", "COHSYNC_SEED"),
            (["--seed", "-3"], "5", "--seed"),  # the flag wins over the variable
        ],
    )
    def test_negative_seed_names_its_source(self, tmp_path, monkeypatch, capsys, flag, env, source):
        # numpy's seed sequences take no negative entropy; the error names
        # the input before any work starts
        if env is not None:
            monkeypatch.setenv("COHSYNC_SEED", env)
        out = tmp_path / "mc.csv"
        rc = main(["montecarlo", "--trials", "1000", "--sigma-grid", "0.01:0.1:4", *flag, "--out", str(out)])
        assert rc == 1
        value = flag[1] if flag else env
        assert capsys.readouterr().err == f"error: {source} must be a non-negative integer, got {value}\n"
        assert not out.exists()


class TestArgumentBounds:
    """Grid and size arguments the model cannot represent fail before any allocation."""

    @staticmethod
    def rejected(tmp_path, capsys, argv) -> str:
        out = tmp_path / "out.csv"
        rc, peak = traced_peak(lambda: main([*argv, "--out", str(out)]))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()
        assert peak < 2**20
        return err

    @pytest.mark.parametrize(
        "grid", ["nan:0.1:3", "0.01:inf:3", "-inf:0.1:3", "0.01:1e400:3", "-1e308:1e308:3"]
    )
    def test_non_finite_sigma_grid(self, tmp_path, capsys, grid):
        err = self.rejected(tmp_path, capsys, ["montecarlo", f"--sigma-grid={grid}"])
        assert "bounds and their span must be finite" in err

    def test_negative_sigma(self, tmp_path, capsys):
        err = self.rejected(tmp_path, capsys, ["montecarlo", "--sigma-grid=-0.1:0.1:3"])
        assert "sigma grid values must be >= 0" in err

    @pytest.mark.parametrize("delta_f", ["inf", "nan", "-1e6"])
    def test_delta_f_not_positive_and_finite(self, tmp_path, capsys, delta_f):
        argv = ["crlb", f"--delta-f={delta_f}", "--snr-grid", "1e4:1e8:5:log"]
        assert "delta_f must be positive and finite" in self.rejected(tmp_path, capsys, argv)

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["montecarlo", "--trials", str(10**12)], "exceeds the limit of"),
            (["montecarlo", "--nodes", str(10**12)], "exceeds the limit of"),
            (["montecarlo", "--sigma-grid", f"0.01:0.2:{10**12}"], "points"),
            (["crlb", "--delta-f", "3.75e6", "--snr-grid", f"1:10:{10**12}"], "points"),
            (["tune", "--k-grid", "0.1:1.0:2", "--intervals", str(2**20 + 1)],
             "--intervals 1048577 exceeds the limit of 1048576"),
        ],
    )
    def test_oversized(self, tmp_path, capsys, argv, fragment):
        assert fragment in self.rejected(tmp_path, capsys, argv)

    @pytest.mark.parametrize(
        "duration, fragment",
        [
            ("1e308", "--duration-s (1e+308 s) holds 1.905e+307 processing intervals of 5.25 s"),
            ("inf", "--duration-s (inf s) holds nan processing intervals"),
            ("5.0", "--duration-s (5.0 s) holds 0 processing intervals"),
        ],
    )
    def test_run_interval_count(self, tmp_path, capsys, duration, fragment):
        # a run holds 1 to 2**20 intervals: 1e308 s would run 1.9e307 of them
        argv = ["run", "--config", str(small_config(tmp_path)), "--trace", str(make_trace(tmp_path)),
                "--fixed", "--duration-s", duration]
        assert fragment in self.rejected(tmp_path, capsys, argv)

    def test_reference_runs_fit_with_margin(self):
        # the benchmark's 16-node, 50,000-trial curve and the 60-point default grid
        assert 20 * 16 * 50_000 <= MAX_TRIAL_NODES
        assert 20 * 60 <= MAX_GRID_POINTS


class TestRunCommand:
    def test_fixed_run_artifacts_and_round_trip(self, tmp_path):
        trace = make_trace(tmp_path)
        config_path = small_config(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(
            [
                "run",
                "--config",
                str(config_path),
                "--trace",
                str(trace),
                "--fixed",
                "--duration-s",
                "10.5",
                "--seed",
                "3",
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        logs = read_run_log_csv(out_dir / "run_log.csv")
        summary = json.loads((out_dir / "summary.json").read_text())
        recomputed = summarize_run(logs)
        assert summary["sigma_d_m"] == recomputed["sigma_d_m"]
        assert summary["f2_hz"] == recomputed["f2_hz"]
        assert summary["mode"] == "fixed"
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        assert resolved["loop"]["pulses_per_interval"] == 50
        assert resolved["channel"]["snr_db"] == 23.0

        # reported accuracy sits within a factor two of the bound
        from cohsync.config import config_from_dict
        from cohsync.ranging import effective_window_length

        config = config_from_dict(json.loads(config_path.read_text()))
        n_win = effective_window_length(config.waveform, config.channel)
        rho = post_snr_for(n_win, 23.0)
        predicted = crlb_sigma_r(config.waveform.two_tone.delta_f, rho) / math.sqrt(5)
        assert predicted / 2 < summary["sigma_d_m"]["mean"] < predicted * 2

    def test_adaptive_run_deterministic(self, tmp_path):
        trace = make_trace(tmp_path)
        config = small_config(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            rc = main(
                [
                    "run",
                    "--config",
                    str(config),
                    "--trace",
                    str(trace),
                    "--adaptive",
                    "--duration-s",
                    "10.5",
                    "--seed",
                    "9",
                    "--out",
                    str(out_dir),
                ]
            )
            assert rc == 0
            outs.append((out_dir / "run_log.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_weather_columns_do_not_reach_the_run(self, tmp_path):
        # the weather reaches the loop only through the SNR column
        plain = write_trace(tmp_path / "plain.csv", step_trace((2, 23.0), (2, 13.0), cadence_s=5.25))
        weather = tmp_path / "weather.csv"
        weather.write_text(
            "timestamp_s,snr_db,wind_mps,humidity_pct,rain_mmhr,temp_c\n"
            "0.0,23.0,12.0,95.0,25.0,4.5\n5.25,23.0,,80.0,0.5,\n"
            "10.5,13.0,3.0,99.0,40.0,-2.0\n15.75,13.0,0.0,,,30.0\n"
        )
        config = small_config(tmp_path)
        logs = []
        for trace in (plain, weather):
            out_dir = tmp_path / trace.stem
            argv = ["run", "--config", str(config), "--trace", str(trace), "--adaptive",
                    "--duration-s", "21.0", "--seed", "9", "--out", str(out_dir)]
            assert main(argv) == 0
            logs.append((out_dir / "run_log.csv").read_bytes())
        assert logs[0] == logs[1]
        assert [l.snr_db for l in read_run_log_csv(tmp_path / "weather" / "run_log.csv")] == [
            23.0, 23.0, 13.0, 13.0
        ]

    def test_spreadless_run_writes_null_frequencies(self, tmp_path):
        # at 330 dB every pulse ranges alike, so sigma_d is 0 and no finite
        # carrier frequency bounds the coherent gain
        trace = write_trace(tmp_path / "trace.csv", step_trace((2, 330.0), cadence_s=5.25))
        out_dir = tmp_path / "out"
        argv = ["run", "--config", str(small_config(tmp_path)), "--trace", str(trace), "--fixed",
                "--duration-s", "10.5", "--seed", "3", "--out", str(out_dir)]
        assert main(argv) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["sigma_d_m"]["mean"] == 0.0
        assert summary["max_coherent_frequency_hz"] == {"0.9": None, "0.8": None, "0.7": None}

    def test_empty_trace_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("timestamp_s,snr_db\n")
        rc = main(["run", "--trace", str(bad), "--fixed", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "no records" in capsys.readouterr().err

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"controller": {"kp": 1e-5}}))
        trace = make_trace(tmp_path)
        rc = main(
            ["run", "--config", str(cfg), "--trace", str(trace), "--fixed", "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "controller.kp" in capsys.readouterr().err


class TestTuneCommand:
    def test_not_found_on_timid_grid(self, tmp_path, capsys):
        config = small_config(tmp_path, x_initial_hz=1.8e6)
        out = tmp_path / "tune.json"
        rc = main(
            [
                "tune",
                "--config",
                str(config),
                "--k-grid",
                "1e-4:3e-4:2",
                "--intervals",
                "16",
                "--seed",
                "101",
                "--out",
                str(out),
            ]
        )
        assert rc == 0  # report written and valid, just nothing found
        report = json.loads(out.read_text())
        assert report["found"] is False
        assert "no grid gain" in capsys.readouterr().err

    def test_finds_gain_and_reports_zn(self, tmp_path):
        config = small_config(tmp_path, x_initial_hz=1.8e6)
        out = tmp_path / "tune.json"
        rc = main(
            [
                "tune",
                "--config",
                str(config),
                "--k-grid",
                "0.1:0.5:3",
                "--intervals",
                "24",
                "--seed",
                "101",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["found"] is True
        assert report["k_p"] == pytest.approx(0.45 * report["k_u"], rel=1e-12)
        assert report["t_i_s"] == pytest.approx(0.833 * report["t_u_s"], rel=1e-12)


class TestWarmCache:
    """Frames cached by an earlier command give the bytes a fresh process gives."""

    def test_tune_twice_in_process_equals_a_fresh_process(self, tmp_path):
        # k = 1.0 drives the loop from clamp to clamp, so its windows reuse
        # cached ranging frames; the second command starts with every frame cached
        config = small_config(tmp_path, x_initial_hz=1.8e6)
        argv = ["tune", "--config", str(config), "--k-grid", "0.1:1.0:2", "--intervals", "16", "--seed", "3"]
        outs = [tmp_path / f"tune{k}.json" for k in range(3)]
        for out in outs[:2]:
            assert main([*argv, "--out", str(out)]) == 0
        run_python("-m", "cohsync.cli", *argv, "--out", str(outs[2]))
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


class TestConfigSnr:
    """``channel.snr_db`` is the ``tune`` plant's SNR; ``run`` reads every SNR from its trace."""

    def test_run_ignores_it_and_tune_reads_it(self, tmp_path, monkeypatch):
        # the trace ends at 10.5 s and the run lasts five 5.25 s intervals,
        # so its last two intervals hold the last record
        trace, logs, series = make_trace(tmp_path), [], []
        real = cli.ranging_sigma_plant

        def recording(config, **kwargs):
            plant = real(config, **kwargs)
            return lambda k: series.append(plant(k)) or series[-1]

        monkeypatch.setattr(cli, "ranging_sigma_plant", recording)
        for snr_db in (0.0, 40.0):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"channel": {"snr_db": snr_db}, "loop": {"pulses_per_interval": 50}}))
            out, argv = tmp_path / f"run{snr_db}", ["--config", str(config), "--seed", "3"]
            run = ["--trace", str(trace), "--fixed", "--duration-s", "26.25", "--out", str(out)]
            assert main(["run", *argv, *run]) == 0
            logs.append((out / "run_log.csv").read_bytes())
            tune = ["--k-grid", "0.1:0.1:1", "--intervals", "13", "--out", str(out / "tune.json")]
            assert main(["tune", *argv, *tune]) == 0
        assert logs[0] == logs[1]
        assert [log.snr_db for log in read_run_log_csv(out / "run_log.csv")] == [23.0] * 5
        assert len(series) == 2 and series[0].mean() > 10 * series[1].mean()


class TestLoadTimeRejection:
    """Values the model cannot hold fail at load time with one error line."""

    @staticmethod
    def run_with(tmp_path, capsys, config_text=None, trace_text=None):
        cfg = tmp_path / "config.json"
        cfg.write_text(config_text or "{}")
        trace = tmp_path / "trace.csv"
        if trace_text is None:
            trace = make_trace(tmp_path)
        else:
            trace.write_text(trace_text)
        rc = main(
            ["run", "--config", str(cfg), "--trace", str(trace), "--fixed", "--out", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()
        return err

    @pytest.mark.parametrize(
        "config_text, fragment",
        [
            ('{"channel": {"true_range_m": Infinity}}', "'channel.true_range_m' must be finite"),
            ('{"loop": {"group_size": 0}}', "group_size must be positive"),
            ('{"loop": {"pulses_per_interval": 5}}', "at least two groups"),
            ('{"channel": {"true_range_m": 1e6}}', "round-trip delay"),
            ('{"waveform": {"pri_s": -Infinity}}', "'waveform.pri_s' must be finite"),
            ('{"controller": {"k_p": Infinity}}', "'controller.k_p' must be finite"),
            ('{"channel": {"snr_db": -Infinity}}', "'channel.snr_db' must be finite or +Infinity"),
            ('{"waveform": {"disambiguation_hz": 0}}', "f_d=0.0"),
            ('{"waveform": {"sample_rate_hz": 1' + "0" * 400 + "}}", "'waveform.sample_rate_hz' must be finite"),
            ('{"waveform": {"sample_rate_hz": 25e9}}', "exceeds the limit"),
            ('{"controller": {"x_max_hz": 2e7}}', "f2=20020000.0 aliases"),
            ('{"controller": {"x_min_hz": -1e3}}', "controller.x_min_hz=-1000.0"),
            ('{"controller": {"x_min_hz": 2.8e5}}', "controller.x_min_hz=280000.0 Hz must exceed 284090.9"),
            ('{"waveform": {"f1_hz": -5}}',
             "config key 'waveform.f1_hz': f1=-5.0: need 0 <= f1 <= f2, got f1=-5.0, f2=3479995.0"),
            # f1 is at fault, so no note on the upper tone derived from it follows
            ('{"waveform": {"f1_hz": -5}, "controller": {"x_initial_hz": 1e6}}',
             "config key 'waveform.f1_hz': f1=-5.0: need 0 <= f1 <= f2, got f1=-5.0, f2=999995.0\n"),
            ('{"controller": {"x_initial_hz": -1e4}}',
             "config key 'controller.x_initial_hz': f2=10000.0: need 0 <= f1 <= f2, got f1=20000.0, "
             "f2=10000.0 (f2 is f1_hz + controller.x_initial_hz)"),
            ('{"channel": {"snr_db": 4000}}', "snr_db=4000.0 has no positive finite"),
            ('{"channel": {"snr_db": -4000}}', "snr_db=-4000.0 has no positive finite"),
            ('{"seed": -1}', "seed must be a non-negative integer, got -1"),
            ('{"channel": {"snr_db": 20, "snr_db": 30}}', "config key 'snr_db' appears twice"),
            ('{"seed": 3, "seed": 4}', "config key 'seed' appears twice"),
            ('{"waveform": {"ranging_pulse_width_s": 0}}', "ranging_pulse_width=0.0 s is under 2"),
            ('{"waveform": {"ranging_pulse_width_s": -1e-4}}', "ranging_pulse_width=-0.0001 s is under 2"),
            ('{"waveform": {"ranging_pulse_width_s": 1e-9}}', "ranging_pulse_width=1e-09 s is under 2"),
            ('{"controller": {"x_initial_hz": 8e6}}',
             "config key 'controller.x_initial_hz': x_prev=8000000.0 outside clamp [300000.0, 7500000.0]"),
            ('{"controller": {"t_i_s": 0}}', "config key 'controller.t_i_s': t_i must be positive"),
            ('{"channel": {"true_range_m": -1}}', "config key 'channel.true_range_m': true_range must be >= 0"),
            ('{"waveform": {"sample_rate_hz": 0}}',
             "config key 'waveform.sample_rate_hz': sample_rate must be positive"),
            ('{"waveform": {"pri_s": 1e-6}}', "config key 'waveform.pri_s': pri must cover the longest pulse"),
            # a residual carrier offset that shifts a tone past fs/2 aliases it: at
            # 12.4 MHz the clamp's tones alias, at 25 MHz every tone aliases to itself
            ('{"channel": {"residual_offset_hz": 12.4e6}}',
             "channel.residual_offset_hz = 12400000.0 Hz shifts the tone "
             "at waveform.f1_hz + controller.x_min_hz = 320000.0 Hz to 12720000.0 Hz"),
            ('{"channel": {"residual_offset_hz": 25e6}}',
             "channel.residual_offset_hz = 25000000.0 Hz shifts the tone "
             "at waveform.f1_hz = 20000.0 Hz to 25020000.0 Hz, where it aliases"),
            # the count of 2e-318 s intervals in the trace overflows the float range
            ('{"loop": {"pulse_period_s": 1e-320}}',
             "holds inf processing intervals of 1.99998e-318 s (loop.pulses_per_interval x loop.pulse_period_s)"),
        ],
    )
    def test_config_value(self, tmp_path, capsys, config_text, fragment):
        assert fragment in self.run_with(tmp_path, capsys, config_text=config_text)

    @pytest.mark.parametrize(
        "trace_text, fragment",
        [
            ("timestamp_s,snr_db\n0.0,20.0\nnan,20.0\n60.0,20.0\n", "line 3: timestamp_s"),
            ("timestamp_s,snr_db\n0.0,20.0\n60.0,inf\n", "line 3: snr_db"),
            ("timestamp_s,snr_db\n0.0,\n", "line 2: snr_db"),
            ("timestamp_s,snr_db\n0.0,20.0\n60.0,4000\n", "line 3: snr_db=4000.0 has no"),
            ("timestamp_s,snr_db\n0.0,-4000\n", "line 2: snr_db=-4000.0 has no"),
            ("timestamp_s,snr_db\n0.0,20.0\n1e308,20.0\n",
             "the span of its timestamps (1e+308 s) holds 4.762e+306 processing intervals of 21.0 s"),
        ],
    )
    def test_trace_value(self, tmp_path, capsys, trace_text, fragment):
        assert fragment in self.run_with(tmp_path, capsys, trace_text=trace_text)

    @pytest.mark.parametrize("intervals", ["12", "7", "0", "-3"])
    def test_short_tune_run(self, tmp_path, capsys, intervals):
        # 13 is the shortest run whose tail can show five periods of two intervals
        out = tmp_path / "tune.json"
        rc = main(["tune", "--k-grid", "0.1:1.0:2", "--intervals", intervals, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: --intervals {intervals} is below 13")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_noise_free_snr_still_accepted(self):
        from cohsync.config import config_from_dict

        assert config_from_dict({"channel": {"snr_db": math.inf}}).channel.snr_db == math.inf

    def test_montecarlo_section_is_unknown(self):
        from cohsync.config import ConfigError, config_from_dict

        with pytest.raises(ConfigError, match="unknown config key 'montecarlo'"):
            config_from_dict({"montecarlo": {"trials": 100}})
