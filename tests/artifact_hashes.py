"""SHA-256 of every artifact a change to the estimator must keep byte for byte.

Run from anywhere, on the checkout that holds this file:

    python tests/artifact_hashes.py --seeds 1 7919

Each command runs in a fresh ``python -m cohsync.cli`` process on this
checkout's ``src/``, and standard output gets one ``seed name sha256``
line per artifact, so ``diff`` between the outputs of two checkouts is
the check.  The set:

- the adaptive-step run's ``run_log.csv``, ``summary.json`` and
  ``resolved_config.json``;
- the tune-scan ``tune.json``;
- the 16-node Monte-Carlo ``curve.csv`` and ``curve.report.json``;
- fixed runs at the default clamp's 0.3 MHz with ``residual_offset_hz``
  -50 (an unlocked carrier), at 0.285 MHz, just above the separation floor
  (158 of the 159 lags a block holds), at 7.5 MHz and -3 dB, at 7.5 MHz
  and -25 dB (19 to 29 gross errors in a run's 600 pulses at either
  seed), at 3.5 MHz and -20 dB (every disambiguation row completed
  around its largest far modulus), with a 6.3 kHz disambiguation tone at
  13 dB (disambiguation rows drawn whole, the template being longer than
  the window) and with a 50 kHz one at -10 dB (whole rows too, since its
  500-sample template's near product would cost more than a whole row;
  at this SNR a window's coarse lags spread over 10 to 14 values, so the
  record changes if the rows are drawn otherwise), at 0.3 MHz and -25 dB
  (two of a run's 600 pulses at either seed have their dense argmax
  within 8 points of a grid end, so their splines read the grid's end
  points and peak off the centre knot), and at 3.5 MHz with the SNR
  alternating between 23 and 13 dB every interval (a lag-block factor
  reused across SNRs would change it), each with the same three files as
  the adaptive-step run;
- noise-free 50-pulse windows at 0.285, 0.3, 3.5 and 7.5 MHz, whose
  ranges a fresh ``python -c`` process hashes, since a trace holds no
  infinite SNR.

pytest does not collect this file (it is no ``test_*.py``).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# The adaptive-step and tune-scan inputs, copied from cohbench/run.py.
INTERVAL_S = 21.0  # 200 pulses x 105 ms
STEP_AT, STEP_INTERVALS = 12, 42
TUNED = {"k_p": 0.09, "t_i_s": 34.99, "x_initial_hz": 3.5e6}
K_GRID_SPEC, TUNE_INTERVALS = "0.1:1.0:2", 24
MC_ARGS = ["--nodes", "16", "--trials", "50000", "--sigma-grid", "0.02:0.05:7"]

# name -> (config keys, trace SNRs in dB, repeated over the records)
FIXED_RUNS = {
    "fixed-0.3MHz-offset50": ({"controller": {"x_initial_hz": 0.3e6},
                               "channel": {"residual_offset_hz": -50.0}}, (20.0,)),
    "fixed-0.285MHz": ({"controller": {"x_initial_hz": 0.285e6, "x_min_hz": 0.285e6}}, (20.0,)),
    "fixed-7.5MHz-minus3dB": ({"controller": {"x_initial_hz": 7.5e6}}, (-3.0,)),
    "fixed-7.5MHz-minus25dB": ({"controller": {"x_initial_hz": 7.5e6}}, (-25.0,)),
    "fixed-3.5MHz-minus20dB": ({"controller": {"x_initial_hz": 3.5e6}}, (-20.0,)),
    "fixed-disamb6.3kHz": ({"waveform": {"disambiguation_hz": 6.3e3}}, (13.0,)),
    "fixed-disamb50kHz-minus10dB": ({"waveform": {"disambiguation_hz": 50e3}}, (-10.0,)),
    "fixed-0.3MHz-minus25dB": ({"controller": {"x_initial_hz": 0.3e6}}, (-25.0,)),
    "fixed-3.5MHz-snr-alternating": ({"controller": {"x_initial_hz": 3.5e6}}, (23.0, 13.0)),
}
FIXED_INTERVALS = 3
NOISE_FREE_SEPARATIONS_HZ = (0.285e6, 0.3e6, 3.5e6, 7.5e6)

NOISE_FREE_WINDOWS = """
import hashlib, math, sys
from dataclasses import replace
from cohsync.config import default_config
from cohsync.scenario import simulate_window
from cohsync.waveform import TwoToneSpec
config = default_config()
f1, state = config.waveform.two_tone.f1, replace(config.channel, snr_db=math.inf)
for separation in map(float, sys.argv[2:]):
    waveform = replace(config.waveform, two_tone=TwoToneSpec(f1, f1 + separation))
    ranges, gross = simulate_window(waveform, state, 50, int(sys.argv[1]))
    digest = hashlib.sha256(ranges.tobytes() + str(gross).encode()).hexdigest()
    print(f"noise-free-{separation / 1e6:g}MHz/ranges", digest)
"""


def cli(*argv: str) -> None:
    subprocess.run([sys.executable, "-m", "cohsync.cli", *argv], env=ENV, check=True,
                   stdout=subprocess.DEVNULL)


def trace(path: Path, snr_db, intervals: int) -> Path:
    """A trace of ``intervals + 1`` records one interval apart; ``snr_db(k)`` for record k."""
    rows = [f"{k * INTERVAL_S!r},{snr_db(k)!r}" for k in range(intervals + 1)]
    path.write_text("\n".join(["timestamp_s,snr_db", *rows]) + "\n")
    return path


def config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifacts(seed: int, work: Path):
    """``(name, sha256)`` of every artifact at ``seed``, written under ``work``."""
    s = str(seed)
    out = work / "adaptive-step"
    cli("run", "--config", str(config(work / "adaptive.json", {"channel": {"snr_db": 23.0},
                                                                "controller": TUNED})),
        "--trace", str(trace(work / "step.csv", lambda k: 23.0 if k < STEP_AT else 13.0,
                             STEP_INTERVALS)),
        "--adaptive", "--seed", s, "--out", str(out))
    yield "adaptive-step/run_log.csv", digest(out / "run_log.csv")
    yield "adaptive-step/summary.json", digest(out / "summary.json")
    yield "adaptive-step/resolved_config.json", digest(out / "resolved_config.json")

    out = work / "tune.json"
    cli("tune", "--config", str(config(work / "tune-config.json", {"channel": {"snr_db": 20.0}})),
        "--k-grid", K_GRID_SPEC, "--intervals", str(TUNE_INTERVALS), "--seed", s, "--out", str(out))
    yield "tune-scan/tune.json", digest(out)

    out = work / "curve.csv"
    cli("montecarlo", *MC_ARGS, "--seed", s, "--out", str(out))
    yield "montecarlo-16/curve.csv", digest(out)
    yield "montecarlo-16/curve.report.json", digest(work / "curve.report.json")

    for name, (doc, snrs) in FIXED_RUNS.items():
        out = work / name
        cli("run", "--config", str(config(work / f"{name}.json", doc)),
            "--trace", str(trace(work / f"{name}.csv", lambda k: snrs[k % len(snrs)], FIXED_INTERVALS)),
            "--fixed", "--seed", s, "--out", str(out))
        yield f"{name}/run_log.csv", digest(out / "run_log.csv")
        yield f"{name}/summary.json", digest(out / "summary.json")
        yield f"{name}/resolved_config.json", digest(out / "resolved_config.json")

    lines = subprocess.run(
        [sys.executable, "-c", NOISE_FREE_WINDOWS, s, *map(repr, NOISE_FREE_SEPARATIONS_HZ)],
        env=ENV, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    for line in lines:
        yield tuple(line.split())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7919])
    args = parser.parse_args()
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            for name, sha in artifacts(seed, Path(tmp)):
                print(seed, name, sha, flush=True)


if __name__ == "__main__":
    main()
