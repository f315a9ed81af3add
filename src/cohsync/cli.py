"""Command-line front end: curves, Monte-Carlo analysis, scenario runs.

Subcommands
-----------
crlb        ranging-accuracy bound versus post-processing SNR, as CSV
montecarlo  coherent-gain probability curve and sigma/lambda thresholds
run         fixed-bandwidth or adaptive trace replay (log CSV + summary)
tune        ultimate-gain search on the simulated ranging loop

Every command is deterministic under ``--seed`` (falling back to the
``COHSYNC_SEED`` environment variable, then the config seed); reruns
with the same seed produce byte-identical output files.  Floats are
written with the shortest representation that round-trips exactly.
Grid arguments use ``start:stop:num`` (linear) or ``start:stop:num:log``.
"""

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import coherence
from .channel import openblas_threads
from .config import ConfigError, RunConfig, default_config, load_config, save_config
from .control import MIN_SERIES_LENGTH, find_ultimate_gain, ziegler_nichols_gains
from .scenario import (
    MAX_INTERVALS,
    _fmt,
    interval_count,
    ranging_sigma_plant,
    read_run_log_csv,
    read_trace_csv,
    run_adaptive,
    run_fixed_bandwidth,
    summarize_run,
    write_run_log_csv,
)
from .waveform import crlb_sigma_r

# Limit on the points of one grid argument.  crlb peaks at about 44 bytes
# a point (tracemalloc), so about 2.9 MB here; the default sigma grid has
# 60 points.
MAX_GRID_POINTS = 2**16

# glibc's mallopt parameters, and the values main fixes them to.  Blocks up
# to the mmap threshold come from the heap, and freed heap up to the trim
# threshold stays mapped for reuse.  16 MiB covers a window's temporaries
# and a 16-node, 50,000-trial curve's geometry draw (6.4 MB).  One arena
# keeps the threads of channel.map_chunks, which draw whole rows and run
# curve chunks, allocating from the main heap, which those thresholds govern.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 16 << 20, 32 << 20


def _pin_allocator() -> None:
    """Fix glibc's malloc thresholds for this process (nothing without glibc).

    By default glibc raises its mmap threshold to the largest block freed so
    far.  Whether a command's multi-megabyte numpy temporaries are reused
    from the heap, or mapped and page-faulted afresh on every call, then
    depends on what the process happened to free before.  Fixed thresholds
    make it the same from the first command on.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


def _pin_blas() -> None:
    """Run numpy's OpenBLAS on one thread: its workers would spin on the whole-row draw's cores."""
    openblas_threads()[1](1)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"bad grid spec '{spec}' (want start:stop:num[:log])")
    try:
        start, stop = float(parts[0]), float(parts[1])
        num = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid spec '{spec}': {exc}") from exc
    if not math.isfinite(stop - start):  # a non-finite bound, or a span past the float range
        raise ValueError(f"bad grid spec '{spec}': bounds and their span must be finite")
    if num < 1:
        raise ValueError(f"bad grid spec '{spec}': need at least one point")
    if num > MAX_GRID_POINTS:
        raise ValueError(f"bad grid spec '{spec}': more than {MAX_GRID_POINTS} points")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError(f"bad grid spec '{spec}': unknown scale '{parts[3]}'")
        if start <= 0 or stop <= 0:
            raise ValueError(f"bad grid spec '{spec}': log scale needs positive bounds")
        return np.geomspace(start, stop, num)
    return np.linspace(start, stop, num)


def _write_curve(path, header: list[str], xs, ys) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(x), _fmt(y)] for x, y in zip(xs, ys))


def _resolve_seed(args, config: RunConfig | None = None) -> int:
    source, seed = "--seed", getattr(args, "seed", None)
    env = os.environ.get("COHSYNC_SEED")
    if seed is None and env is not None:
        try:
            source, seed = "COHSYNC_SEED", int(env)
        except ValueError:
            raise ValueError(f"COHSYNC_SEED must be an integer, got {env!r}") from None
    if seed is None:
        return 0 if config is None else config.seed
    if seed < 0:  # numpy's seed sequences take none
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _load_config_arg(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config()


def _cmd_crlb(args) -> int:
    grid = _parse_grid(args.snr_grid)
    if np.any(grid <= 0):
        raise ValueError("SNR grid values must be positive")
    sigma = [crlb_sigma_r(args.delta_f, snr) for snr in grid]
    _write_curve(args.out, ["post_snr_2e_n0", "sigma_r_m"], grid, sigma)
    print(f"wrote {len(sigma)} points to {args.out}")
    return 0


def _by_level(values: dict[float, float]) -> dict[str, float | None]:
    """Per-level values keyed as JSON strings, NaN written as null."""
    return {str(level): (None if math.isnan(v) else v) for level, v in values.items()}


def _cmd_montecarlo(args) -> int:
    if not 0.0 < args.threshold <= 1.0:
        raise ValueError(f"--threshold {args.threshold} must lie in (0, 1], the range of the coherent gain")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.trials < 1000:
        print(
            f"warning: {args.trials} trials is below the 1000 recommended "
            "for stable thresholds",
            file=sys.stderr,
        )
    seed = _resolve_seed(args)
    grid = _parse_grid(args.sigma_grid)  # sigma_d / lambda
    if np.any(grid < 0):
        raise ValueError("sigma grid values must be >= 0")
    y = coherence.probability_curve(
        coherence.ArrayScenario(n_nodes=args.nodes), grid, threshold=args.threshold,
        trials=args.trials, seed=seed,
    )
    _write_curve(args.out, ["sigma_over_lambda", "probability"], grid, y)
    crossings = coherence.threshold_crossings(grid, y)
    crossing_errors = coherence.crossing_standard_errors(grid, y, args.trials)
    report = {
        "nodes": args.nodes,
        "threshold": args.threshold,
        "trials": args.trials,
        "seed": seed,
        "sigma_over_lambda_at_probability": _by_level(crossings),
        "sigma_over_lambda_standard_error": _by_level(crossing_errors),
        "probability_standard_error": coherence.binomial_standard_error(y, args.trials).tolist(),
    }
    report_path = args.report or str(Path(args.out).with_suffix(".report.json"))
    Path(report_path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report["sigma_over_lambda_at_probability"], indent=2))
    print(f"wrote curve to {args.out} and report to {report_path}")
    return 0


def _cmd_run(args) -> int:
    config = _load_config_arg(args)
    seed = _resolve_seed(args, config)
    trace = read_trace_csv(args.trace)
    duration, name = args.duration_s, "--duration-s"
    if duration is None:
        duration = max(trace[-1].timestamp_s - trace[0].timestamp_s, config.loop.interval_duration_s)
        name = f"{args.trace}: the span of its timestamps"
    interval_count(duration, config.loop.interval_duration_s, name)
    runner = run_adaptive if args.adaptive else run_fixed_bandwidth
    logs = runner(config, trace, duration, seed=seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "run_log.csv"
    write_run_log_csv(log_path, logs)
    # summary is computed from the re-read CSV so the written artifacts
    # are guaranteed to round-trip to the reported statistics
    summary = summarize_run(read_run_log_csv(log_path))
    summary["mode"] = "adaptive" if args.adaptive else "fixed"
    summary["seed"] = seed
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    save_config(config, out_dir / "resolved_config.json")
    print(
        f"{summary['mode']} run: {summary['intervals']} intervals, "
        f"mean sigma_d = {summary['sigma_d_m']['mean'] * 1e3:.2f} mm, "
        f"final f2 = {summary['f2_hz']['final'] / 1e6:.3f} MHz"
    )
    print(f"wrote {log_path}, summary.json, resolved_config.json")
    return 0


def _cmd_tune(args) -> int:
    if args.intervals < MIN_SERIES_LENGTH:
        raise ValueError(
            f"--intervals {args.intervals} is below {MIN_SERIES_LENGTH}, the fewest "
            "the oscillation test examines"
        )
    if args.intervals > MAX_INTERVALS:
        raise ValueError(f"--intervals {args.intervals} exceeds the limit of {MAX_INTERVALS}")
    config = _load_config_arg(args)
    seed = _resolve_seed(args, config)
    k_grid = _parse_grid(args.k_grid)
    plant = ranging_sigma_plant(config, n_intervals=args.intervals, seed=seed)
    result = find_ultimate_gain(plant, k_grid, dt=config.loop.interval_duration_s)
    if result is None:
        report = {"found": False, "k_grid": args.k_grid, "seed": seed}
        print("no grid gain produced a sustained oscillation", file=sys.stderr)
    else:
        k_p, t_i = ziegler_nichols_gains(result.k_u, result.t_u)
        report = {
            "found": True,
            "k_u": result.k_u,
            "t_u_s": result.t_u,
            "k_p": k_p,
            "t_i_s": t_i,
            "seed": seed,
        }
        print(
            f"K_u = {result.k_u:.4g}, T_u = {result.t_u:.4g} s -> "
            f"K_p = {k_p:.4g}, T_i = {t_i:.4g} s"
        )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohsync",
        description="Two-tone ranging / frequency synchronization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crlb", help="ranging accuracy bound vs post-processing SNR")
    p.add_argument("--delta-f", type=float, required=True, help="half tone separation, Hz")
    p.add_argument("--snr-grid", required=True, help="2E/N0 grid, start:stop:num[:log]")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_crlb)

    p = sub.add_parser("montecarlo", help="coherent-gain probability curve")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--threshold", type=float, default=0.9, help="gain threshold X, in (0, 1]")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--sigma-grid", default="0.01:0.2:60", help="sigma_d/lambda grid")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--report", default=None, help="threshold report JSON path")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("run", help="replay an environment trace")
    p.add_argument("--config", default=None, help="run config JSON")
    p.add_argument("--trace", required=True, help="environment trace CSV")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--adaptive", action="store_true")
    mode.add_argument("--fixed", action="store_true")
    p.add_argument("--duration-s", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("tune", help="ultimate-gain search on the ranging loop")
    p.add_argument("--config", default=None, help="run config JSON")
    p.add_argument("--k-grid", required=True, help="proportional gain grid")
    p.add_argument(
        "--intervals", type=int, default=30, help=f"plant run length, {MIN_SERIES_LENGTH} to {MAX_INTERVALS}"
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_tune)

    return parser


def main(argv=None) -> int:
    _pin_allocator()
    _pin_blas()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
