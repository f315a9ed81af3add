"""cohsync benchmark: one workload, driven through the real CLI in this process.

Run from the root of a checkout:

    python3 cohbench/run.py --workload adaptive-step --seed 1 --seconds 30 --trace 0

The process calls ``cohsync.cli.main(argv)`` from its one thread, command
after command, for about ``--seconds`` seconds (at least two commands), with
``--seed`` passed to every command.  It sets no thread-count variables; it
records them.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Times are given at a reference speed (speed.py), since the
host's speed drifts.  The line before the result holds provenance, exact
counts, raw times, artifact hashes and every check.  NOTES.md says why each
workload exists and which layer metric should move which end-to-end metric.

Exits with status 2, printing no result, when the checkout holds no
importable cohsync.
"""

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from spans import Tracer
from speed import REFERENCE_S, SpeedReference

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".cohbench"

# Seed kept back for confirming a claimed gain on inputs the change was not
# developed against.
HOLDOUT_SEED = 7919
SETUP_REPEATS = 5
MIN_COMMANDS = 2

# adaptive-step: acceptance criterion 4's trace and tuned gains.
INTERVAL_S = 21.0  # 200 pulses x 105 ms
STEP_AT, STEP_INTERVALS = 12, 42
TUNED = {"k_p": 0.09, "t_i_s": 34.99, "x_initial_hz": 3.5e6}
# tune-scan: the lower gain is below the stability boundary and the upper
# one drives the loop into a clamp-to-clamp cycle, so the scan runs both.
K_GRID, K_GRID_SPEC, TUNE_INTERVALS = [0.1, 1.0], "0.1:1.0:2", 24
# montecarlo-array
MC_NODES, MC_TRIALS, MC_GRID = 16, 50000, (0.02, 0.05, 7)
TWO_NODE_ARGS = ["--nodes", "2", "--trials", "10000", "--sigma-grid", "0.02:0.16:57"]

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Setup as a user pays it: a fresh interpreter imports the CLI and loads the
# workload's config and trace.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import cohsync.cli
from cohsync.config import load_config
from cohsync.scenario import read_trace_csv
if sys.argv[2]:
    load_config(sys.argv[2])
if sys.argv[3]:
    read_trace_csv(sys.argv[3])
"""


@dataclass
class Workload:
    """How to run, time and check one workload."""

    step: tuple[str, str]  # (cohsync module, function) timed once per call
    argv: Callable[[Path], list[str]]  # command writing into an output directory
    artifacts: tuple[str, ...]  # files hashed after every command
    check: Callable[[Path, list], list[dict]]  # checks on the first command's output and all commands
    config: str = ""
    trace: str = ""
    before: list[str] = field(default_factory=list)  # untimed command run first
    before_check: Callable[[], list[dict]] | None = None


def count_window(counts: Counter, args, kwargs, result) -> None:
    ranges, gross = result
    counts["pulses"] += len(ranges)
    counts["gross_errors"] += gross


def count_curve(counts: Counter, args, kwargs, result) -> None:
    scenario, grid = args[0], args[1]
    counts["gain_evals"] += kwargs["trials"] * len(grid) * scenario.n_nodes


def make_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "adaptive-step":
        config, trace = work / "config.json", work / "trace.csv"
        config.write_text(json.dumps({"channel": {"snr_db": 23.0}, "controller": TUNED}))
        rows = ["timestamp_s,snr_db"] + [
            f"{k * INTERVAL_S!r},{23.0 if k < STEP_AT else 13.0!r}" for k in range(STEP_INTERVALS + 1)]
        trace.write_text("\n".join(rows) + "\n")
        return Workload(
            step=("scenario", "simulate_window"),
            argv=lambda out: ["run", "--config", str(config), "--trace", str(trace), "--adaptive",
                              "--seed", str(seed), "--out", str(out)],
            artifacts=("run_log.csv", "summary.json"),
            check=lambda out, commands: checks.adaptive_step(
                out, step_at=STEP_AT, target_m=0.010, f1_hz=20e3, x_min_hz=0.0, x_max_hz=7.5e6,
                intervals=STEP_INTERVALS, seed=seed)
            + [checks.zero_gross_errors([c.counts["gross_errors"] for c in commands])],
            config=str(config), trace=str(trace))
    if name == "tune-scan":
        config = work / "config.json"
        config.write_text(json.dumps({"channel": {"snr_db": 20.0}}))
        return Workload(
            step=("scenario", "simulate_window"),
            argv=lambda out: ["tune", "--config", str(config), "--k-grid", K_GRID_SPEC,
                              "--intervals", str(TUNE_INTERVALS), "--seed", str(seed),
                              "--out", str(out / "tune.json")],
            artifacts=("tune.json",),
            check=lambda out, commands: checks.tune_report(
                out / "tune.json", k_grid=K_GRID, k_grid_spec=K_GRID_SPEC,
                intervals=TUNE_INTERVALS, windows=len(commands[0].raw_steps), seed=seed),
            config=str(config))
    if name == "montecarlo-array":
        lo, hi, points = MC_GRID
        grid = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
        two_node = work / "two_node"
        return Workload(
            step=("coherence", "probability_curve"),
            argv=lambda out: ["montecarlo", "--nodes", str(MC_NODES), "--trials", str(MC_TRIALS),
                              "--sigma-grid", ":".join(map(str, MC_GRID)), "--seed", str(seed),
                              "--out", str(out / "curve.csv")],
            artifacts=("curve.csv", "curve.report.json"),
            check=lambda out, commands: [checks.curve(out / "curve.csv", grid=grid, trials=MC_TRIALS),
                                       checks.crossings(out / "curve.report.json")],
            before=["montecarlo", *TWO_NODE_ARGS, "--seed", str(seed), "--out", str(two_node / "curve.csv")],
            before_check=lambda: checks.two_node_thresholds(two_node / "curve.report.json"))
    raise ValueError(f"unknown workload {name!r}")


class StepClock:
    """One timestamp per call into the workload's step function, plus counts.

    Before each call it samples the speed reference, so the machine's speed
    is measured as often as the program works; the reference's own time is
    kept out of every step and command time.
    """

    def __init__(self, count, reference: SpeedReference):
        self.marks: list[tuple[float, float]] = []  # (reference start, step start)
        self.counts: Counter = Counter()
        self._count = count
        self._reference = reference

    def wrap(self, fn):
        @functools.wraps(fn)
        def step(*args, **kwargs):
            r0 = time.perf_counter()
            self._reference.sample()
            self.marks.append((r0, time.perf_counter()))
            result = fn(*args, **kwargs)
            self._count(self.counts, args, kwargs, result)
            return result

        return step


@dataclass
class Command:
    raw_wall_s: float  # without the reference's time
    exit: int
    first_mark: int  # index of the command's first step in StepClock.marks
    raw_steps: list[float]  # from each step call to the next, or to the command's end
    counts: Counter
    hashes: dict
    bytes_written: int
    steps: list[float] = field(default_factory=list)  # raw_steps at the reference speed

    @property
    def wall_s(self) -> float:
        """Wall time at the reference speed, scaled like the command's steps."""
        if not self.raw_steps:  # the command failed before its first step
            return self.raw_wall_s
        return self.raw_wall_s * sum(self.steps) / sum(self.raw_steps)


def run_commands(main, workload, clock, work, log, seconds, minimum, label) -> list[Command]:
    """Run the workload's command until ``seconds`` are spent, at least ``minimum`` times.

    A further command starts only if the previous one's duration still fits.
    """
    done: list[Command] = []
    start = time.perf_counter()
    while len(done) < minimum or time.perf_counter() - start + done[-1].raw_wall_s <= seconds:
        out = work / f"{label}{len(done)}"
        argv = workload.argv(out)
        out.mkdir(parents=True)
        first_mark, before = len(clock.marks), Counter(clock.counts)
        t0 = time.perf_counter()
        with redirect_stdout(log):
            code = main(argv)
        t1 = time.perf_counter()
        marks = clock.marks[first_mark:]
        ends = [r0 for r0, _ in marks[1:]] + [t1]
        hashes = {}
        for name in workload.artifacts:
            path = out / name
            hashes[name] = checks.sha256(path) if path.is_file() else None
        done.append(Command(
            raw_wall_s=t1 - t0 - sum(t - r0 for r0, t in marks), exit=code, first_mark=first_mark,
            raw_steps=[end - t for (_, t), end in zip(marks, ends)],
            counts=clock.counts - before, hashes=hashes,
            bytes_written=sum(p.stat().st_size for p in out.rglob("*") if p.is_file())))
    return done


def scale_to_reference(commands: list[Command], clock: StepClock) -> None:
    """Set each command's steps at the reference speed.

    A step's speed estimate is the median of the five reference samples
    nearest it in the run, which damps the sampling noise of one short
    kernel pass while still following the host's changes of speed.
    """
    samples = [t - r0 for r0, t in clock.marks]
    for command in commands:
        command.steps = []
        for j, raw in enumerate(command.raw_steps):
            i = command.first_mark + j
            near = samples[max(i - 2, 0): i + 3]
            command.steps.append(raw * REFERENCE_S / statistics.median(near))


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no percentile qualifies and the maximum is given.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure_setup(workload: Workload, reference: SpeedReference) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), workload.config, workload.trace],
                               capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if probe.returncode != 0:
            sys.exit(f"cannot set up cohsync from {SRC}:\n{probe.stderr}")
        for _ in range(3):  # the probe left the caches cold; the median skips those samples
            reference.sample()
    return times


def install_tracer(cli, scenario, coherence) -> Tracer:
    """Spans around each layer's entry points, at the call sites in cohsync's modules."""
    tracer = Tracer()

    def fft_points(counts, args, kwargs, result):
        rows, n = args[0].shape
        counts["mf_fft_points"] += 2 * rows * n + n  # forward + inverse per row, one template

    def saturation(counts, args, kwargs, result):
        state, x = result
        counts["saturated_steps"] += x in (state.x_min, state.x_max)

    for module, attr, name, hook in (
        (cli, "load_config", "config.load", None),
        (cli, "save_config", "config.save", None),
        (cli, "read_trace_csv", "scenario.trace_read", None),
        (cli, "write_run_log_csv", "scenario.log_write", None),
        (cli, "read_run_log_csv", "scenario.log_read", None),
        (cli, "summarize_run", "scenario.summary", None),
        (cli, "run_adaptive", "scenario.run", None),
        (cli, "run_fixed_bandwidth", "scenario.run", None),
        (cli, "find_ultimate_gain", "control.search", None),
        (scenario, "simulate_window", "scenario.window", count_window),
        (scenario, "generate_two_tone", "waveform.pulse_gen", None),
        (scenario, "generate_disambiguation", "waveform.pulse_gen", None),
        (scenario, "apply_round_trip_response", "channel.response", None),
        (scenario, "noise_power_for", "channel.response", None),
        (scenario, "_circular_correlation", "ranging.mf", fft_points),
        (scenario, "disambiguate_and_refine", "ranging.refine", None),
        (scenario, "window_stats", "ranging.window_stats", None),
        (scenario, "pi_step", "control.pi_step", saturation),
        (coherence, "probability_curve", "coherence.curve", count_curve),
        (coherence, "threshold_crossings", "coherence.crossings", None),
    ):
        tracer.patch(module, attr, name, hook)
    tracer.patch_factory(cli, "ranging_sigma_plant", "control.plant")  # the tune plant is a closure
    return tracer


def layer_metrics(tracer: Tracer, commands: list[Command], untraced: list[Command], slowdown: float) -> dict:
    """Per-layer metrics, each per traced command.

    Span seconds are divided by the run's slowdown; ``trace.overhead_s``
    compares step-scaled command times.
    """
    spans = tracer.summary()
    n = len(commands)
    total = lambda *names: sum(spans[name]["total_s"] for name in names) / n / slowdown
    self_s = lambda name: spans[name]["self_s"] / n / slowdown
    calls = lambda name: spans[name]["calls"] / n
    count = lambda key: tracer.counts[key] / n
    pulses = tracer.counts["pulses"]
    seconds = {
        "scenario.window_self_s": self_s("scenario.window"),
        "ranging.mf_s": total("ranging.mf"),
        "ranging.refine_s": total("ranging.refine"),
        "ranging.window_stats_s": total("ranging.window_stats"),
        "waveform.pulse_gen_s": total("waveform.pulse_gen"),
        "channel.response_s": total("channel.response"),
        "control.search_self_s": self_s("control.search"),
        "control.pi_step_s": total("control.pi_step"),
        "coherence.curve_s": total("coherence.curve"),
        "coherence.crossings_s": total("coherence.crossings"),
        "scenario.trace_io_s": total("scenario.trace_read"),
        "scenario.log_io_s": total("scenario.log_write", "scenario.log_read"),
        "scenario.summary_s": total("scenario.summary"),
        "config.io_s": total("config.load", "config.save"),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_s": statistics.median(c.wall_s for c in commands)
        - statistics.median(c.wall_s for c in untraced),
    }
    counts = {
        "ranging.refine_calls": calls("ranging.refine"),
        "scenario.pulses": count("pulses"),
        "ranging.mf_fft_points": count("mf_fft_points"),
        "ranging.gross_errors": count("gross_errors"),
        "control.plant_calls": calls("control.plant"),
        "control.intervals_simulated": tracer.calls_under("scenario.window", "control.plant") / n,
        "control.saturated_steps": count("saturated_steps"),
        "coherence.gain_evals": count("gain_evals"),
    }
    metrics = {name: {"value": v, "unit": "s"} for name, v in seconds.items()}
    metrics.update({name: {"value": v, "unit": "count"} for name, v in counts.items()})
    metrics["ranging.gross_error_ratio"] = {
        "value": tracer.counts["gross_errors"] / pulses if pulses else 0.0, "unit": "ratio"}
    metrics["scenario.bytes_written"] = {
        "value": sum(c.bytes_written for c in commands) / n, "unit": "B"}
    return metrics


def window_split(tracer: Tracer) -> dict:
    """Share of the time inside simulate_window spent in each child layer."""
    spans = tracer.summary()
    window = spans["scenario.window"]["total_s"]
    if not window:
        return {}
    parts = {"noise_and_other_self": spans["scenario.window"]["self_s"]}
    for name in ("ranging.refine", "ranging.mf", "channel.response", "waveform.pulse_gen"):
        parts[name] = spans[name]["total_s"]
    return {name: value / window for name, value in parts.items()}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["adaptive-step", "tune-scan", "montecarlo-array"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cohsync" / "cli.py").is_file():
        print(f"no cohsync sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workload = make_workload(args.workload, args.seed, work)
    setup_reference = SpeedReference()
    setup = measure_setup(workload, setup_reference)

    sys.path.insert(0, str(SRC))
    import cohsync.cli as cli
    from cohsync import coherence, scenario

    results = []
    before_exit = []
    module, attr = {"scenario": scenario, "coherence": coherence}[workload.step[0]], workload.step[1]
    reference = SpeedReference()
    clock = StepClock(count_window if module is scenario else count_curve, reference)
    with open(work / "cli_stdout.txt", "w", encoding="utf-8") as log:
        if workload.before:
            Path(workload.before[-1]).parent.mkdir(parents=True)
            with redirect_stdout(log):
                before_exit.append(cli.main(workload.before))
            results += workload.before_check()

        step_fn = getattr(module, attr)
        setattr(module, attr, clock.wrap(step_fn))
        if args.trace:
            # untraced commands first, as the baseline for trace.overhead_s
            half = args.seconds / 2
            untraced = run_commands(cli.main, workload, clock, work, log, half, 1, "cmd")
            setattr(module, attr, step_fn)
            tracer = install_tracer(cli, scenario, coherence)
            # the clock goes outside the step's span, and the reference gets a
            # span of its own, so no layer's time includes the reference
            setattr(module, attr, clock.wrap(getattr(module, attr)))
            reference.sample = tracer.wrap("speed.reference", reference.sample)
            commands = run_commands(tracer.wrap("cli.main", cli.main), workload, clock, work, log,
                                    half, 1, "traced")
            tracer.restore()
            tracer.write(work / "spans.json")
            measured = untraced + commands
        else:
            commands = run_commands(cli.main, workload, clock, work, log, args.seconds, MIN_COMMANDS, "cmd")
            measured = commands
        setattr(module, attr, step_fn)

    try:
        results += workload.check(work / "cmd0", measured)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        results.append(checks.check("artifacts", False, f"{type(exc).__name__}: {exc}"))
    results.append(checks.exit_codes(before_exit + [c.exit for c in measured]))
    results.append(checks.same_artifacts([c.hashes for c in measured]))
    failed = sum(not r["ok"] for r in results)

    scale_to_reference(measured, clock)
    slowdown = reference.slowdown()
    steps = [s for c in commands for s in c.steps]
    tail_value, tail_pct = tail(steps)
    if args.trace:
        metrics = layer_metrics(tracer, commands, untraced, slowdown)
    else:
        busy = sum(c.wall_s for c in commands)
        evals = sum(c.counts["pulses"] + c.counts["gain_evals"] for c in commands)
        metrics = {
            "setup_s": {"value": statistics.median(setup) / setup_reference.slowdown(), "unit": "s"},
            "wall_s": {"value": statistics.median(c.wall_s for c in commands), "unit": "s"},
            "intervals_per_s": {"value": len(steps) / busy, "unit": "1/s"},
            "interval_s.p50": {"value": statistics.median(steps), "unit": "s"},
            "interval_s.tail": {"value": tail_value, "unit": "s"},
            "gain_evals_per_s": {"value": evals / busy, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            # rule-of-succession estimate, never 0; failed and attempted are exact
            "error_rate": {"value": (failed + 1) / (len(results) + 2), "unit": "ratio"},
        }

    details = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "speed": {"reference_s": REFERENCE_S, "setup_slowdown": setup_reference.slowdown(),
                  "slowdown": slowdown, "samples": len(reference.samples)},
        "raw_setup_s": setup,
        "commands": [{"wall_s": c.wall_s, "raw_wall_s": c.raw_wall_s, "exit": c.exit, "steps": len(c.steps),
                      "counts": dict(c.counts), "hashes": c.hashes, "bytes_written": c.bytes_written}
                     for c in measured],
        "steps": {"samples": len(steps), "tail_percentile": tail_pct,
                  "raw_p50": statistics.median(s for c in commands for s in c.raw_steps)},
        "checks": results,
    }
    if args.trace:
        details["spans"] = tracer.summary()
        details["window_split"] = window_split(tracer)
    (work / "details.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
