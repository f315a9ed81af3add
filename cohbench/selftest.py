"""Smoke-size self-test of the benchmark.

Run from the root of a checkout:

    python3 cohbench/selftest.py

It runs every workload of BENCHMARK.json for the minimum number of
commands, untraced and traced, and requires a well-formed result line that
names every metric of BENCHMARK.json with its unit and passes every check.
It then corrupts copies of the artifacts those runs wrote and requires each
corruption to trip the check that guards it.  Exits 1 on any failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run

ROOT = Path.cwd()
SEED = 1
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def result_lines(proc: subprocess.Popen) -> tuple[dict, dict] | None:
    out, err = proc.communicate()
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(err, file=sys.stderr)
        return None
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def check_metrics(workload: str, trace: int, parsed, wanted: list[dict]) -> None:
    label = f"{workload} --trace {trace}"
    expect(parsed is not None, f"{label}: exits 0 with a result line")
    if parsed is None:
        return
    details, result = parsed
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: every check passes ({result['failed']} of {result['attempted']} failed)")
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in wanted}, f"{label}: exactly the BENCHMARK.json metrics")
    for m in wanted:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
               f"{label}: {m['name']} in {m['unit']}")
    expect(all(c["hashes"] for c in details["commands"]), f"{label}: artifact hashes recorded")


def corrupt(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return dst


def edit_log_column(text: str, column: str, value: str, from_row: int) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    col = rows[0].index(column)
    for row in rows[1 + from_row:]:
        row[col] = value
    return "\n".join(",".join(row) for row in rows) + "\n"


def edit_json(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def failed_names(results: list[dict]) -> set[str]:
    return {r["name"] for r in results if not r["ok"]}


def corruption_tests(work: Path) -> None:
    scratch = work / "selftest"
    adaptive = run.WORK / f"adaptive-step-seed{SEED}-trace0" / "cmd0"
    tune = run.WORK / f"tune-scan-seed{SEED}-trace0" / "cmd0"
    mc_dir = run.WORK / f"montecarlo-array-seed{SEED}-trace0"
    mc = mc_dir / "cmd0"

    def adaptive_checks(out):
        return checks.adaptive_step(out, step_at=run.STEP_AT, target_m=0.010, f1_hz=20e3, x_min_hz=0.0,
                                    x_max_hz=7.5e6, intervals=run.STEP_INTERVALS, seed=SEED)

    expect(not failed_names(adaptive_checks(adaptive)), "adaptive-step: pristine artifacts pass")
    for what, name, edit, trips in (
        ("f2 beyond the clamp", "run_log.csv", lambda t: edit_log_column(t, "f2_hz", "9000000.0", 30), "f2_clamp"),
        ("no recovery after the step", "run_log.csv",
         lambda t: edit_log_column(t, "sigma_d_m", "0.02", run.STEP_AT), "recovery"),
        ("truncated log", "run_log.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "log_rows"),
        ("summary from another seed", "summary.json",
         lambda t: edit_json(t, lambda d: d.update(seed=SEED + 1)), "summary"),
    ):
        out = corrupt(adaptive, scratch / "adaptive", name, edit)
        expect(trips in failed_names(adaptive_checks(out)), f"adaptive-step: {what} trips {trips}")

    def tune_checks(out, windows=2 * run.TUNE_INTERVALS):
        return checks.tune_report(out / "tune.json", k_grid=run.K_GRID, k_grid_spec=run.K_GRID_SPEC,
                                  intervals=run.TUNE_INTERVALS, windows=windows, seed=SEED)

    expect(not failed_names(tune_checks(tune)), "tune-scan: pristine report passes")
    out = corrupt(tune, scratch / "tune", "tune.json", lambda t: edit_json(t, lambda d: d.update(k_p=1.0)))
    expect("report" in failed_names(tune_checks(out)), "tune-scan: inconsistent K_p trips report")
    expect("scan_windows" in failed_names(tune_checks(tune, windows=run.TUNE_INTERVALS + 1)),
           "tune-scan: a partial plant run trips scan_windows")

    lo, hi, points = run.MC_GRID
    grid = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    expect(checks.curve(mc / "curve.csv", grid=grid, trials=run.MC_TRIALS)["ok"],
           "montecarlo-array: pristine curve passes")
    out = corrupt(mc, scratch / "mc", "curve.csv",
                  lambda t: "\n".join(t.splitlines()[:1] + t.splitlines()[:0:-1]) + "\n")
    expect(not checks.curve(out / "curve.csv", grid=grid, trials=run.MC_TRIALS)["ok"],
           "montecarlo-array: a reversed curve trips curve")
    out = corrupt(mc, scratch / "mc", "curve.report.json", lambda t: edit_json(
        t, lambda d: d["sigma_over_lambda_at_probability"].update({"0.8": None})))
    expect(not checks.crossings(out / "curve.report.json")["ok"], "montecarlo-array: a missing crossing trips crossings")
    two_node = mc_dir / "two_node"
    expect(not failed_names(checks.two_node_thresholds(two_node / "curve.report.json")),
           "montecarlo-array: pristine two-node thresholds pass")
    out = corrupt(two_node, scratch / "two_node", "curve.report.json", lambda t: edit_json(
        t, lambda d: d["sigma_over_lambda_at_probability"].update({"0.7": 0.13})))
    expect("two_node_0.7" in failed_names(checks.two_node_thresholds(out / "curve.report.json")),
           "montecarlo-array: a threshold 25 % off trips two_node_0.7")

    out = corrupt(mc, scratch / "mc", "curve.csv", lambda t: t + "\n")
    hashes = [{"curve.csv": checks.sha256(d / "curve.csv")} for d in (mc, out)]
    expect(not checks.same_artifacts(hashes)["ok"], "one changed byte trips deterministic")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [sys.executable] + spec["command"][1:]
    for workload in [w["name"] for w in spec["workloads"]]:
        procs = {trace: subprocess.Popen(
            command + ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for trace in (0, 1)}
        for trace, proc in procs.items():
            check_metrics(workload, trace, result_lines(proc), spec["per_layer" if trace else "end_to_end"])
    corruption_tests(run.WORK)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
