"""Output checks for the benchmark workloads.

Each check reads what a command wrote, with the standard library only, so
a defect in cohsync's own readers cannot hide a defect in what it wrote.
A check is a dict ``{"name", "ok", "detail"}``; ``run.py`` counts every
check into ``attempted`` and every failed one into ``failed``.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

# Two-node sigma/lambda thresholds at P(G_c >= 0.9) = 0.9 / 0.8 / 0.7 and the
# relative tolerance acceptance criterion 1 allows them at 10k trials.
TWO_NODE_REFERENCE = {"0.9": 0.0495, "0.8": 0.0725, "0.7": 0.1040}
TWO_NODE_TOLERANCE = 0.20


def check(name: str, ok: bool, detail) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_rows(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def same_artifacts(hashes: list[dict]) -> dict:
    """Every command of the run wrote byte-identical artifacts."""
    distinct = {json.dumps(h, sort_keys=True) for h in hashes}
    return check("deterministic", len(distinct) == 1, {"commands": len(hashes), "distinct": len(distinct)})


def exit_codes(codes: list[int]) -> dict:
    return check("exit_codes", all(code == 0 for code in codes), codes)


def adaptive_step(out_dir, *, step_at: int, target_m: float, f1_hz: float,
                  x_min_hz: float, x_max_hz: float, intervals: int, seed: int) -> list[dict]:
    """Checks on ``run_log.csv`` and ``summary.json`` of an adaptive run.

    Recovery follows acceptance criterion 4: the first interval, from two
    after the step on, whose three-interval mean sigma lies within 20 % of
    the target must come at most 25 intervals after the step.
    """
    out_dir = Path(out_dir)
    header, rows = _read_rows(out_dir / "run_log.csv")
    sigma = [float(r["sigma_d_m"]) for r in rows]
    f2 = [float(r["f2_hz"]) for r in rows]
    checks = [check("log_rows", header[:3] == ["interval", "f2_hz", "sigma_d_m"] and len(rows) == intervals,
                    {"rows": len(rows), "expected": intervals})]
    if len(rows) != intervals:
        return checks + [check(name, False, "short log") for name in ("recovery", "f2_moves", "f2_clamp")] + [
            check("summary", False, "short log")]

    recovered = None
    for i in range(step_at + 2, len(sigma)):
        window = sigma[max(i - 2, step_at): i + 1]
        if abs(sum(window) / len(window) - target_m) <= 0.2 * target_m:
            recovered = i - step_at
            break
    checks.append(check("recovery", recovered is not None and recovered <= 25,
                        {"intervals_after_step": recovered, "limit": 25}))
    before, after = f2[step_at - 1], f2[step_at + 2]
    checks.append(check("f2_moves", after > before, {"f2_before_hz": before, "f2_after_hz": after}))
    low, high = f1_hz + x_min_hz, f1_hz + x_max_hz
    checks.append(check("f2_clamp", all(low <= v <= high for v in f2),
                        {"min_hz": min(f2), "max_hz": max(f2), "clamp_hz": [low, high]}))

    summary = _read_json(out_dir / "summary.json")
    mean_sigma = sum(sigma) / len(sigma)
    ok = (summary.get("intervals") == intervals and summary.get("mode") == "adaptive"
          and summary.get("seed") == seed
          and math.isclose(summary["sigma_d_m"]["mean"], mean_sigma, rel_tol=1e-12)
          and summary["f2_hz"]["final"] == f2[-1])
    checks.append(check("summary", ok, {"intervals": summary.get("intervals")}))
    return checks


def tune_report(path, *, k_grid: list[float], k_grid_spec: str, intervals: int,
                windows: int, seed: int) -> list[dict]:
    """Structural checks on a ``cohsync tune`` report.

    The scan evaluates whole plant runs of ``intervals`` windows each and
    stops at the first oscillating grid gain, so the windows simulated are a
    whole multiple of ``intervals`` and at most one run per grid point.
    """
    report = _read_json(path)
    if report.get("found") is True:
        ok = (set(report) == {"found", "k_u", "t_u_s", "k_p", "t_i_s", "seed"}
              and any(math.isclose(report["k_u"], k, rel_tol=1e-12) for k in k_grid)
              and math.isfinite(report["t_u_s"]) and report["t_u_s"] > 0
              and report["k_p"] == 0.450 * report["k_u"]
              and report["t_i_s"] == 0.833 * report["t_u_s"]
              and report["seed"] == seed)
        runs_needed = 1 + sorted(k_grid).index(min(k_grid, key=lambda k: abs(k - report["k_u"])))
    else:
        ok = report == {"found": False, "k_grid": k_grid_spec, "seed": seed}
        runs_needed = len(k_grid)
    return [
        check("report", ok, report),
        check("scan_windows", windows == runs_needed * intervals,
              {"windows": windows, "expected": runs_needed * intervals}),
    ]


def curve(path, *, grid: list[float], trials: int) -> dict:
    """A probability curve on the requested grid, non-increasing within 2 sigma."""
    header, rows = _read_rows(path)
    sig = [float(r["sigma_over_lambda"]) for r in rows]
    y = [float(r["probability"]) for r in rows]
    on_grid = header == ["sigma_over_lambda", "probability"] and len(sig) == len(grid) and all(
        math.isclose(a, b, rel_tol=1e-12) for a, b in zip(sig, grid))
    in_range = all(0.0 <= p <= 1.0 for p in y)
    band = [2.0 * math.sqrt(max(p * (1 - p), 1e-9) / trials) for p in y]
    monotone = all(b - a <= w for a, b, w in zip(y, y[1:], band))
    return check("curve", on_grid and in_range and monotone,
                 {"points": len(y), "on_grid": on_grid, "monotone": monotone})


def crossings(report_path) -> dict:
    """Threshold crossings exist and grow as the probability level falls."""
    levels = _read_json(report_path)["sigma_over_lambda_at_probability"]
    values = [levels.get(k) for k in ("0.9", "0.8", "0.7")]
    ok = all(isinstance(v, float) and math.isfinite(v) for v in values) and values[0] < values[1] < values[2]
    return check("crossings", ok, levels)


def two_node_thresholds(report_path) -> list[dict]:
    """Two-node thresholds within criterion 1's tolerance of the reference table."""
    levels = _read_json(report_path)["sigma_over_lambda_at_probability"]
    out = []
    for level, reference in TWO_NODE_REFERENCE.items():
        measured = levels.get(level)
        ok = isinstance(measured, float) and abs(measured - reference) <= TWO_NODE_TOLERANCE * reference
        out.append(check(f"two_node_{level}", ok, {"measured": measured, "reference": reference}))
    return out


def zero_gross_errors(per_command: list[int]) -> dict:
    """No ranging cycle of any command selected a lobe with no local maximum."""
    return check("gross_errors", sum(per_command) == 0, per_command)
