"""Independent checks of the outputs the workloads write.

Nothing here imports sdfo.  Traces and audit reports are parsed with the
``csv`` module, sample counts are recomputed from the rules' formulas, the
Gaussian audit is compared with exact probabilities from ``scipy.stats``,
and subproblem solutions are certified with ``numpy.linalg.eigvalsh`` and
a uniform sample of the ball.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy import stats

TRACE_COLUMNS = [
    "k", "success", "delta", "step_norm", "f_true_current",
    "est_current", "est_trial", "samples_current", "samples_trial",
]
# Direct-search steps are delta * unit direction; their norm may differ
# from delta in the last bits.
STEP_NORM_RTOL = 8 * 2.0**-52
# Every seed of a shipped-config run ends at or below this share of f(x0).
END_FACTOR = {"optimize-l1-d2": 0.05, "optimize-paper-rule": 0.1, "optimize-regression-d20": 0.98}
# Exceedance counts must lie in the central 1 - 2e-9 binomial interval.
BAND_TAIL = 1e-9
VARIANCE_SE = 7.0
BALL_SAMPLES = 4000


# --- optimizer traces ----------------------------------------------------


def read_csv_rows(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """``#`` metadata, header and data rows of an sdfo CSV file."""
    meta, body = {}, []
    with open(path, newline="", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
            else:
                body.append(line)
    rows = list(csv.reader(body))
    return meta, rows[0], rows[1:]


def read_trace(path: Path) -> list[dict]:
    _, header, rows = read_csv_rows(path)
    if header != TRACE_COLUMNS:
        raise ValueError(f"{path.name}: unexpected header {header}")
    out = []
    for row in rows:
        out.append(
            {
                "k": int(row[0]),
                "success": row[1] == "1",
                "delta": float(row[2]),
                "step_norm": float(row[3]),
                "f_true": float(row[4]),
                "est_current": float(row[5]),
                "est_trial": float(row[6]),
                "samples_current": int(row[7]),
                "samples_trial": int(row[8]),
            }
        )
    return out


def true_value(problem: str, x: list[float]) -> float:
    if problem == "l1norm":
        return float(sum(abs(v) for v in x))
    if problem == "sphere":
        return float(sum(v * v for v in x))
    raise ValueError(f"no reference value for problem {problem!r}")


class TraceRules:
    """What an optimizer config implies for every row of its traces."""

    def __init__(self, cfg: dict, end_factor: float) -> None:
        algo = cfg["config"]
        self.direct = cfg["algorithm"] == "direct_search"
        self.delta0 = float(algo["delta0"])
        self.tau = float(algo["tau"])
        self.tau_bar = float(algo["tau_bar"])
        self.theta = float(algo["theta"])
        self.max_iters = int(algo["max_iters"])
        self.delta_max = math.inf if self.direct else float(algo["delta_max"])
        self.delta_floor = float(cfg.get("delta_floor", 1e-8))
        hessian = algo.get("hessian", {"policy": "zero"})
        self.regression = not self.direct and hessian["policy"] == "regression_clipped"
        d = int(cfg["problem"]["dimension"])
        self.stencil_points = 2 * d + 1 if self.regression else 0
        self.f0 = true_value(cfg["problem"]["name"], cfg["x0"])
        self.end_factor = end_factor
        sampler = cfg.get("sampler", {"kind": "auto"})
        if sampler["kind"] == "fixed":
            n_fixed = int(sampler["n"])
            self.samples = lambda scale: n_fixed
        elif sampler["kind"] == "auto" and cfg["noise"]["kind"] == "gaussian":
            variance = float(cfg["noise"]["variance"])
            floor = 1.0
            if self.regression:
                floor = min(1.0, 1.0 / (hessian["M"] ** 2 * self.delta_max ** (2.0 - 2.0 * hessian["q"])))
            # The default k_f of ds_run / tr_run, and the variance rule
            # n = ceil(V / (k_f^2 delta^4)), in the same floating-point order.
            k_f = self.theta * (2.0 - self.tau) / 16.0 if self.direct else (
                self.theta * floor * (2.0 - self.tau) / 16.0
            )
            self.samples = lambda scale: max(1, math.ceil(variance / (k_f * k_f * scale**4)))
        else:
            raise ValueError(f"no sample rule for sampler {sampler}")

    def next_delta(self, delta: float, success: bool) -> float:
        if success:
            return min(self.delta_max, self.tau_bar * delta)
        return (1.0 - self.tau) * delta

    def accepted(self, row: dict) -> bool:
        decrease = row["est_current"] - row["est_trial"]
        if self.direct:
            return decrease >= self.theta * row["delta"] * row["delta"]
        return decrease / (self.theta * row["step_norm"] * row["step_norm"]) >= 1.0


def check_trace(rows: list[dict], rules: TraceRules) -> list[str]:
    if not rows:
        return ["empty trace"]
    problems = []
    if rows[0]["delta"] != rules.delta0:
        problems.append(f"first delta {rows[0]['delta']} != delta0 {rules.delta0}")
    if abs(rows[0]["f_true"] - rules.f0) > 1e-12 * max(1.0, abs(rules.f0)):
        problems.append(f"f(x0) {rows[0]['f_true']} != {rules.f0}")
    for i, row in enumerate(rows):
        where = f"row {i}"
        if row["k"] != i:
            problems.append(f"{where}: k={row['k']}")
        delta, norm = row["delta"], row["step_norm"]
        if not rules.delta_floor <= delta <= rules.delta_max:
            problems.append(f"{where}: delta {delta} outside [floor, delta_max]")
        if rules.regression:
            if not 0.0 < norm <= delta * (1.0 + STEP_NORM_RTOL):
                problems.append(f"{where}: step norm {norm} outside (0, delta]")
        elif abs(norm - delta) > STEP_NORM_RTOL * delta:
            problems.append(f"{where}: step norm {norm} != delta {delta}")
        if row["success"] != rules.accepted(row):
            problems.append(f"{where}: success={row['success']} disagrees with the acceptance test")
        n_accept = rules.samples(delta if rules.direct else norm)
        n_stencil = rules.stencil_points * rules.samples(delta)
        if row["samples_trial"] != n_accept or row["samples_current"] != n_accept + n_stencil:
            problems.append(
                f"{where}: samples {row['samples_current']},{row['samples_trial']} "
                f"!= {n_accept + n_stencil},{n_accept}"
            )
        if i + 1 < len(rows):
            nxt = rows[i + 1]
            if nxt["delta"] != rules.next_delta(delta, row["success"]):
                problems.append(f"{where}: next delta {nxt['delta']} breaks the update rule")
            if not row["success"] and nxt["f_true"] != row["f_true"]:
                problems.append(f"{where}: iterate moved after a rejected step")
    last_next = rules.next_delta(rows[-1]["delta"], rows[-1]["success"])
    if len(rows) != rules.max_iters and not last_next < rules.delta_floor:
        problems.append(f"stopped after {len(rows)} rows with delta {last_next} above the floor")
    if rows[-1]["f_true"] > rules.end_factor * rules.f0:
        problems.append(f"final f {rows[-1]['f_true']} above {rules.end_factor} * f(x0)")
    return problems


def check_summary(path: Path, traces: dict[int, list[dict]]) -> list[str]:
    _, header, rows = read_csv_rows(path)
    col = {name: i for i, name in enumerate(header)}
    problems = []
    if sorted(int(r[col["seed"]]) for r in rows) != sorted(traces):
        problems.append("summary seeds differ from the trace files")
        return problems
    for r in rows:
        trace = traces[int(r[col["seed"]])]
        if int(r[col["iterations"]]) != len(trace):
            problems.append(f"seed {r[col['seed']]}: iterations differ from the trace")
        if float(r[col["final_delta"]]) != trace[-1]["delta"]:
            problems.append(f"seed {r[col['seed']]}: final_delta differs from the trace")
        rate = sum(row["success"] for row in trace) / len(trace)
        if float(r[col["success_rate"]]) != rate:
            problems.append(f"seed {r[col['seed']]}: success_rate differs from the trace")
    return problems


# --- tail audits ---------------------------------------------------------

_TEXT_CELL = re.compile(r"^\s+delta=\S+ .*\bn=(\d+) -> (pass|FAIL)$")


def audit_sample_counts(text: str) -> dict[str, list[int]]:
    """Per-condition list of per-cell sample counts from the text report."""
    counts: dict[str, list[int]] = {}
    current = None
    for line in text.splitlines():
        head = re.match(r"^tail audit \[(\w+)\]", line)
        if head:
            current = counts.setdefault(head.group(1), [])
            continue
        cell = _TEXT_CELL.match(line)
        if cell and current is not None:
            current.append(int(cell.group(1)))
    return counts


def wilson_upper(k: int, n: int, confidence: float) -> float:
    if k == n:
        return 1.0
    z = stats.norm.ppf(confidence)
    phat = k / n
    denom = 1.0 + z * z / n
    center = phat + z * z / (2.0 * n)
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    return min(1.0, (center + half) / denom)


def gaussian_rule(cfg: dict, delta: float) -> int:
    variance = float(cfg["noise"]["variance"])
    k_f = float(cfg["sampler"]["k_f"])
    return max(1, math.ceil(variance / (k_f * k_f * delta**4)))


def moment_rule(cfg: dict, delta: float) -> int:
    """The finite-moment count for symmetric Pareto noise, from its formula."""
    r = float(cfg["noise"]["r"])
    scale = float(cfg["noise"].get("scale", 1.0))
    shape = r + 0.5
    bound = 2.0 ** (r - 1.0) * (shape / (shape - r) + (shape / (shape - 1.0)) ** r) * scale**r
    h = 1.0 + 2.0 / r
    eps_q = float(cfg["sampler"]["eps_q"])
    r_h = 2.0 / (h - 1.0)
    count = (2.0 * bound / (eps_q ** (1.0 + r - r_h) * delta ** (h * r))) ** (1.0 / (r - 1.0))
    return max(1, math.ceil(count))


def parse_exceedance(path: Path) -> tuple[int, list[dict]]:
    meta, header, rows = read_csv_rows(path)
    if header != ["p", "delta", "threshold", "freq", "wilson_upper", "pass"]:
        raise ValueError(f"{path.name}: unexpected header {header}")
    trials = int(meta["trials"])
    cells = []
    for r in rows:
        freq = float(r[3])
        cells.append(
            {
                "target": float(r[0]),
                "delta": float(r[1]),
                "threshold": float(r[2]),
                "freq": freq,
                "count": round(freq * trials),
                "wilson": float(r[4]),
                "pass": r[5] == "1",
            }
        )
    return trials, cells


def check_exceedance_cell(cell: dict, trials: int, confidence: float, n_expected: int,
                          n_reported: int, threshold: float, bound: float,
                          exceed_prob: float | None) -> list[str]:
    """One a1/a2/a2h row; ``exceed_prob`` is the exact probability when known."""
    problems = []
    if n_reported != n_expected:
        problems.append(f"delta={cell['delta']}: n={n_reported}, rule gives {n_expected}")
    if abs(cell["threshold"] - threshold) > 1e-12 * threshold:
        problems.append(f"delta={cell['delta']}: threshold {cell['threshold']} != {threshold}")
    if abs(cell["target"] - bound) > 1e-12 * bound:
        problems.append(f"delta={cell['delta']}: bound {cell['target']} != {bound}")
    k = cell["count"]
    if abs(cell["freq"] * trials - k) > 1e-6 or not 0 <= k <= trials:
        problems.append(f"delta={cell['delta']}: frequency {cell['freq']} is not a count over {trials}")
    if exceed_prob is not None:
        lo, hi = stats.binom.interval(1.0 - 2.0 * BAND_TAIL, trials, exceed_prob)
        if not lo <= k <= hi:
            problems.append(
                f"delta={cell['delta']}: {k} exceedances outside [{lo:.0f}, {hi:.0f}] "
                f"for probability {exceed_prob:.3g}"
            )
    upper = wilson_upper(k, trials, confidence)
    if abs(upper - cell["wilson"]) > 1e-9:
        problems.append(f"delta={cell['delta']}: Wilson bound {cell['wilson']} != {upper}")
    if not cell["pass"] or upper > bound:
        problems.append(f"delta={cell['delta']}: cell does not pass (upper {upper} > {bound})")
    return problems


def check_gaussian_audit(out_dir: Path, cfg: dict) -> tuple[list[list[str]], int]:
    """Problems per cell of one Gaussian audit run, and the estimate pairs it drew."""
    audit = cfg["audit"]
    variance = float(cfg["noise"]["variance"])
    counts = audit_sample_counts((out_dir / "audit_sphere_summary.txt").read_text(encoding="utf-8"))
    cells_problems: list[list[str]] = []
    pairs = 0
    grid = [(d, p) for d in audit["delta_grid"] for p in audit["p_grid"]]
    for cond in ("a1", "a2"):
        trials, cells = parse_exceedance(out_dir / f"audit_{cond}_sphere.csv")
        n_reported = counts.get(cond, [])
        if trials != audit["trials"] or len(cells) != len(grid) or len(n_reported) != len(grid):
            cells_problems.append([f"{cond}: report shape does not match the config"])
            continue
        pairs += trials * len(cells)
        for cell, (delta, p), n_rep in zip(cells, grid, n_reported):
            n = gaussian_rule(cfg, delta)
            if cond == "a1":
                threshold = (audit["eps_f"] / p) * delta * delta
            else:
                threshold = math.sqrt(audit["eps_q"] / p) * delta * delta
            # err = difference of two independent n-sample means: N(0, 2 V / n).
            prob = 2.0 * stats.norm.sf(threshold / math.sqrt(2.0 * variance / n))
            cells_problems.append([f"{cond} " + msg for msg in check_exceedance_cell(
                cell, trials, audit["confidence"], n, n_rep, threshold, p, prob)])
    meta, header, rows = read_csv_rows(out_dir / "audit_variance_sphere.csv")
    col = {name: i for i, name in enumerate(header)}
    trials = int(meta["trials"])
    if trials != audit["trials"] or len(rows) != 2 * len(audit["delta_grid"]):
        cells_problems.append(["variance: report shape does not match the config"])
        return cells_problems, pairs
    pairs += trials * len(audit["delta_grid"])
    for r in rows:
        problems = []
        delta = float(r[col["delta"]])
        n = gaussian_rule(cfg, delta)
        expected = variance / n
        bound = audit["k_f"] ** 2 * delta**4
        if int(r[col["samples"]]) != n:
            problems.append(f"variance delta={delta}: n={r[col['samples']]}, rule gives {n}")
        if abs(float(r[col["bound"]]) - bound) > 1e-12 * bound:
            problems.append(f"variance delta={delta}: bound {r[col['bound']]} != {bound}")
        # The squared error of an n-sample mean is V/n times a chi-square(1)
        # variable: mean V/n, standard deviation sqrt(2) V/n.
        se = math.sqrt(2.0) * expected / math.sqrt(trials)
        if abs(float(r[col["moment"]]) - expected) > VARIANCE_SE * se:
            problems.append(
                f"variance delta={delta}: moment {r[col['moment']]} further than "
                f"{VARIANCE_SE} standard errors from V/n = {expected}"
            )
        cells_problems.append(problems)
    return cells_problems, pairs


def check_pareto_audit(out_dir: Path, cfg: dict) -> tuple[list[list[str]], int]:
    """Problems per cell of one heavy-tail a2h audit run, and the estimate pairs it drew."""
    audit = cfg["audit"]
    counts = audit_sample_counts((out_dir / "audit_sphere_summary.txt").read_text(encoding="utf-8"))
    trials, cells = parse_exceedance(out_dir / "audit_a2h_sphere.csv")
    n_reported = counts.get("a2h", [])
    r_h = 2.0 / (audit["h"] - 1.0)
    grid = [(d, a) for d in audit["delta_grid"] for a in audit["alpha_grid"] if a >= audit["eps_q"]]
    if len(cells) != len(grid) or len(n_reported) != len(grid) or trials != audit["trials"]:
        return [["a2h: report shape does not match the config"]], 0
    cells_problems = []
    for cell, (delta, alpha), n_rep in zip(cells, grid, n_reported):
        bound = min(1.0, audit["eps_q"] / alpha**r_h)
        cells_problems.append(["a2h " + msg for msg in check_exceedance_cell(
            cell, trials, audit["confidence"], moment_rule(cfg, delta), n_rep,
            alpha * delta ** audit["h"], bound, None)])
    return cells_problems, trials * len(cells)


# --- dense subproblems ---------------------------------------------------


def check_subproblem(B, g, radius, s, lam, rng: np.random.Generator) -> list[str]:
    """KKT certificate with eigvalsh, and no uniform ball point does better."""
    problems = []
    norm_s = float(np.linalg.norm(s))
    w_min = float(np.linalg.eigvalsh(B)[0])
    scale = max(1.0, float(np.max(np.abs(B))) * B.shape[0])
    if norm_s > radius * (1.0 + 1e-10):
        problems.append(f"|s| = {norm_s} exceeds the radius {radius}")
    if lam < 0.0:
        problems.append(f"negative multiplier {lam}")
    if w_min + lam < -1e-8 * scale:
        problems.append(f"B + lam I is not positive semidefinite ({w_min} + {lam})")
    if abs(lam * (radius - norm_s)) > 1e-8 * max(1.0, lam) * radius:
        problems.append(f"complementarity {lam * (radius - norm_s)}")
    residual = float(np.linalg.norm(B @ s + lam * s + g))
    if residual > 1e-6 * (1.0 + lam):
        problems.append(f"stationarity residual {residual}")
    n = g.shape[0]
    z = rng.standard_normal((BALL_SAMPLES, n))
    points = z / np.linalg.norm(z, axis=1)[:, None] * (radius * rng.random(BALL_SAMPLES) ** (1.0 / n))[:, None]
    values = points @ g + 0.5 * np.einsum("ij,ij->i", points @ B, points)
    value = float(g @ s + 0.5 * s @ B @ s)
    best = float(values.min())
    if value > best + 1e-12 * (1.0 + abs(best)):
        problems.append(f"model value {value} above a sampled ball point {best}")
    return problems


def load_subproblems(path: Path) -> dict[str, dict]:
    with np.load(path) as data:
        out: dict[str, dict] = {}
        for key in data.files:
            name, _, field = key.rpartition(".")
            out.setdefault(name, {})[field] = data[key]
    return out


# --- tampered inputs -----------------------------------------------------


def self_test_trace(rows: list[dict], rules: TraceRules) -> dict[str, bool]:
    """Whether the trace check rejects a flipped success bit and an off-by-one count."""
    i = min(3, len(rows) - 1)
    flipped = copy.deepcopy(rows)
    flipped[i]["success"] = not flipped[i]["success"]
    off_by_one = copy.deepcopy(rows)
    off_by_one[i]["samples_trial"] += 1
    return {
        "trace.flipped_success": bool(check_trace(flipped, rules)),
        "trace.samples_off_by_one": bool(check_trace(off_by_one, rules)),
    }


def self_test_subproblem(entry: dict, rng_seed: int) -> dict[str, bool]:
    """Whether the certificate rejects a step shrunk off the optimum."""
    bad = check_subproblem(entry["B"], entry["g"], float(entry["radius"]), 0.9 * entry["s"],
                           float(entry["multiplier"]), np.random.default_rng(rng_seed))
    return {"subproblem.kkt_violation": bool(bad)}


def self_test_audit(out_dir: Path, cfg: dict) -> dict[str, bool]:
    """Whether the band check rejects an exceedance count pushed past its band."""
    audit = cfg["audit"]
    trials, cells = parse_exceedance(out_dir / "audit_a1_sphere.csv")
    delta, p = audit["delta_grid"][0], audit["p_grid"][0]
    n = gaussian_rule(cfg, delta)
    threshold = (audit["eps_f"] / p) * delta * delta
    prob = 2.0 * stats.norm.sf(threshold / math.sqrt(2.0 * float(cfg["noise"]["variance"]) / n))
    _, hi = stats.binom.interval(1.0 - 2.0 * BAND_TAIL, trials, prob)
    cell = dict(cells[0])
    cell["count"] = int(hi) + 1
    cell["freq"] = cell["count"] / trials
    cell["wilson"] = wilson_upper(cell["count"], trials, audit["confidence"])
    bad = check_exceedance_cell(cell, trials, audit["confidence"], n, n, threshold, p, prob)
    return {"audit.count_outside_band": bool(bad)}


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))
