"""Output checks for each benchmark operation.

Every check compares the command's output files with the mpmath oracle or
with properties the law must have; none compares with stored output.  Each
function returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

GAP_RTOL = 1e-8
PMIN_RTOL = 1e-6  # acceptance criterion 3
ORACLE_POINTS = 5  # grid points compared with the oracle, first and last included
DECILE_SIGMAS = 5.0
MIDPOINT_CHECKS = 4
KS_C_001 = 1.63  # alpha = 0.01 Kolmogorov quantile


def _numpy_float(cell: str) -> float:
    # verify's .hist.csv spells three columns as np.float64(x) under numpy >= 2
    # (a known format fault, listed in CHANGES.md); the values are still checked
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def read_table(path: str, parse=float):
    """Header and float rows of a CLI CSV file, skipping '#' comment lines."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[parse(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def _rel(value: float, truth) -> float:
    return float(abs(value - truth) / abs(truth))


def _spread(n: int, k: int) -> list[int]:
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def check_curve(path: str, oracle, variable: str) -> list[str]:
    """exact / micro CSV: columns variable,gap,pmin."""
    header, rows = read_table(path)
    if header[:3] != [variable, "gap", "pmin"]:
        return [f"header {header}"]
    x, gap, pmin = rows.T.tolist()
    problems = []
    if not np.all(np.isfinite(rows)):
        return ["non-finite values"]
    if any(b > a for a, b in zip(gap, gap[1:])):
        problems.append("gap column increases")
    if min(gap) < 0 or max(gap) > 1:
        problems.append(f"gap outside [0, 1]: {min(gap)!r} .. {max(gap)!r}")
    if min(pmin) < 0:
        problems.append("negative pmin")
    # the trapezoid rule's own error estimate |T_h - T_2h| (about 3x its
    # error) bounds the mismatch; the grids have an odd number of points
    fine = float(np.trapezoid(pmin, x))
    coarse = float(np.trapezoid(pmin[::2], x[::2]))
    drop = gap[0] - gap[-1]
    if abs(fine - drop) > abs(fine - coarse) + 1e-9 * drop:
        problems.append(f"trapezoid integral of pmin {fine!r} vs gap drop {drop!r}")
    for i in _spread(len(x), ORACLE_POINTS):
        true_gap, true_pmin = oracle.evaluate(x[i])
        if _rel(gap[i], true_gap) > GAP_RTOL:
            problems.append(f"gap at {x[i]!r}: rel error {_rel(gap[i], true_gap):.2e}")
        if _rel(pmin[i], true_pmin) > PMIN_RTOL:
            problems.append(f"pmin at {x[i]!r}: rel error {_rel(pmin[i], true_pmin):.2e}")
    return problems


def check_sample(path: str, meta_path: str, count: int, seed: int, config: dict,
                 oracle) -> list[str]:
    """sample CSV + meta: sorted finite non-negative batch that fits the law."""
    header, rows = read_table(path)
    if header != ["index", "lambda_min"] or len(rows) != count:
        return [f"header {header} with {len(rows)} rows, expected {count}"]
    values = rows[:, 1]
    problems = []
    if not np.array_equal(rows[:, 0], np.arange(count)):
        problems.append("index column is not 0..count-1")
    if not np.all(np.isfinite(values)) or values.min() < 0:
        problems.append("values not finite and non-negative")
    if np.any(np.diff(values) < 0):
        problems.append("values not sorted")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    expected = dict(config, count=count, seed=seed)
    if any(meta.get(k) != v for k, v in expected.items()):
        problems.append(f"metadata {meta} does not match {expected}")
    for q in (k / 10 for k in range(1, 10)):
        t_q = oracle.quantile(q, guess=float(values[int(q * count)]))
        ecdf = int(np.searchsorted(values, t_q, side="right")) / count
        sigma = math.sqrt(q * (1 - q) / count)
        if abs(ecdf - q) > DECILE_SIGMAS * sigma:
            problems.append(f"empirical CDF {ecdf} at the {q:.1f} quantile {t_q!r}")
    return problems


def check_verify(path: str, hist_path: str, mode: str, count: int, oracle) -> list[str]:
    """verify report + histogram: a pass at the alpha=0.01 threshold, unit
    mass, and the analytic density column against the oracle."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    threshold = KS_C_001 / math.sqrt(count)
    if report.get("pass") is not True or report.get("mode") != mode:
        problems.append(f"report does not pass in mode {mode}")
    if report.get("count") != count or report.get("alpha") != 0.01:
        problems.append("report count or alpha differs from the command")
    if "threshold_note" in report or abs(report.get("threshold", 0) - threshold) > 1e-12:
        problems.append(f"threshold {report.get('threshold')} is not 1.63/sqrt({count})")
    if not 0 <= report.get("statistic", -1) < threshold:
        problems.append(f"KS statistic {report.get('statistic')} not below {threshold}")
    header, rows = read_table(hist_path, parse=_numpy_float)
    if header != ["bin_left", "bin_right", "density", "analytic_pmin"] or len(rows) < 2:
        return problems + [f"histogram header {header} with {len(rows)} rows"]
    left, right, density, analytic = rows.T
    if np.any(left[1:] != right[:-1]) or np.any(right <= left):
        problems.append("histogram bins are not contiguous and increasing")
    mass = float(np.sum(density * (right - left)))
    if abs(mass - 1.0) > 1e-12:
        problems.append(f"histogram mass {mass!r}")
    for i in _spread(len(rows), MIDPOINT_CHECKS):
        mid = float(0.5 * (left[i] + right[i]))
        true_pmin = oracle.evaluate(mid)[1]
        if _rel(analytic[i], true_pmin) > PMIN_RTOL:
            problems.append(f"analytic_pmin at {mid!r}: rel error "
                            f"{_rel(analytic[i], true_pmin):.2e}")
    return problems
