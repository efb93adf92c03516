"""Correctness checks that do not trust the code they check.

The file parsers, likelihoods, support mask, histograms and recovery
metrics here are written against the file formats and the model equations,
not against hazardnet's own helpers. Each check returns a :class:`Check`;
the self-test in ``run.py`` feeds every check a corrupted input (times
scaled by 1.5, one parameter perturbed, one CSV row dropped) and requires it
to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KS_MIN_P = 1e-3
LOGLIK_RTOL = 1e-9
FD_RTOL = 1e-5  # acceptance criterion 1's bound
FACTOR_RTOL = 1e-10  # acceptance criterion 3's gap, relative to the value here
METRIC_RTOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# --- files -----------------------------------------------------------------

def _body(path: str) -> tuple[list[str], list[str]]:
    """(header fields, non-comment lines after the header)."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    header = raw[0].split() if raw else []
    return header, [ln for ln in raw[1:] if ln.strip() and not ln.startswith("#")]


def read_network_file(path: str) -> tuple[str, np.ndarray]:
    header, lines = _body(path)
    if len(header) != 4 or header[0] != "netinf-network" or header[1] != "v1":
        raise ValueError(f"{path}: bad network header {header}")
    n = int(header[3])
    params = np.zeros((n, n))
    for line in lines:
        j, i, alpha = line.split()
        params[int(j), int(i)] = float(alpha)
    return header[2], params


def parse_cascade_lines(lines: list[str]) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for line in lines:
        pairs = [tok.split(":") for tok in line.split(",")]
        out.append((np.array([int(n) for n, _ in pairs]), np.array([float(t) for _, t in pairs])))
    return out


def read_cascade_file(path: str):
    """(num_nodes, window, cascade lines, parsed cascades)."""
    header, lines = _body(path)
    if len(header) != 4 or header[0] != "netinf-cascades" or header[1] != "v1":
        raise ValueError(f"{path}: bad cascade header {header}")
    return int(header[2]), float(header[3]), lines, parse_cascade_lines(lines)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return rows[0], rows[1:]


def cascade_format(cascades, num_nodes: int, window: float, name: str) -> Check:
    """Source at 0, strictly ascending times <= window, ids < N, no repeats."""
    for k, (nodes, times) in enumerate(cascades):
        problem = None
        if times[0] != 0.0:
            problem = "source not at time 0"
        elif np.any(np.diff(times) <= 0.0):
            problem = "times not strictly ascending"
        elif times[-1] > window:
            problem = f"time {times[-1]} beyond window {window}"
        elif nodes.min() < 0 or nodes.max() >= num_nodes:
            problem = "node id outside the universe"
        elif np.unique(nodes).size != nodes.size:
            problem = "node repeated"
        if problem:
            return Check(f"format:{name}", False, f"cascade {k}: {problem}")
    return Check(f"format:{name}", True, f"{len(cascades)} cascades")


def round_trip(lines: list[str], rewritten: list[str], name: str) -> Check:
    same = lines == rewritten
    detail = f"{len(lines)} lines" if same else "rewritten cascade lines differ"
    return Check(f"roundtrip:{name}", same, detail)


def partition(train: list[str], test: list[str], full: list[str], test_fraction: float) -> Check:
    """Train and test lines together are the full set, split at the fraction."""
    ok = sorted(train + test) == sorted(full) and len(test) == round(test_fraction * len(full))
    return Check("split:partition", ok, f"{len(train)} train + {len(test)} test")


# --- first-infection law ---------------------------------------------------

def shape_integral(family: str, t, delay: float = 1.0):
    """Time part of the cumulative hazard while only the source is infected."""
    t = np.asarray(t, dtype=np.float64)
    if family in ("exponential", "constant"):
        return t
    if family in ("rayleigh", "linear"):
        return 0.5 * t * t
    if family in ("power", "inverse"):
        return np.log(np.maximum(t, delay) / delay)
    raise ValueError(family)


def source_rates(params: np.ndarray, kind: str, log_scale: float = 0.0) -> np.ndarray:
    """R_s = sum_j alpha_sj (additive) or e^a0 sum_{j != s} e^alpha_sj."""
    if kind == "additive":
        return params.sum(axis=1)
    return math.exp(log_scale) * (np.exp(params).sum(axis=1) - 1.0)


def ks_uniform_pvalue(u: np.ndarray) -> float:
    """One-sample KS test against U(0, 1), asymptotic law with Stephens' factor."""
    u = np.sort(u)
    n = u.size
    i = np.arange(1, n + 1)
    d = max(float((i / n - u).max()), float((u - (i - 1) / n).max()))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    if lam < 0.2:
        return 1.0
    k = np.arange(1, 101)
    p = 2.0 * float(np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * lam * lam)))
    return min(max(p, 0.0), 1.0)


def first_infection_law(groups, name: str) -> Check:
    """Second event times through their closed-form law, and the count of
    size-1 cascades against sum exp(-Lambda_s(T)).

    ``groups`` holds (cascades, window, source rates, family, delay) tuples;
    their probability-integral transforms, truncated at the window, are all
    U(0, 1), so one KS test covers them together.
    """
    u_all, survive_all, singles = [], [], 0
    for cascades, window, rates, family, delay in groups:
        sources = np.array([nodes[0] for nodes, _ in cascades])
        grown = np.array([nodes.size > 1 for nodes, _ in cascades])
        cum_window = rates[sources] * shape_integral(family, window, delay)
        second = np.array([times[1] for nodes, times in cascades if nodes.size > 1])
        lam = rates[sources[grown]] * shape_integral(family, second, delay)
        u_all.append(-np.expm1(-lam) / -np.expm1(-cum_window[grown]))
        survive_all.append(np.exp(-cum_window))
        singles += int((~grown).sum())
    u, survive = np.concatenate(u_all), np.concatenate(survive_all)
    p = ks_uniform_pvalue(u) if u.size else 1.0
    expected = float(survive.sum())
    sigma = math.sqrt(float((survive * (1.0 - survive)).sum()))
    ok = p >= KS_MIN_P and np.all(u <= 1.0) and abs(singles - expected) <= 4.0 * sigma + 1e-9
    detail = f"KS p={p:.3g} over {u.size}; size-1 {singles} vs {expected:.1f}+-{sigma:.1f}"
    return Check(f"first-infection:{name}", bool(ok), detail)


# --- likelihoods -----------------------------------------------------------

def support_mask(cascades, num_nodes: int) -> np.ndarray:
    """Ordered pairs (j, i) with j infected strictly before i in some cascade."""
    mask = np.zeros((num_nodes, num_nodes), dtype=bool)
    for nodes, _ in cascades:
        for r in range(1, nodes.size):
            mask[nodes[:r], nodes[r]] = True
    return mask


def additive_exp_loglik(params: np.ndarray, cascades, window: float) -> float:
    """Exponential kernel: the hazard of i is the sum of alpha_ji over the
    infected j, and j exposes i from t_j until i's infection or the window."""
    total = 0.0
    for nodes, times in cascades:
        for r in range(1, nodes.size):
            alphas = params[nodes[:r], nodes[r]]
            rate = float(alphas.sum())
            if rate <= 0.0:
                return -math.inf
            total += math.log(rate) - float(alphas @ (times[r] - times[:r]))
        to_uninfected = params[nodes].sum(axis=1) - params[np.ix_(nodes, nodes)].sum(axis=1)
        total -= float(to_uninfected @ (window - times))
    return total


def multiplicative_const_loglik(
    params: np.ndarray, mask: np.ndarray, log_scale: float, cascades, window: float
) -> float:
    """Constant baseline e^a0 times exp of the masked influences of the
    infected nodes, piecewise constant between events."""
    a = np.where(mask, params, 0.0)
    scale = math.exp(log_scale)
    n = params.shape[0]
    total = 0.0
    for nodes, times in cascades:
        bounds = np.append(times, window)
        influence = np.zeros(n)
        exposure = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        alive[nodes[0]] = False
        for q in range(nodes.size):
            influence += a[nodes[q]]
            # hazard on [t_q, t_{q+1}) for every node not yet infected
            exposure[alive] += scale * np.exp(influence[alive]) * (bounds[q + 1] - bounds[q])
            if q + 1 < nodes.size:
                i = nodes[q + 1]
                total += log_scale + influence[i]
                alive[i] = False
        total -= float(exposure.sum())
    return total


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def loglik_matches(own: float, library: float, name: str) -> Check:
    ok = own == library or close(own, library, LOGLIK_RTOL)  # equal infinities too
    return Check(f"loglik:{name}", ok, f"own {own:.12g} vs library {library:.12g}")


def fit_dominates(fit_objective: float, truth_objective: float, name: str) -> Check:
    ok = fit_objective <= truth_objective + LOGLIK_RTOL * max(abs(truth_objective), 1.0)
    return Check(f"dominance:{name}", ok,
                 f"fit {fit_objective:.10g} vs truth on mask {truth_objective:.10g}")


# --- recovery and evaluate CSV ---------------------------------------------

def recovery_figures(true_params: np.ndarray, fit_params: np.ndarray, threshold: float,
                     signed: bool) -> dict:
    n = true_params.shape[0]
    a = np.abs(true_params) > threshold
    b = np.abs(fit_params) > threshold
    union = int(a.sum()) + int(b.sum())
    accuracy = 1.0 - float((a != b).sum()) / union if union else 1.0
    off = ~np.eye(n, dtype=bool)
    mse = float(((true_params - fit_params) ** 2)[off].mean())
    both = a & b
    sign = None
    if signed and both.any():
        sign = float((np.sign(true_params[both]) == np.sign(fit_params[both])).mean())
    return {"edge_accuracy": accuracy, "mse": mse, "true_edge_count": int(a.sum()),
            "inferred_edge_count": int(b.sum()), "sign_agreement": sign}


def recovery(true_params, fit_params, signed, threshold, csv_rows, floor_key, floor,
             name) -> Check:
    """Recomputed figures equal the evaluate CSV, and ``floor_key`` >= ``floor``."""
    mine = recovery_figures(true_params, fit_params, threshold, signed)
    reported = {row[0]: row[1] for row in csv_rows}
    for key, value in mine.items():
        text = reported.get(key)
        if value is None:
            same = text == ""
        else:
            same = text not in (None, "") and close(value, float(text), METRIC_RTOL)
        if not same:
            return Check(f"recovery:{name}", False, f"{key}: own {value} vs CSV {text!r}")
    ok = mine[floor_key] is not None and mine[floor_key] >= floor
    return Check(f"recovery:{name}", ok, f"{floor_key}={mine[floor_key]} (floor {floor})")


# --- predict CSVs ----------------------------------------------------------

def duration_edges(window: float, bins: int = 20) -> np.ndarray:
    edges = window * np.logspace(-3.0, 0.0, bins + 1)
    edges[0] = 0.0
    return edges


def predict_csvs(sizes_csv, durations_csv, test_cascades, num_nodes, window, name) -> Check:
    """Both count columns sum to the test-set size and the test columns equal
    histograms of the test split."""
    count = len(test_cascades)
    sizes = np.array([nodes.size for nodes, _ in test_cascades])
    durations = np.array([times[-1] for _, times in test_cascades])
    s_head, s_rows = sizes_csv
    d_head, d_rows = durations_csv
    if s_head != ["size", "test_count", "simulated_count"] or \
            d_head != ["bin_low", "bin_high", "test_count", "simulated_count"]:
        return Check(f"predict:{name}", False, f"unexpected headers {s_head} {d_head}")
    s = np.array([[float(v) for v in row] for row in s_rows])
    d = np.array([[float(v) for v in row] for row in d_rows])
    for label, column in (("sizes test", s[:, 1]), ("sizes simulated", s[:, 2]),
                          ("durations test", d[:, 2]), ("durations simulated", d[:, 3])):
        if int(column.sum()) != count:
            return Check(f"predict:{name}", False, f"{label} sums to {column.sum()} != {count}")
    own_sizes = np.array([(sizes == v).sum() for v in range(1, num_nodes + 1)])
    if s.shape[0] != num_nodes or not np.array_equal(s[:, 0], np.arange(1, num_nodes + 1)) \
            or not np.array_equal(s[:, 1], own_sizes):
        return Check(f"predict:{name}", False, "size histogram of the test split differs")
    edges = duration_edges(window)
    own_durations, _ = np.histogram(durations, bins=edges)
    if not (np.allclose(d[:, 0], edges[:-1], rtol=1e-12) and
            np.allclose(d[:, 1], edges[1:], rtol=1e-12) and
            np.array_equal(d[:, 2], own_durations)):
        return Check(f"predict:{name}", False, "duration histogram of the test split differs")
    return Check(f"predict:{name}", True, f"{count} test cascades")


# --- oracles ---------------------------------------------------------------

def gradient_matches(fd: list[float], analytic: list[float], name: str) -> Check:
    worst = max(abs(f - g) / max(abs(f), abs(g), 1.0) for f, g in zip(fd, analytic))
    return Check(f"gradient:{name}", worst <= FD_RTOL, f"max rel err {worst:.2e} over {len(fd)}")


def factorization(pairs: list[tuple[float, float]], name: str) -> Check:
    worst = max(abs(a - b) / max(abs(a), 1.0) for a, b in pairs)
    ok = worst <= FACTOR_RTOL and all(math.isfinite(a) for a, _ in pairs)
    return Check(f"factorization:{name}", ok, f"max gap {worst:.1e} over {len(pairs)} cascades")
