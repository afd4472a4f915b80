"""Correctness checks on the artifacts of one CLI run.

Each check recomputes its expectation from the workload's inputs with the
benchmark's own code (CSV and embedding parsing, confusion tallies, rank
AUC, bias subspace), or tests a property the method must have.  None
compares against a stored copy of earlier output.  A check returns a list
of failure messages; an empty list means the artifacts pass.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from workloads import COST_FN, WORKLOADS

EXACT = 1e-9  # expected EO rates, AUCs, unit norms, projections, equidistance
Z_BOUND = 5.0  # binomial z bound on realised post-processed rates
AMBIGUOUS_Z = 1e-9  # ensemble logits this close to 0 may round either way
LIFT = 0.01  # ensemble AUC must beat every constituent's AUC by this much


# ---------------------------------------------------------------------------
# readers and arithmetic of the benchmark's own


def read_columns(path: Path) -> dict[str, tuple[str, ...]]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = list(zip(*reader))
    return dict(zip(header, columns))


def read_embeddings(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(encoding="utf-8") as fh:
        n, d = (int(x) for x in fh.readline().split())
        tokens: list[str] = []
        vectors = np.empty((n, d))
        for i, line in enumerate(fh):
            token, _, values = line.rstrip("\n").partition(" ")
            tokens.append(token)
            vectors[i] = np.array(values.split(" "), dtype=np.float64)
    if len(tokens) != n:
        raise ValueError(f"{path}: header declares {n} words, found {len(tokens)}")
    return tokens, vectors


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def ints(column) -> np.ndarray:
    return np.array(column, dtype=np.int64)


def tally(groups: np.ndarray, y: np.ndarray, h: np.ndarray | None) -> dict[str, dict[str, int]]:
    """Per-group n_pos, n_neg and, given predictions h, tp and fp."""
    names, codes = np.unique(groups, return_inverse=True)
    hh = np.zeros_like(y) if h is None else h
    cells = np.bincount(codes * 4 + 2 * y + hh, minlength=4 * len(names)).reshape(-1, 4)
    out = {}
    for g, (tn, fp, fn, tp) in zip(names.tolist(), cells.tolist()):
        out[g] = {"n_pos": fn + tp, "n_neg": tn + fp, "tp": tp, "fp": fp}
    return out


def rank_auc(scores: np.ndarray, y: np.ndarray) -> float:
    """Mann-Whitney AUC with tied scores given their mean rank."""
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], len(ranked)]
    ranks = np.empty(len(ranked))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def realised_bound(n_eval: int, n_fit: int) -> float:
    """Z_BOUND standard deviations of a realised rate about the fit-time
    target: the eval draws (variance <= 1/4n) plus the eval-vs-fit sampling
    difference of the operating point (<= 1/4n_eval + 1/4n_fit)."""
    return Z_BOUND * math.sqrt(0.25 * (2.0 / n_eval + 1.0 / n_fit))


# ---------------------------------------------------------------------------
# audits


def _compare_rates(where: str, report_rates: dict, counts: dict, slack: dict | None = None) -> list[str]:
    """A report's group_rates against counts tallied by the benchmark;
    ``slack`` allows that many rows per group to differ in y_hat."""
    errors = []
    if set(report_rates) != set(counts):
        return [f"{where}: groups {sorted(report_rates)} != tallied {sorted(counts)}"]
    for g, c in counts.items():
        e = report_rates[g]
        if (e["n_pos"], e["n_neg"]) != (c["n_pos"], c["n_neg"]):
            errors.append(f"{where}: {g} counts {e['n_pos']}/{e['n_neg']} != tallied {c['n_pos']}/{c['n_neg']}")
            continue
        allowed = (slack or {}).get(g, 0) + EXACT
        for rate, n, hits in (("tpr", c["n_pos"], c["tp"]), ("fpr", c["n_neg"], c["fp"])):
            if n == 0:
                bad = e[rate] is not None
            else:
                bad = e[rate] is None or abs(e[rate] * n - hits) > allowed
            if bad:
                errors.append(f"{where}: {g} {rate} {e[rate]} disagrees with tallied {hits}/{n}")
    return errors


def _group_point(policy: dict, variant: str, base: dict) -> tuple[float, float]:
    """Expected (fpr, tpr) of one group's policy."""
    if variant == "hard":
        f, t = base["fp"] / base["n_neg"], base["tp"] / base["n_pos"]
        p0, p1 = policy["p0"], policy["p1"]
        return p0 * (1 - f) + p1 * f, p0 * (1 - t) + p1 * t
    lam, coin, rate = policy["lam"], policy["p_coin"], policy["coin_rate"]
    lo, hi = policy["point_lo"], policy["point_hi"]
    return (
        (1 - coin) * (lam * lo[0] + (1 - lam) * hi[0]) + coin * rate,
        (1 - coin) * (lam * lo[1] + (1 - lam) * hi[1]) + coin * rate,
    )


def _roc_point_errors(g: str, policy: dict, scores: np.ndarray, y: np.ndarray) -> list[str]:
    """point_lo/point_hi must be the group's empirical (fpr, tpr) at
    t_lo/t_hi; rows whose recomputed score is within rounding of a
    threshold may fall either side."""
    errors = []
    n_pos, n_neg = int(y.sum()), int(len(y) - y.sum())
    for which in ("lo", "hi"):
        t = policy[f"t_{which}"]
        above = scores >= t
        near = np.abs(scores - t) <= 1e-12 if math.isfinite(t) else np.zeros(len(y), bool)
        fp, tp = int(above[y == 0].sum()), int(above[y == 1].sum())
        point = policy[f"point_{which}"]
        slack_neg, slack_pos = int(near[y == 0].sum()), int(near[y == 1].sum())
        if abs(point[0] * n_neg - fp) > slack_neg + EXACT or abs(point[1] * n_pos - tp) > slack_pos + EXACT:
            errors.append(f"derived_predictor: {g} point_{which} {point} is not its ROC point at {t}")
    return errors


def check_audit(w, work: Path, out: Path) -> list[str]:
    """soft-audit / hard-audit: reports, derived predictor and post-processed
    predictions of ``equifair pipeline``."""
    errors: list[str] = []
    fit, ev = read_columns(work / "fit.csv"), read_columns(work / "eval.csv")
    y_fit, y_ev = ints(fit["y_true"]), ints(ev["y_true"])
    g_fit, g_ev = np.array(fit["group"]), np.array(ev["group"])
    base = load_json(out / "base_report.json")
    slack: dict[str, int] = {}
    if w.with_scores:
        model = load_json(out / "ensemble_model.json")
        names = model["constituents"]
        weights, intercept = np.array(model["weights"]), model["intercept"]
        x_fit = np.column_stack([np.array(fit[f"score_{n}"], dtype=np.float64) for n in names])
        x_ev = np.column_stack([np.array(ev[f"score_{n}"], dtype=np.float64) for n in names])
        z_ev = x_ev @ weights + intercept
        s_fit, s_ev = sigmoid(x_fit @ weights + intercept), sigmoid(z_ev)
        h_ev = (z_ev >= 0).astype(np.int64)
        slack = {g: int(n) for g, n in zip(*np.unique(g_ev[np.abs(z_ev) <= AMBIGUOUS_Z], return_counts=True))}
        auc = rank_auc(s_ev, y_ev)
        if abs(base["auc_roc_overall"] - auc) > EXACT:
            errors.append(f"base_report: auc_roc_overall {base['auc_roc_overall']} != recomputed {auc}")
        best_single = max(rank_auc(x_ev[:, j], y_ev) for j in range(x_ev.shape[1]))
        if auc < best_single + LIFT:
            errors.append(f"ensemble AUC {auc} does not beat the best constituent {best_single} by {LIFT}")
        for g, reported in base["auc_roc_per_group"].items():
            mine = rank_auc(s_ev[g_ev == g], y_ev[g_ev == g])
            if reported is None or abs(reported - mine) > EXACT:
                errors.append(f"base_report: {g} AUC {reported} != recomputed {mine}")
    else:
        h_ev = ints(ev["y_hat"])
        if base["auc_roc_overall"] is not None:
            errors.append("base_report: AUC reported for predictions without scores")
    errors += _compare_rates("base_report", base["group_rates"], tally(g_ev, y_ev, h_ev), slack)

    # derived predictor: exact equalized odds at the loss-minimising target
    dp = load_json(out / "derived_predictor.json")
    variant = "soft" if w.with_scores else "hard"
    fit_counts = tally(g_fit, y_fit, None if w.with_scores else ints(fit["y_hat"]))
    x, y = dp["target"]["fpr"], dp["target"]["tpr"]
    if dp["variant"] != variant or set(dp["groups"]) != set(fit_counts):
        return errors + [f"derived_predictor: variant {dp['variant']} / groups {sorted(dp['groups'])} unexpected"]
    for g, policy in dp["groups"].items():
        probabilities = [policy[k] for k in (("p0", "p1") if variant == "hard" else ("lam", "p_coin", "coin_rate"))]
        if not all(0.0 <= p <= 1.0 for p in probabilities):
            errors.append(f"derived_predictor: {g} has a probability outside [0, 1]: {policy}")
        fpr, tpr = _group_point(policy, variant, fit_counts[g])
        if abs(fpr - x) > EXACT or abs(tpr - y) > EXACT:
            errors.append(f"derived_predictor: {g} expected (fpr, tpr) ({fpr}, {tpr}) != target ({x}, {y})")
        if variant == "soft":
            m = g_fit == g
            errors += _roc_point_errors(g, policy, s_fit[m], y_fit[m])
    n_fit, n_pos_fit = len(y_fit), int(y_fit.sum())
    k_fp, k_fn = (n_fit - n_pos_fit) / n_fit, COST_FN * n_pos_fit / n_fit
    objective = k_fp * x + k_fn * (1.0 - y)
    if abs(dp["objective"] - objective) > EXACT:
        errors.append(f"derived_predictor: objective {dp['objective']} != recomputed {objective}")
    if dp["objective"] > min(k_fp, k_fn) + EXACT:  # all-negative and all-positive are always feasible
        errors.append(f"derived_predictor: objective {dp['objective']} worse than a constant predictor")

    # post-processed predictions: rows carried through, rates near the target
    post = read_columns(out / "postprocessed.csv")
    for column in ("id", "group", "y_true"):
        if post[column] != ev[column]:
            errors.append(f"postprocessed.csv: column {column} not carried through unchanged")
    if any(post["score"]) or not set(post["y_hat"]) <= {"0", "1"}:
        errors.append("postprocessed.csv: score must be empty and y_hat binary")
        return errors
    h_post = ints(post["y_hat"])
    post_counts = tally(g_ev, y_ev, h_post)
    for g, c in post_counts.items():
        for rate, target, n, n_fit_g, hits in (
            ("tpr", y, c["n_pos"], fit_counts[g]["n_pos"], c["tp"]),
            ("fpr", x, c["n_neg"], fit_counts[g]["n_neg"], c["fp"]),
        ):
            if n and abs(hits / n - target) > realised_bound(n, n_fit_g):
                errors.append(f"postprocessed.csv: {g} realised {rate} {hits / n} is more than "
                              f"{realised_bound(n, n_fit_g)} from {target}")
    post_report = load_json(out / "post_report.json")
    errors += _compare_rates("post_report", post_report["group_rates"], post_counts)
    for g, e in post_report["metadata"]["expected_rates"].items():
        if abs(e["fpr"] - x) > EXACT or abs(e["tpr"] - y) > EXACT:
            errors.append(f"post_report: expected rates of {g} are not the target")
    return errors


# ---------------------------------------------------------------------------
# debiasing


def bias_subspace(tokens: list[str], vectors: np.ndarray, sets: list[list[str]], k: int):
    """Top-k principal directions of the centred, unit-normalised equality
    sets, from an eigendecomposition; also their share of the variance."""
    index = {t: i for i, t in enumerate(tokens)}
    residuals = []
    for s in sets:
        v = vectors[[index[w] for w in s]]
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        residuals.append(v - v.mean(axis=0))
    r = np.vstack(residuals)
    values, vecs = np.linalg.eigh(r.T @ r)
    order = np.argsort(values)[::-1][:k]
    return vecs[:, order].T, values[order] / values.sum()


def check_debias(w, work: Path, out: Path) -> list[str]:
    """debias-vocab: the embeddings and report of ``equifair debias``."""
    errors: list[str] = []
    sets = load_json(work / "equality_sets.json")
    tokens, v_in = read_embeddings(work / "embeddings.txt")
    out_tokens, v_out = read_embeddings(out / "debiased_embeddings.txt")
    if out_tokens != tokens:
        return ["debiased_embeddings.txt: tokens differ from the input's"]
    norm_error = float(np.max(np.abs(np.linalg.norm(v_out, axis=1) - 1.0)))
    if norm_error > EXACT:
        errors.append(f"debiased embeddings: a norm differs from 1 by {norm_error}")

    k = max(len(s) for s in sets) - 1
    basis, explained = bias_subspace(tokens, v_in, sets, k)

    set_words = {t for s in sets for t in s}
    neutral = np.array([i for i, t in enumerate(tokens) if t not in set_words])
    leak = float(np.max(np.abs(v_out[neutral] @ basis.T)))
    if leak > EXACT:
        errors.append(f"neutral words keep a bias component of {leak}")
    v_unit = v_in[neutral] / np.linalg.norm(v_in[neutral], axis=1, keepdims=True)
    off = v_unit - (v_unit @ basis.T) @ basis
    expected = off / np.linalg.norm(off, axis=1, keepdims=True)
    moved = float(np.max(np.abs(v_out[neutral] - expected)))
    if moved > EXACT:
        errors.append(f"a neutral word differs by {moved} from its input with the bias part removed")

    # a word in several sets keeps the vector of the last one; sets none of
    # whose words a later set rewrites must be exactly equalized
    last = {t: i for i, s in enumerate(sets) for t in s}
    index = {t: i for i, t in enumerate(tokens)}
    intact = [s for i, s in enumerate(sets) if all(last[t] == i for t in s)]
    for s in intact:
        v = v_out[[index[t] for t in s]]
        outside = v - (v @ basis.T) @ basis
        spread = float(np.max(np.abs(outside - outside[0])))
        if spread > EXACT:
            errors.append(f"equality set {s} is not equidistant: off-subspace parts differ by {spread}")

    report = load_json(out / "debias_report.json")
    expected_report = {
        "neutralized": len(neutral), "equalized_sets": len(sets), "skipped_words": [], "dropped_sets": [],
    }
    for key, value in expected_report.items():
        if report[key] != value:
            errors.append(f"debias_report: {key} {report[key]} != {value}")
    if len(report["explained_variance"]) != k or np.max(np.abs(np.array(report["explained_variance"]) - explained)) > EXACT:
        errors.append(f"debias_report: explained_variance {report['explained_variance']} != {explained.tolist()}")
    return errors


def check(w, work: Path, out: Path) -> list[str]:
    return check_audit(w, work, out) if w.kind == "audit" else check_debias(w, work, out)


def main(argv: list[str]) -> int:
    """python perfbench/checks.py <workload> <work dir> <out dir>: prints the
    failures as a JSON list.  A separate process, so that the benchmark's
    own process stays small and adds nothing to a child's peak RSS."""
    print(json.dumps(check(WORKLOADS[argv[0]], Path(argv[1]), Path(argv[2]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
