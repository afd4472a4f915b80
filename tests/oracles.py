"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force (pairwise enumeration,
threshold sweeps, grid searches) and shares no code with the library
paths it checks.
"""

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from equifair import EmptyInputError, FormatError, LabeledPredictions
from equifair.eo import loss_coefficients
from equifair.predictions import REQUIRED_COLUMNS, PredictionFile
from equifair.metrics import GroupRateEntry, roc_curve

from helpers import group_masks, soft_regions_of


def pairwise_auc_oracle(scores, y_true):
    """All-pairs comparison: wins + half ties over positive/negative pairs."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(y_true)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def prc_enumeration_oracle(scores, y_true):
    """Sweep every distinct threshold; sum precision * recall increment."""
    n_pos = sum(y_true)
    out, r_prev = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, y_true) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, y_true) if s >= t and y == 0)
        out += (tp / n_pos - r_prev) * (tp / (tp + fp))
        r_prev = tp / n_pos
    return out


def roc_sweep_oracle(scores, y_true):
    """Exhaustive threshold sweep: the exact point set of the ROC."""
    n_pos = sum(y_true)
    n_neg = len(y_true) - n_pos
    points = {(0.0, 0.0)}
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, y_true) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, y_true) if s >= t and y == 0)
        points.add((fp / n_neg, tp / n_pos))
    return points


def tally_rates_oracle(ids, y_true, groups, y_hat, universe=()):
    """Per-sample confusion tally, one group at a time, over ``universe``
    (default: the groups present, sorted)."""
    out = {}
    for g in universe or sorted(set(groups)):
        tp = fp = tn = fn = 0
        for y, gg, h in zip(y_true, groups, y_hat):
            if gg != g:
                continue
            if y == 1 and h == 1:
                tp += 1
            elif y == 1:
                fn += 1
            elif h == 1:
                fp += 1
            else:
                tn += 1
        out[g] = {
            "tpr": tp / (tp + fn) if tp + fn else None,
            "tnr": tn / (tn + fp) if tn + fp else None,
            "n_pos": tp + fn,
            "n_neg": tn + fp,
        }
    return out


def hard_grid_oracle(rates, loss, step=0.02):
    """Exhaustive search over on-grid randomizations of each group in turn,
    with the remaining groups solved exactly for the implied common target.
    Returns the best objective over constraint-satisfying combinations."""
    groups = list(rates)
    k_fp, k_fn = loss_coefficients(rates, loss)
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    best = np.inf
    for pivot in groups:
        f0, t0 = rates[pivot].fpr, rates[pivot].tpr
        for p0 in grid:
            for p1 in grid:
                x = p0 * (1 - f0) + p1 * f0
                y = p0 * (1 - t0) + p1 * t0
                feasible = True
                for other in groups:
                    if other == pivot:
                        continue
                    f, t = rates[other].fpr, rates[other].tpr
                    det = f - t
                    if abs(det) < 1e-12:
                        if abs(x - y) > 1e-9:
                            feasible = False
                            break
                        continue
                    q0 = (y * f - t * x) / det
                    q1 = ((1 - t) * x - (1 - f) * y) / det
                    if not (-1e-9 <= q0 <= 1 + 1e-9 and -1e-9 <= q1 <= 1 + 1e-9):
                        feasible = False
                        break
                if feasible:
                    best = min(best, k_fp * x + k_fn * (1 - y))
    return best


def soft_grid_oracle(preds, loss, resolution=1e-3):
    """Dense raster over [0,1]^2 kept to points inside every group's
    achievable region; returns the best objective over the raster."""
    regions = soft_regions_of(preds)
    counts = {}
    for g, m in group_masks(preds).items():
        n_pos = int(preds.y_true[m].sum())
        counts[g] = GroupRateEntry(tpr=None, tnr=None, fpr=None, fnr=None, n_pos=n_pos, n_neg=int(m.sum()) - n_pos)
    k_fp, k_fn = loss_coefficients(counts, loss)
    axis = np.arange(0.0, 1.0 + resolution / 2, resolution)
    xx, yy = np.meshgrid(axis, axis)
    inside = np.ones(xx.shape, dtype=bool)
    for region in regions.values():
        verts = np.asarray(region)
        if len(verts) == 2:
            d = verts[1] - verts[0]
            crossv = d[0] * (yy - verts[0, 1]) - d[1] * (xx - verts[0, 0])
            inside &= np.abs(crossv) <= 1e-9
            continue
        for i in range(len(verts)):
            p, q = verts[i], verts[(i + 1) % len(verts)]
            crossv = (q[0] - p[0]) * (yy - p[1]) - (q[1] - p[1]) * (xx - p[0])
            inside &= crossv >= -1e-9
    objective = k_fp * xx + k_fn * (1.0 - yy)
    return float(objective[inside].min())


def upper_chain_oracle(points):
    """Indices of the upper envelope of (x, y) points, left to right: a
    monotone chain of its own, kept from before the soft fit read the
    envelope off the convex hull."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    chain = []
    for i in order:
        while len(chain) >= 2 and (
            (points[chain[-1], 0] - points[chain[-2], 0]) * (points[i, 1] - points[chain[-2], 1])
            - (points[chain[-1], 1] - points[chain[-2], 1]) * (points[i, 0] - points[chain[-2], 0])
        ) >= -1e-15:
            chain.pop()
        chain.append(int(i))
    return chain


def convex_hull_oracle(points):
    """``geometry.convex_hull_indices`` as it was before it walked Python
    floats: the same dedup and monotone chain over numpy scalars."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain_of(pts, order):
        chain = []
        for i in order:
            while len(chain) >= 2 and cross(pts[chain[-2]], pts[chain[-1]], pts[i]) <= 1e-12:
                chain.pop()
            chain.append(i)
        return chain

    pts = np.asarray(points, dtype=np.float64)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    uniq = []
    for i in order:
        if uniq and abs(pts[i, 0] - pts[uniq[-1], 0]) <= 1e-12 and abs(pts[i, 1] - pts[uniq[-1], 1]) <= 1e-12:
            continue
        uniq.append(int(i))
    if len(uniq) <= 2:
        return uniq
    hull = chain_of(pts, uniq)[:-1] + chain_of(pts, uniq[::-1])[:-1]
    return hull if len(hull) >= 2 else uniq[:1]


def roc_hull_oracle(scores, y_true):
    """The soft fit's hull of one group as it was before it kept only the
    staircase corners: every ROC point through ``convex_hull_oracle``.
    Returns the (fpr, tpr) points and the hull indices into them."""
    curve = roc_curve(scores, y_true)
    pts = np.column_stack((curve.fpr, curve.tpr))
    return pts, convex_hull_oracle(pts)


def preds_from_counts(spec):
    """spec: {group: (n_pos, tp, n_neg, fp)} -> predictions with exact rates."""
    ids, y, g, yh = [], [], [], []
    for group, (n_pos, tp, n_neg, fp) in spec.items():
        for i in range(n_pos):
            ids.append(f"{group}-p{i}")
            y.append(1)
            g.append(group)
            yh.append(1 if i < tp else 0)
        for i in range(n_neg):
            ids.append(f"{group}-n{i}")
            y.append(0)
            g.append(group)
            yh.append(1 if i < fp else 0)
    return LabeledPredictions(
        ids=tuple(ids), y_true=np.array(y), groups=tuple(g), y_hat=np.array(yh)
    )


def replicate_per_group(preds, per_group):
    """Tile each group's rows to at least ``per_group`` samples, whole
    copies only, so every group's empirical distribution is unchanged."""
    ids, y, g, s, h = [], [], [], [], []
    for grp, mask in group_masks(preds).items():
        rows = np.flatnonzero(mask).tolist()
        reps = math.ceil(per_group / len(rows))
        for r in range(reps):
            for i in rows:
                ids.append(f"{preds.ids[i]}#{r}")
                y.append(preds.y_true[i])
                g.append(grp)
                if preds.scores is not None:
                    s.append(preds.scores[i])
                if preds.y_hat is not None:
                    h.append(preds.y_hat[i])
    return LabeledPredictions(
        ids=tuple(ids),
        y_true=np.array(y),
        groups=tuple(g),
        scores=np.array(s) if preds.scores is not None else None,
        y_hat=np.array(h, dtype=np.int8) if preds.y_hat is not None else None,
    )


def _parse_binary_oracle(value, column, line):
    if value in ("0", "1"):
        return int(value)
    raise FormatError(f"line {line}: column {column!r} must be 0 or 1, got {value!r}")


def _parse_score_oracle(value, column, line):
    try:
        x = float(value)
    except ValueError:
        raise FormatError(f"line {line}: column {column!r} is not a number: {value!r}") from None
    if not 0.0 <= x <= 1.0:
        raise FormatError(f"line {line}: column {column!r} must lie in [0, 1], got {value!r}")
    return x


def read_prediction_file_oracle(path, group_col="group", universe=()):
    """The prediction CSV parsed one csv.reader row at a time, as the
    library did before it parsed by column."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        missing = [c for c in (*REQUIRED_COLUMNS, group_col) if c not in header]
        if missing:
            raise FormatError(f"{path}: header is missing columns {missing}")
        col = {name: i for i, name in enumerate(header)}
        extra = [name for name in header if name.startswith("score_")]

        ids, groups, y_true, scores, y_hat = [], [], [], [], []
        features = {name: [] for name in extra}
        score_seen = hat_seen = False
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            ids.append(row[col["id"]])
            groups.append(row[col[group_col]])
            y_true.append(_parse_binary_oracle(row[col["y_true"]], "y_true", lineno))
            s_raw, h_raw = row[col["score"]], row[col["y_hat"]]
            if s_raw == "" and h_raw == "":
                raise FormatError(f"{path}: line {lineno}: score and y_hat are both empty")
            if s_raw != "":
                score_seen = True
                scores.append(_parse_score_oracle(s_raw, "score", lineno))
            elif score_seen:
                raise FormatError(f"{path}: line {lineno}: score column must be filled for all rows or none")
            if h_raw != "":
                hat_seen = True
                y_hat.append(_parse_binary_oracle(h_raw, "y_hat", lineno))
            elif hat_seen:
                raise FormatError(f"{path}: line {lineno}: y_hat column must be filled for all rows or none")
            for name in extra:
                features[name].append(_parse_score_oracle(row[col[name]], name, lineno))
        if not ids:
            raise EmptyInputError(f"{path}: no data rows")
        if score_seen and len(scores) != len(ids):
            raise FormatError(f"{path}: score column must be filled for all rows or none")
        if hat_seen and len(y_hat) != len(ids):
            raise FormatError(f"{path}: y_hat column must be filled for all rows or none")

    preds = LabeledPredictions(
        ids=tuple(ids),
        y_true=np.array(y_true, dtype=np.int8),
        groups=tuple(groups),
        scores=np.array(scores) if score_seen else None,
        y_hat=np.array(y_hat, dtype=np.int8) if hat_seen else None,
        universe=universe,
    )
    consts = {name.removeprefix("score_"): np.array(vals, dtype=np.float64) for name, vals in features.items()}
    return PredictionFile(predictions=preds, constituent_scores=consts)


def sample_uniforms_oracle(seed, purpose, sample_id, n=3):
    """n uniforms in [0, 1) from one blake2b digest of (seed, purpose,
    sample id): the per-row draw the library used to make."""
    msg = f"{seed}\x1f{purpose}\x1f{sample_id}".encode()
    digest = hashlib.blake2b(msg, digest_size=8 * n).digest()
    return tuple(int.from_bytes(digest[8 * i : 8 * (i + 1)], "big") / 2.0**64 for i in range(n))


def apply_hard_oracle(dp, preds, seed):
    """Hard EO applied one row at a time, as the library did before it
    drew every row's uniform in one batch."""
    out = np.zeros(len(preds), dtype=np.int8)
    for i in range(len(preds)):
        pol = dp.policies[preds.groups[i]]
        p = pol.p1 if preds.y_hat[i] == 1 else pol.p0
        (u,) = sample_uniforms_oracle(seed, "eo-hard", preds.ids[i], n=1)
        out[i] = 1 if u < p else 0
    return out


def apply_soft_oracle(dp, preds, seed):
    """Soft EO applied one row at a time, as the library did before it
    drew every row's uniforms in one batch."""
    out = np.zeros(len(preds), dtype=np.int8)
    for i in range(len(preds)):
        pol = dp.policies[preds.groups[i]]
        degenerate = pol.p_coin == 0.0 and (pol.lam in (0.0, 1.0) or pol.t_lo == pol.t_hi)
        if degenerate:
            t = pol.t_lo if pol.lam > 0.0 else pol.t_hi
            out[i] = 1 if preds.scores[i] >= t else 0
            continue
        u_sel, u_coin, u_mix = sample_uniforms_oracle(seed, "eo-soft", preds.ids[i], n=3)
        if pol.p_coin > 0.0 and u_sel < pol.p_coin:
            out[i] = 1 if u_coin < pol.coin_rate else 0
        else:
            t = pol.t_lo if u_mix < pol.lam else pol.t_hi
            out[i] = 1 if preds.scores[i] >= t else 0
    return out
