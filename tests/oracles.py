"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force (pairwise enumeration,
threshold sweeps, grid searches) and shares no code with the library
paths it checks.
"""

import math

import numpy as np

from equifair import LabeledPredictions
from equifair.eo import loss_coefficients
from equifair.metrics import GroupRateEntry, GroupRates

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
    groups = list(rates.groups)
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
    k_fp, k_fn = loss_coefficients(GroupRates(counts), loss)
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
