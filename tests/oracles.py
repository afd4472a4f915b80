"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force (pairwise enumeration,
threshold sweeps, exact rational enumeration) and shares no code with
the library paths it checks.
"""

import csv
import hashlib
import math
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations, repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from equifair import (
    DebiasResult,
    DegenerateInputError,
    EmbeddingMatrix,
    EmptyInputError,
    FormatError,
    LabeledPredictions,
    ValidationError,
    equalize,
    identify_subspace,
    neutralize,
)
from equifair.ensemble import GRAD_TOL, MAX_ITER
from equifair.predictions import REQUIRED_COLUMNS, PredictionFile
from equifair.schema import decode_error
from equifair.metrics import roc_curve

from helpers import group_masks, logistic_loss_and_grad, unit_normalized


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


def _cross(o, a, b):
    """z-component of (a - o) x (b - o); positive for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _exact_hull(points):
    """CCW hull of exact (x, y) points by the monotone chain, collinear
    points dropped: the two ends of a segment, or one point."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return pts if len(pts) <= 2 else chain(pts)[:-1] + chain(pts[::-1])[:-1]


def _exact_inside(q, region):
    """Is q in the CCW hull ``region``? A segment admits only its own points."""
    if len(region) == 2:
        return _cross(region[0], region[1], q) == 0 and region[0] <= q <= region[1]
    return all(_cross(p, r, q) >= 0 for p, r in zip(region, region[1:] + region[:1]))


def _exact_crossing(a, b, c, d):
    """The point where segments ab and cd cross, or None if they are parallel or miss."""
    r, s, ac = (b[0] - a[0], b[1] - a[1]), (d[0] - c[0], d[1] - c[1]), (c[0] - a[0], c[1] - a[1])
    den = r[0] * s[1] - r[1] * s[0]
    if den == 0:
        return None
    t, u = (ac[0] * s[1] - ac[1] * s[0]) / den, (ac[0] * r[1] - ac[1] * r[0]) / den
    return (a[0] + t * r[0], a[1] + t * r[1]) if 0 <= t <= 1 and 0 <= u <= 1 else None


def exact_eo_oracle(preds, loss, variant):
    """The least expected loss of a common (fpr, tpr) over every group's
    achievable region, the feasible polygon (CCW vertices) and the target,
    the feasible point least in (loss, -tpr, fpr), all in ``Fraction``.  Counts, regions and coefficients come from the rows:
    a hard group's region is the hull of (0, 0), its (fpr, tpr), (1, 1)
    and their reflection, a soft group's the hull of its ROC points, one
    per distinct score, and (0, 0).  The optimum is the best of the region
    vertices and edge crossings that lie in every region."""
    rows, zero, one = {}, Fraction(0), Fraction(1)
    values = preds.y_hat if variant == "hard" else preds.scores
    for g, y, v in zip(preds.groups, preds.y_true.tolist(), values.tolist()):
        rows.setdefault(g, []).append((v, y))
    regions, k_fp, k_fn = [], zero, zero
    weights = {g: Fraction(len(r)) if loss.group_weights is None else Fraction(loss.group_weights[g]) for g, r in rows.items()}
    for g, r in rows.items():
        n_pos = sum(y for _, y in r)
        n_neg = len(r) - n_pos

        def point(threshold):  # (fpr, tpr) of predicting 1 at value >= threshold
            return (
                Fraction(sum(v >= threshold for v, y in r if y == 0), n_neg),
                Fraction(sum(v >= threshold for v, y in r if y == 1), n_pos),
            )

        if variant == "hard":
            f, t = point(1)
            regions.append(_exact_hull([(zero, zero), (f, t), (one, one), (1 - f, 1 - t)]))
        else:
            regions.append(_exact_hull([(zero, zero)] + [point(v) for v, _ in r]))
        w = weights[g] / sum(weights.values())
        k_fp += Fraction(loss.cost_fp) * w * Fraction(n_neg, len(r))
        k_fn += Fraction(loss.cost_fn) * w * Fraction(n_pos, len(r))
    edges = [(i, p, q) for i, region in enumerate(regions) for p, q in zip(region, region[1:] + region[:1])]
    candidates = [v for region in regions for v in region] + [
        _exact_crossing(a, b, c, d) for (i, a, b), (j, c, d) in combinations(edges, 2) if i != j
    ]
    feasible = [v for v in candidates if v is not None and all(_exact_inside(v, region) for region in regions)]
    target = min(feasible, key=lambda v: (k_fp * v[0] + k_fn * (1 - v[1]), -v[1], v[0]))
    return k_fp * target[0] + k_fn * (1 - target[1]), _exact_hull(feasible), target


def once_rounded_policies(dp, preds, target):
    """Each group's policy probabilities as the exact ``target`` gives
    them, rounded once: a hard policy's p0 and p1 solve its two rate
    equations; a soft one's lam mixes the operating points of its two
    thresholds, counted from the rows, to the target's fpr, and its coin
    makes up the tpr they miss."""
    x, y = target
    out = {}
    for code, g in enumerate(preds.universe):
        m, pol = preds.group_codes == code, dp.policies[g]
        labels = preds.y_true[m]

        def point(values, threshold):
            return tuple(Fraction(int((labels[values >= threshold] == c).sum()), int((labels == c).sum())) for c in (0, 1))

        if dp.variant == "hard":
            f, t = point(preds.y_hat[m], 1)
            p0, p1 = (y, y) if f == t else ((y * f - t * x) / (f - t), ((1 - t) * x - (1 - f) * y) / (f - t))
            out[g] = {"p0": float(p0), "p1": float(p1)}
            continue
        lo, hi = point(preds.scores[m], pol.t_lo), point(preds.scores[m], pol.t_hi)
        lam = Fraction(1) if lo == hi else (x - hi[0]) / (lo[0] - hi[0])
        top = lam * lo[1] + (1 - lam) * hi[1]
        p_coin, coin_rate = (0, 0) if top == y else (1 - (y - x) / (top - x), x)
        out[g] = {"lam": float(lam), "p_coin": float(p_coin), "coin_rate": float(coin_rate)}
    return out


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
    """The float hull of versions up to 0.4.0, as it was before it walked
    Python floats: a lexsort, a dedup and a monotone chain over numpy
    scalars, each with an absolute tolerance of 1e-12.  It equals the
    exact hull while every turn is far from that tolerance."""

    def chain_of(pts, order):
        chain = []
        for i in order:
            while len(chain) >= 2 and _cross(pts[chain[-2]], pts[chain[-1]], pts[i]) <= 1e-12:
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
    given = preds.ids
    for grp, mask in group_masks(preds).items():
        rows = np.flatnonzero(mask).tolist()
        reps = math.ceil(per_group / len(rows))
        for r in range(reps):
            for i in rows:
                ids.append(f"{given[i]}#{r}")
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


def _parse_binary_oracle(value, column, path, line):
    if value in ("0", "1"):
        return int(value)
    raise FormatError(f"{path}: line {line}: column {column!r} must be 0 or 1, got {value!r}")


def _parse_score_oracle(value, column, path, line):
    try:
        x = float(value)
    except ValueError:
        raise FormatError(f"{path}: line {line}: column {column!r} is not a number: {value!r}") from None
    if not 0.0 <= x <= 1.0:
        raise FormatError(f"{path}: line {line}: column {column!r} must lie in [0, 1], got {value!r}")
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
            y_true.append(_parse_binary_oracle(row[col["y_true"]], "y_true", path, lineno))
            s_raw, h_raw = row[col["score"]], row[col["y_hat"]]
            if s_raw == "" and h_raw == "":
                raise FormatError(f"{path}: line {lineno}: score and y_hat are both empty")
            if s_raw != "":
                score_seen = True
                scores.append(_parse_score_oracle(s_raw, "score", path, lineno))
            elif score_seen:
                raise FormatError(f"{path}: line {lineno}: score column must be filled for all rows or none")
            if h_raw != "":
                hat_seen = True
                y_hat.append(_parse_binary_oracle(h_raw, "y_hat", path, lineno))
            elif hat_seen:
                raise FormatError(f"{path}: line {lineno}: y_hat column must be filled for all rows or none")
            for name in extra:
                features[name].append(_parse_score_oracle(row[col[name]], name, path, lineno))
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


def float_reprs_oracle(values):
    """The text of each float64 value, one ``float.__repr__`` call each."""
    return list(map(float.__repr__, np.asarray(values, dtype=np.float64).reshape(-1).tolist()))


def write_predictions_oracle(preds, path, constituent_scores=None):
    """The prediction CSV written one csv.writer row at a time, as the
    library did before it wrote chunks of rows a column at a time."""
    consts = constituent_scores or {}
    columns = (
        preds.ids,
        preds.groups,
        map(str, preds.y_true.tolist()),
        map(repr, preds.scores.tolist()) if preds.scores is not None else repeat(""),
        map(str, preds.y_hat.tolist()) if preds.y_hat is not None else repeat(""),
        *(map(repr, np.asarray(v, dtype=np.float64).tolist()) for v in consts.values()),
    )
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "group", "y_true", "score", "y_hat", *(f"score_{n}" for n in consts)])
        if "\r" in "".join((*preds.universe, *preds.ids)):  # csv quotes only its line terminator's characters
            writer = csv.writer(SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n")), lineterminator="\r\n")
        writer.writerows(zip(*columns))


def load_embeddings_oracle(path):
    """The embedding file parsed one line and one float() at a time, as
    the library did before it parsed blocks of rows."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = fh.readline()
            parts = header.split()
            if len(parts) != 2:
                raise FormatError(f"{path}: line 1: header must be '<vocab_size> <dimension>'")
            try:
                vocab_size, dim = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"{path}: line 1: header fields must be integers") from None
            if vocab_size < 1 or dim < 1:
                raise FormatError(f"{path}: line 1: header values must be positive")
            tokens, rows, seen = [], [], set()
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split(" ")
                if len(fields) != dim + 1:
                    raise FormatError(f"{path}: line {lineno}: expected {dim} values, got {len(fields) - 1}")
                tok = fields[0]
                if tok in seen:
                    raise FormatError(f"{path}: line {lineno}: duplicate token {tok!r}")
                seen.add(tok)
                try:
                    rows.append([float(v) for v in fields[1:]])
                except ValueError:
                    raise FormatError(f"{path}: line {lineno}: non-numeric vector value") from None
                tokens.append(tok)
    except UnicodeDecodeError:
        raise decode_error(path) from None
    if len(tokens) != vocab_size:
        raise FormatError(f"{path}: header declares {vocab_size} words, found {len(tokens)}")
    return EmbeddingMatrix(tokens=tuple(tokens), vectors=np.array(rows, dtype=np.float64))


def format_embeddings_oracle(emb):
    """The text of an embedding file, one repr(float(v)) per value."""
    lines = [f"{len(emb)} {emb.dim}"]
    for i, tok in enumerate(emb.tokens):
        if " " in tok or "\n" in tok or "\r" in tok:
            raise FormatError(f"token {tok!r} contains whitespace; not serializable")
        lines.append(tok + " " + " ".join(repr(float(v)) for v in emb.vectors[i]))
    return "\n".join(lines) + "\n"


def hard_debias_oracle(emb, sets, neutral_policy=None, k=None):
    """Hard debiasing over a frozen unit-normalized matrix and a copy of
    it, as the library did before it rewrote the unit rows in place."""
    normalized = unit_normalized(emb)
    usable, dropped = sets.resolve(normalized)
    if not usable:
        raise ValidationError("no equality set has 2 or more resolvable members")
    if k is None:
        k = max(len(s) for s in usable) - 1
    subspace = identify_subspace(normalized, sets, k)

    set_words = sets.all_words()
    if neutral_policy is None:
        neutral = [t for t in normalized.tokens if t not in set_words]
    else:
        wanted = set(neutral_policy)
        neutral = [t for t in normalized.tokens if t in wanted]

    vectors = normalized.vectors.copy()
    skipped = []
    done = []
    for tok in neutral:
        try:
            vectors[normalized.index[tok]] = neutralize(normalized.get(tok), subspace, label=tok)
            done.append(tok)
        except DegenerateInputError:
            skipped.append(tok)
    equalized = []
    for s in usable:
        try:
            new_vecs = equalize([vectors[normalized.index[w]] for w in s], subspace, labels=s)
        except DegenerateInputError:
            skipped.extend(s)
            continue
        for w, v in zip(s, new_vecs):
            vectors[normalized.index[w]] = v
        equalized.append(s)
    return DebiasResult(
        embeddings=EmbeddingMatrix(tokens=normalized.tokens, vectors=vectors),
        subspace=subspace,
        neutralized=tuple(done),
        equalized_sets=tuple(equalized),
        skipped_words=tuple(skipped),
        dropped_sets=dropped,
    )


def cohort_oracle(cfg):
    """``(group codes, y_true, scores per modality)`` of ``generate_cohort(cfg)``,
    each row's logit mean and scale and calibrated posterior set one group
    mask at a time, as the library did before it read them from per-group
    tables."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_samples
    names = list(cfg.groups)
    codes = rng.choice(len(names), size=n, p=[cfg.groups[g] for g in names])
    y = (rng.random(n) < cfg.positive_rate).astype(np.int8)
    mu, sig, post_a, post_b = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
    for j, g in enumerate(names):
        m = codes == j
        model = cfg.score_models[g]
        mu[m & (y == 1)] = model.mu_pos
        sig[m & (y == 1)] = model.sigma_pos
        mu[m & (y == 0)] = model.mu_neg
        sig[m & (y == 0)] = model.sigma_neg
        if cfg.calibrated:
            post_a[m], post_b[m] = model.posterior_coefficients(cfg.positive_rate)
    scores = []
    for lo, hi in cfg.modality_windows:
        z = rng.standard_normal(n)
        informative = (np.arange(n) >= lo * n) & (np.arange(n) < hi * n)
        logits = np.where(informative, mu + sig * z, z)
        if cfg.calibrated:
            posterior = 1.0 / (1.0 + np.exp(-(post_a * logits + post_b)))
            scores.append(np.where(informative, posterior, cfg.positive_rate))
        else:
            scores.append(1.0 / (1.0 + np.exp(-logits)))
    return codes, y, scores


def derived_predictor_dict_oracle(dp):
    """The JSON form of a DerivedPredictor, key by key, as ``to_dict``
    built it before it took the form dataclasses ``from_dict`` loads."""
    return {
        "variant": dp.variant,
        "target": {"fpr": dp.target[0], "tpr": dp.target[1]},
        "objective": dp.objective,
        "loss": asdict(dp.loss),
        "fit_rates": {g: asdict(e) for g, e in dp.fit_rates.items()},
        "groups": {g: asdict(p) for g, p in sorted(dp.policies.items())},
    }


def _splitmix64(z):
    """The SplitMix64 finaliser of a 64-bit Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return z ^ (z >> 31)


def sample_uniforms_oracle(seed, purpose, sample_id, n=3):
    """n uniforms in [0, 1) of one sample id, in Python ints: the id's
    length folded with each code point through the SplitMix64 finaliser,
    then draw k is the top 53 bits of the finaliser of that digest xor the
    key blake2b gives (seed, purpose, k), over 2**53."""
    digest = len(sample_id)
    for ch in sample_id:
        digest = _splitmix64(digest ^ ord(ch))
    keys = (hashlib.blake2b(f"{seed}\x1f{purpose}\x1f{k}".encode(), digest_size=8).digest() for k in range(n))
    return tuple((_splitmix64(digest ^ int.from_bytes(key, "big") >> 1) >> 11) / 2**53 for key in keys)


def sample_uniforms_blake2b_oracle(seed, purpose, sample_id, n=3):
    """n uniforms in [0, 1) from one blake2b digest of (seed, purpose,
    sample id): the per-row draw of versions up to 0.3.0, each kept below
    the 1.0 that the top 1024 integers round to.  The record of the old
    contract: with these draws, apply_hard and apply_soft write 0.3.0's bytes."""
    msg = f"{seed}\x1f{purpose}\x1f{sample_id}".encode()
    digest = hashlib.blake2b(msg, digest_size=8 * n).digest()
    below_one = math.nextafter(1.0, 0.0)
    return tuple(min(int.from_bytes(digest[8 * i : 8 * (i + 1)], "big") / 2.0**64, below_one) for i in range(n))


def apply_hard_oracle(dp, preds, seed):
    """Hard EO applied one row at a time, as the library did before it
    drew every row's uniform in one batch."""
    ids, groups = preds.ids, preds.groups
    out = np.zeros(len(preds), dtype=np.int8)
    for i in range(len(preds)):
        pol = dp.policies[groups[i]]
        p = pol.p1 if preds.y_hat[i] == 1 else pol.p0
        (u,) = sample_uniforms_oracle(seed, "eo-hard", ids[i], n=1)
        out[i] = 1 if u < p else 0
    return out


def apply_soft_oracle(dp, preds, seed):
    """Soft EO applied one row at a time, as the library did before it
    drew every row's uniforms in one batch."""
    ids, groups = preds.ids, preds.groups
    out = np.zeros(len(preds), dtype=np.int8)
    for i in range(len(preds)):
        pol = dp.policies[groups[i]]
        degenerate = pol.p_coin == 0.0 and (pol.lam in (0.0, 1.0) or pol.t_lo == pol.t_hi)
        if degenerate:
            t = pol.t_lo if pol.lam > 0.0 else pol.t_hi
            out[i] = 1 if preds.scores[i] >= t else 0
            continue
        u_sel, u_coin, u_mix = sample_uniforms_oracle(seed, "eo-soft", ids[i], n=3)
        if pol.p_coin > 0.0 and u_sel < pol.p_coin:
            out[i] = 1 if u_coin < pol.coin_rate else 0
        else:
            t = pol.t_lo if u_mix < pol.lam else pol.t_hi
            out[i] = 1 if preds.scores[i] >= t else 0
    return out


def sigmoid_oracle(z):
    """The logistic function as the library computed it before one e^-|z|
    served both signs: each half of z by its mask, with its own exp."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_ensemble_oracle(x, y, C=1.0):
    """The damped Newton fit as the library ran it before each iteration
    reused the accepted step's probabilities: (weights, intercept, n_iter,
    grad_norm, loss_history) of valid features ``x`` and labels ``y``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, k = x.shape
    w = np.zeros(k)
    b = 0.0
    loss, grad_w, grad_b = logistic_loss_and_grad(x, y, w, b, C)
    history = [loss]
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        grad = np.append(grad_w, grad_b)
        if float(np.linalg.norm(grad)) <= GRAD_TOL:
            break
        p = sigmoid_oracle(x @ w + b)
        s = p * (1.0 - p)
        xs = x * s[:, None]
        hess = np.empty((k + 1, k + 1))
        hess[:k, :k] = x.T @ xs / n + np.eye(k) / (C * n)
        hess[:k, k] = xs.sum(axis=0) / n
        hess[k, :k] = hess[:k, k]
        hess[k, k] = float(np.mean(s))
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        for trial in (step, -grad):
            t = 1.0
            accepted = False
            for _ in range(50):
                w_new = w + t * trial[:k]
                b_new = b + t * trial[k]
                loss_new, gw_new, gb_new = logistic_loss_and_grad(x, y, w_new, b_new, C)
                if loss_new < loss:
                    w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
                    history.append(loss)
                    accepted = True
                    break
                t *= 0.5
            if accepted:
                break
        else:
            break
    grad_norm = float(np.linalg.norm(np.append(grad_w, grad_b)))
    return w, b, n_iter, grad_norm, tuple(history)
