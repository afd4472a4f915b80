"""Command-line surface chaining the toolkit into an audit pipeline.

Subcommands: synth, metrics, report, eo-fit, eo-apply, debias,
ensemble-fit, ensemble-predict, pipeline.  Every run writes a manifest
(inputs, output hashes, seeds, version) into the output directory.  All
data outputs are deterministic given the arguments; wall-clock time is
recorded only in the manifest.

On failure a single machine-parsable line ``<category>: <message>`` is
printed to stderr and the process exits with the category's code.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

import numpy as np

from . import __version__, schema
from .debias import DebiasResult, hard_debias, load_embeddings, save_embeddings
from .ensemble import EnsembleModel, fit_ensemble, predict_proba
from .eo import (
    DerivedPredictor,
    LossSpec,
    apply_hard,
    apply_soft,
    derive_seed,
    expected_rates,
    fit_eo_hard,
    fit_eo_soft,
)
from .errors import EquifairError, ValidationError
from .metrics import FairnessReport, build_report
from .predictions import (
    LabeledPredictions,
    read_prediction_file,
    write_predictions,
)
from .synth import (
    CohortConfig,
    EmbeddingPlantConfig,
    GROUP_PRESETS,
    gapped_score_models,
    generate_cohort,
    generate_embeddings,
)
from .wordsets import resolve_equality_sets

INTERVENTIONS = ("none", "eo-hard", "eo-soft", "debias")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, doc) -> Path:
    """Write ``doc`` as ``schema.dumps`` gives it; a non-finite number is invalid input."""
    path.write_text(schema.dumps(doc, path.name), encoding="ascii")
    return path


def _write_manifest(out_dir: Path, command: str, args: dict, inputs: list[Path], outputs: list[Path], seed: int | None) -> Path:
    manifest = {
        "command": command,
        "arguments": {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in args.items()
            if k != "func" and (v is None or isinstance(v, (str, int, float, bool, Path)))
        },
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if Path(p).exists()},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "seed": seed,
        "version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    return _write_json(out_dir / "manifest.json", manifest)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("EQUIFAIR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"EQUIFAIR_SEED must be an integer, got {env!r}") from None
    return 0


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_window(text: str) -> tuple[float, float]:
    """One ``lo:hi`` item of ``--modality-windows``."""
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValidationError(f"--modality-windows: {text!r} is not a lo:hi pair of numbers") from None
    return lo, hi


def _load_cohort_config(args, seed: int) -> CohortConfig:
    if getattr(args, "synth_config", None):
        return schema.load(CohortConfig, schema.read(args.synth_config), "cohort config")
    groups = GROUP_PRESETS[args.preset]
    models = gapped_score_models(groups, tpr_low=args.tpr_low, tpr_high=args.tpr_high, fpr=args.fpr)
    return CohortConfig(
        groups=groups,
        positive_rate=args.positive_rate,
        score_models=models,
        n_samples=args.n,
        seed=seed,
        modality_windows=tuple(_parse_window(w) for w in args.modality_windows.split(",")),
    )


def _write_plot_data(path: Path, reports: Mapping[str, FairnessReport]) -> Path:
    """Tidy (classifier, group, metric, value) CSV rows for range plots,
    one block per classifier."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["classifier", "group", "metric", "value"])
        for classifier, report in reports.items():
            for g, e in (report.group_rates or {}).items():
                for metric, value in (("tpr", e.tpr), ("tnr", e.tnr)):
                    if value is not None:
                        writer.writerow((classifier, g, metric, value))
            for g, auc in report.auc_roc_per_group.items():
                if auc is not None:
                    writer.writerow((classifier, g, "auc_roc", auc))
    return path


# ---------------------------------------------------------------------------
# stages shared by the subcommands and the pipeline


def _eo_functions(variant: str):
    """(fit, apply) of an EO variant; names are resolved at call time."""
    return {"hard": (fit_eo_hard, apply_hard), "soft": (fit_eo_soft, apply_soft)}[variant]


@dataclass(frozen=True)
class _EnsembleFile(EnsembleModel):
    """ensemble_model.json: a model and the constituent columns it was fit on."""

    constituents: tuple[str, ...] = field(kw_only=True)


def _ensemble_fit_stage(out: Path, features: dict[str, np.ndarray], y_true: np.ndarray, C: float) -> tuple[EnsembleModel, Path]:
    """Fit the score combiner on the named constituent columns and write
    ensemble_model.json."""
    model = fit_ensemble(np.column_stack(list(features.values())), y_true, C=C)
    return model, _write_json(out / "ensemble_model.json", {**model.to_dict(), "constituents": list(features)})


def _ensemble_scored(preds: LabeledPredictions, model: EnsembleModel, features: np.ndarray, threshold: float) -> LabeledPredictions:
    scores = predict_proba(model, features)
    return replace(preds, scores=scores, y_hat=(scores >= threshold).astype(np.int8))


def _debias_stage(out: Path, embeddings: Path, equality_sets: str, k: int | None) -> tuple[DebiasResult, list[Path]]:
    """Hard-debias an embedding file; write the embeddings and the report."""
    result = hard_debias(load_embeddings(embeddings), resolve_equality_sets(equality_sets), k=k)
    emb_path = out / "debiased_embeddings.txt"
    save_embeddings(result.embeddings, emb_path)
    return result, [emb_path, _write_json(out / "debias_report.json", result.skip_report())]


def _eo_fit_stage(out: Path, preds: LabeledPredictions, variant: str, loss: LossSpec) -> tuple[DerivedPredictor, Path]:
    dp = _eo_functions(variant)[0](preds, loss)
    return dp, _write_json(out / "derived_predictor.json", dp.to_dict())


def _eo_apply_stage(out: Path, dp: DerivedPredictor, preds: LabeledPredictions, seed: int) -> tuple[LabeledPredictions, Path]:
    """Apply a derived predictor and write postprocessed.csv (y_hat only)."""
    post = replace(preds, scores=None, y_hat=_eo_functions(dp.variant)[1](dp, preds, seed))
    path = out / "postprocessed.csv"
    write_predictions(post, path)
    return post, path


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    seed = _resolve_seed(args)
    out = _out_dir(args)
    outputs = []
    if args.plant_embeddings:
        sets = resolve_equality_sets(args.equality_sets)
        cfg = EmbeddingPlantConfig(
            equality_sets=sets.sets,
            vocab_size=args.vocab,
            dim=args.dim,
            noise=args.noise,
            seed=seed,
        )
        emb, _, planted = generate_embeddings(cfg)
        emb_path = out / "embeddings.txt"
        save_embeddings(emb, emb_path)
        outputs.append(emb_path)
        outputs.append(_write_json(out / "planted_subspace.json", {"basis": planted.basis.tolist(), "noise": args.noise}))
        _write_manifest(out, "synth", vars(args), [], outputs, seed)
        print(f"wrote planted embeddings ({len(emb)} words, dim {emb.dim}) to {out}")
        return 0
    cfg = _load_cohort_config(args, seed)
    cohort = generate_cohort(cfg)
    for m, preds in enumerate(cohort.modalities):
        path = out / f"modality_{m}.csv"
        write_predictions(preds, path)
        outputs.append(path)
    outputs.append(_write_json(out / "analytic_rates.json", {"analytic_rates": cohort.analytic_rates, "config": cohort.config}))
    _write_manifest(out, "synth", vars(args), [], outputs, seed)
    print(f"wrote {len(cohort.modalities)} modality file(s) to {out}")
    return 0


def _cmd_metrics(args) -> int:
    preds = read_prediction_file(Path(args.input), group_col=args.group_col).predictions
    report = build_report(preds, task=args.task)
    sys.stdout.write(schema.dumps(report, "metrics report"))
    return 0


def _cmd_report(args) -> int:
    out = _out_dir(args)
    preds = read_prediction_file(Path(args.input), group_col=args.group_col).predictions
    report = build_report(preds, task=args.task, seed=getattr(args, "seed", None))
    report_path = _write_json(out / "report.json", report)
    plot_path = _write_plot_data(out / "plot_data.csv", {args.task or "classifier": report})
    _write_manifest(out, "report", vars(args), [Path(args.input)], [report_path, plot_path], getattr(args, "seed", None))
    print(f"wrote {report_path}")
    return 0


def _cmd_eo_fit(args) -> int:
    out = _out_dir(args)
    preds = read_prediction_file(Path(args.input), group_col=args.group_col).predictions
    dp, dp_path = _eo_fit_stage(out, preds, args.variant, LossSpec(cost_fp=args.cost_fp, cost_fn=args.cost_fn))
    _write_manifest(out, "eo-fit", vars(args), [Path(args.input)], [dp_path], None)
    print(f"wrote {dp_path} (target fpr={dp.target[0]:.6f} tpr={dp.target[1]:.6f})")
    return 0


def _cmd_eo_apply(args) -> int:
    seed = _resolve_seed(args)
    out = _out_dir(args)
    preds = read_prediction_file(Path(args.input), group_col=args.group_col).predictions
    dp = DerivedPredictor.from_dict(schema.read(args.predictor))
    _, out_path = _eo_apply_stage(out, dp, preds, seed)
    _write_manifest(out, "eo-apply", vars(args), [Path(args.input), Path(args.predictor)], [out_path], seed)
    print(f"wrote {out_path}")
    return 0


def _cmd_debias(args) -> int:
    out = _out_dir(args)
    result, outputs = _debias_stage(out, Path(args.embeddings), args.equality_sets, args.k)
    _write_manifest(out, "debias", vars(args), [Path(args.embeddings)], outputs, None)
    print(f"wrote {outputs[0]} ({len(result.neutralized)} neutralized, {len(result.equalized_sets)} sets equalized)")
    return 0


def _cmd_ensemble_fit(args) -> int:
    out = _out_dir(args)
    pfile = read_prediction_file(Path(args.input), group_col=args.group_col)
    if not pfile.constituent_scores:
        raise ValidationError("ensemble-fit needs score_<name> constituent columns")
    model, model_path = _ensemble_fit_stage(out, pfile.constituent_scores, pfile.predictions.y_true, args.C)
    _write_manifest(out, "ensemble-fit", vars(args), [Path(args.input)], [model_path], None)
    print(f"wrote {model_path} (converged={model.converged}, iterations={model.n_iter})")
    return 0


def _cmd_ensemble_predict(args) -> int:
    if not math.isfinite(args.threshold):
        raise ValidationError(f"--threshold must be finite, got {args.threshold}")
    out = _out_dir(args)
    pfile = read_prediction_file(Path(args.input), group_col=args.group_col)
    model = schema.load(_EnsembleFile, schema.read(args.model), "ensemble model")
    if not model.constituents:
        raise ValidationError("ensemble model: field constituents must not be empty")
    missing = [n for n in model.constituents if n not in pfile.constituent_scores]
    if missing:
        raise ValidationError(f"input lacks constituent columns {missing}")
    features = np.column_stack([pfile.constituent_scores[n] for n in model.constituents])
    out_path = out / "ensemble_predictions.csv"
    write_predictions(_ensemble_scored(pfile.predictions, model, features, args.threshold), out_path)
    _write_manifest(out, "ensemble-predict", vars(args), [Path(args.input), Path(args.model)], [out_path], None)
    print(f"wrote {out_path}")
    return 0


def _modality_features(cohort) -> dict[str, np.ndarray]:
    """Constituent scores of a multi-modality cohort, none for a single one."""
    if len(cohort.modalities) == 1:
        return {}
    return {f"m{j}": m.scores for j, m in enumerate(cohort.modalities)}


def _cmd_pipeline(args) -> int:
    intervention = args.intervention
    if intervention not in INTERVENTIONS:
        raise ValidationError(f"unknown intervention {intervention!r}; expected exactly one of {list(INTERVENTIONS)}")
    seed = _resolve_seed(args)
    out = _out_dir(args)
    loss = LossSpec(cost_fp=args.cost_fp, cost_fn=args.cost_fn)
    inputs: list[Path] = []
    outputs: list[Path] = []
    metadata: dict = {"interventions": [intervention], "costs": {"fp": args.cost_fp, "fn": args.cost_fn}}

    # acquire fit and eval prediction sets
    if args.input:
        eval_file = read_prediction_file(Path(args.input), group_col=args.group_col)
        fit_file = read_prediction_file(Path(args.fit_input), group_col=args.group_col) if args.fit_input else eval_file
        inputs += [Path(p) for p in (args.input, args.fit_input) if p]
        # the fit file's path is kept in manifest.json, not in the reports
        metadata["fit_split"] = "separate fit input" if args.fit_input else "eval (no separate fit input provided)"
        fit_preds, eval_preds = fit_file.predictions, eval_file.predictions
        fit_features, eval_features = fit_file.constituent_scores, eval_file.constituent_scores
    else:
        base_cfg = _load_cohort_config(args, seed)
        fit_cohort = generate_cohort(replace(base_cfg, seed=derive_seed(seed, "fit")))
        eval_cohort = generate_cohort(replace(base_cfg, seed=derive_seed(seed, "eval")))
        metadata["fit_split"] = "synthetic (derived seed)"
        fit_preds, eval_preds = fit_cohort.modalities[0], eval_cohort.modalities[0]
        fit_features, eval_features = _modality_features(fit_cohort), _modality_features(eval_cohort)

    # ensemble stage when constituent scores are available
    if fit_features and eval_features:
        names = sorted(set(fit_features) & set(eval_features))
        if not names:
            raise ValidationError("fit and eval constituent columns do not overlap")
        model, model_path = _ensemble_fit_stage(out, {n: fit_features[n] for n in names}, fit_preds.y_true, args.C)
        outputs.append(model_path)
        eval_preds = _ensemble_scored(eval_preds, model, np.column_stack([eval_features[n] for n in names]), 0.5)
        fit_preds = _ensemble_scored(fit_preds, model, np.column_stack([fit_features[n] for n in names]), 0.5)
        metadata["ensemble"] = {"constituents": names, "C": args.C}

    # debias stage (embedding-space intervention; predictions pass through)
    if intervention == "debias":
        if not args.embeddings:
            raise ValidationError("intervention 'debias' requires --embeddings")
        inputs.append(Path(args.embeddings))
        result, debias_outputs = _debias_stage(out, Path(args.embeddings), args.equality_sets, args.k)
        outputs.extend(debias_outputs)
        metadata["debias"] = {"equality_sets": args.equality_sets, "k": result.subspace.k}

    base_report = build_report(eval_preds, task=args.task, seed=seed, extra_metadata=metadata)
    outputs.append(_write_json(out / "base_report.json", base_report))
    plots = {"base": base_report}

    if intervention.startswith("eo-"):
        if fit_preds.y_hat is None and intervention == "eo-hard":
            raise ValidationError("eo-hard requires hard predictions in the fit split")
        dp, dp_path = _eo_fit_stage(out, fit_preds, intervention.removeprefix("eo-"), loss)
        post_preds, post_csv = _eo_apply_stage(out, dp, eval_preds, derive_seed(seed, "apply"))
        outputs += [dp_path, post_csv]
        post_meta = {**metadata, "expected_rates": expected_rates(dp), "eo_objective": dp.objective}
        post_report = build_report(post_preds, task=args.task, seed=seed, extra_metadata=post_meta)
        outputs.append(_write_json(out / "post_report.json", post_report))
        plots[intervention] = post_report

    outputs.append(_write_plot_data(out / "plot_data.csv", plots))
    _write_manifest(out, "pipeline", vars(args), inputs, outputs, seed)
    print(f"pipeline complete: {len(outputs)} artifact(s) in {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common_io(p):
    p.add_argument("--input", required=True, help="prediction CSV path")
    p.add_argument("--group-col", default="group", help="sensitive-attribute column name")


def _add_cohort_flags(p):
    """Flags of a synthetic cohort (``synth`` and a ``pipeline`` without --input)."""
    p.add_argument("--preset", choices=sorted(GROUP_PRESETS), default="sex")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--positive-rate", type=float, default=0.131)
    p.add_argument("--tpr-low", type=float, default=0.60)
    p.add_argument("--tpr-high", type=float, default=0.85)
    p.add_argument("--fpr", type=float, default=0.15)
    p.add_argument("--modality-windows", default="0:1", help='e.g. "0:0.5,0.5:1"')
    p.add_argument("--synth-config", help="JSON cohort config (overrides other flags)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="equifair", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort or planted embeddings")
    _add_cohort_flags(p)
    p.add_argument("--plant-embeddings", action="store_true", help="emit a planted-bias embedding file instead of a cohort")
    p.add_argument("--equality-sets", default="gender")
    p.add_argument("--vocab", type=int, default=50)
    p.add_argument("--dim", type=int, default=25)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("metrics", help="print a fairness report to stdout")
    _add_common_io(p)
    p.add_argument("--task", default="")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("report", help="write report.json and plot_data.csv")
    _add_common_io(p)
    p.add_argument("--task", default="")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("eo-fit", help="fit an equalized-odds derived predictor")
    _add_common_io(p)
    p.add_argument("--variant", choices=("hard", "soft"), required=True)
    p.add_argument("--cost-fp", type=float, default=1.0)
    p.add_argument("--cost-fn", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eo_fit)

    p = sub.add_parser("eo-apply", help="apply a fitted derived predictor")
    _add_common_io(p)
    p.add_argument("--predictor", required=True, help="derived_predictor.json path")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eo_apply)

    p = sub.add_parser("debias", help="hard-debias an embedding file")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--equality-sets", default="gender", help="preset name (gender, race) or JSON path")
    p.add_argument("--k", type=int, default=None, help="bias-subspace dimension")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_debias)

    p = sub.add_parser("ensemble-fit", help="fit the logistic score combiner")
    _add_common_io(p)
    p.add_argument("--C", type=float, default=1.0, help="inverse regularization strength")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ensemble_fit)

    p = sub.add_parser("ensemble-predict", help="combine constituent scores")
    _add_common_io(p)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ensemble_predict)

    p = sub.add_parser("pipeline", help="end-to-end audit run")
    p.add_argument("--task", default="audit")
    p.add_argument("--input", help="eval prediction CSV (omit to synthesize)")
    p.add_argument("--fit-input", help="prediction CSV for fitting stages")
    p.add_argument("--group-col", default="group")
    p.add_argument("--intervention", default="none", help="exactly one of: " + " | ".join(INTERVENTIONS))
    p.add_argument("--cost-fp", type=float, default=1.0)
    p.add_argument("--cost-fn", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--embeddings")
    p.add_argument("--equality-sets", default="gender")
    p.add_argument("--k", type=int, default=None)
    _add_cohort_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EquifairError as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"missing-file: {exc}", file=sys.stderr)
        return 3
    except (UnicodeDecodeError, csv.Error) as exc:
        print(f"format-error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
