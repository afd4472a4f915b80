"""Command-line surface chaining the toolkit into an audit pipeline.

Subcommands: synth, metrics, report, eo-fit, eo-apply, debias,
ensemble-fit, ensemble-predict, pipeline (the prediction stages only: an
ensemble, at most one EO intervention, reports).  Every run writes a manifest
(inputs, output hashes, seeds, version) into the output directory.  All
data outputs are deterministic given the arguments; wall-clock time is
recorded only in the manifest.

On failure a single machine-parsable line ``<category>: <message>`` is
printed to stderr and the process exits with the category's code; seeds
and float flags are checked before anything is written.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import __version__, schema
from .debias import hard_debias, load_embeddings, save_embeddings
from .ensemble import EnsembleModel, check_C, fit_ensemble, predict_proba
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
from .pool import _beside
from .predictions import (
    LabeledPredictions,
    read_prediction_file,
    read_prediction_header,
    readonly,
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

INTERVENTIONS = ("none", "eo-hard", "eo-soft")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


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
    """``--seed``, else ``EQUIFAIR_SEED``, else 0; a seed is a non-negative integer."""
    if getattr(args, "seed", None) is not None:
        source, value = "--seed", args.seed
    else:
        source, value = "EQUIFAIR_SEED", os.environ.get("EQUIFAIR_SEED", "0")
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValidationError(f"{source} must be a non-negative integer, got {value!r}")
    return seed


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
    """The cohort of ``--synth-config`` (which sets no seed), else of the flags, drawn under ``seed``."""
    if "synth_config" in vars(args):
        _refuse_flags(args, [k for k in COHORT_DEFAULTS if k != "synth_config"], "without --synth-config")
        doc = schema.read(args.synth_config)
        cfg = schema.load(CohortConfig, doc, "cohort config")
        if "seed" in doc:
            raise ValidationError("cohort config: field seed is refused; the seed comes from --seed or EQUIFAIR_SEED")
        return replace(cfg, seed=seed)
    vars(args).update({**COHORT_DEFAULTS, **vars(args)})  # the flags not given, as the manifest records them
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


def _write_ensemble(out: Path, model: EnsembleModel, names) -> Path:
    return _write_json(out / "ensemble_model.json", {**model.to_dict(), "constituents": list(names)})


def _ensemble_scored(preds: LabeledPredictions, model: EnsembleModel, features: np.ndarray, threshold: float) -> LabeledPredictions:
    scores = readonly(predict_proba(model, features))
    return preds.with_outputs(scores=scores, y_hat=readonly((scores >= threshold).astype(np.int8)))


def _eo_apply_stage(dp: DerivedPredictor, preds: LabeledPredictions, seed: int) -> LabeledPredictions:
    """``preds`` with the derived predictor's y_hat and no scores."""
    return preds.with_outputs(y_hat=readonly(_eo_functions(dp.variant)[1](dp, preds, seed)))


# ---------------------------------------------------------------------------
# subcommands


def _refuse_flags(args, names: Iterable[str], where: str) -> None:
    """Refuse the flags of ``names`` that were given: they apply only ``where``."""
    given = [f"--{k.replace('_', '-')}" for k in names if k in vars(args)]
    if given:
        raise ValidationError(f"{', '.join(given)} appl{'ies' if len(given) == 1 else 'y'} only {where}")


def _cmd_synth(args) -> int:
    if args.plant_embeddings:
        _refuse_flags(args, COHORT_DEFAULTS, "without --plant-embeddings")
        vars(args).update({**EMBEDDING_DEFAULTS, **vars(args)})  # the flags not given, as the manifest records them
    else:
        _refuse_flags(args, EMBEDDING_DEFAULTS, "with --plant-embeddings")
    seed = _resolve_seed(args)
    if args.plant_embeddings:
        sets = resolve_equality_sets(args.equality_sets).sets
        cfg = EmbeddingPlantConfig(equality_sets=sets, vocab_size=args.vocab, dim=args.dim, noise=args.noise, seed=seed)
    else:
        cfg = _load_cohort_config(args, seed)
    out = _out_dir(args)
    if args.plant_embeddings:
        emb, _, planted = generate_embeddings(cfg)
        outputs = [out / "embeddings.txt"]
        save_embeddings(emb, outputs[0])
        outputs.append(_write_json(out / "planted_subspace.json", {"basis": planted.basis.tolist(), "noise": args.noise}))
        status = f"wrote planted embeddings ({len(emb)} words, dim {emb.dim}) to {out}"
    else:
        cohort = generate_cohort(cfg)
        outputs = []
        for m, preds in enumerate(cohort.modalities):
            outputs.append(out / f"modality_{m}.csv")
            write_predictions(preds, outputs[-1])
        outputs.append(_write_json(out / "analytic_rates.json", {"analytic_rates": cohort.analytic_rates, "config": cohort.config}))
        status = f"wrote {len(cohort.modalities)} modality file(s) to {out}"
    _write_manifest(out, "synth", vars(args), [], outputs, seed)
    print(status)
    return 0


def _cmd_metrics(args) -> int:
    preds = read_prediction_file(Path(args.input), group_col=args.group_col).predictions
    report = build_report(preds, task=args.task)
    sys.stdout.write(schema.dumps(report, "metrics report"))
    return 0


def _cmd_report(args) -> int:
    # a seed is only recorded here, so none given stays null
    seed = _resolve_seed(args) if args.seed is not None or "EQUIFAIR_SEED" in os.environ else None
    preds = read_prediction_file(Path(args.input), group_col=args.group_col).predictions
    report = build_report(preds, task=args.task, seed=seed)
    out = _out_dir(args)
    report_path = _write_json(out / "report.json", report)
    plot_path = _write_plot_data(out / "plot_data.csv", {args.task or "classifier": report})
    _write_manifest(out, "report", vars(args), [Path(args.input)], [report_path, plot_path], seed)
    print(f"wrote {report_path}")
    return 0


def _cmd_eo_fit(args) -> int:
    preds = read_prediction_file(Path(args.input), group_col=args.group_col).predictions
    dp = _eo_functions(args.variant)[0](preds, LossSpec(cost_fp=args.cost_fp, cost_fn=args.cost_fn))
    out = _out_dir(args)
    dp_path = _write_json(out / "derived_predictor.json", dp.to_dict())
    _write_manifest(out, "eo-fit", vars(args), [Path(args.input)], [dp_path], None)
    print(f"wrote {dp_path} (target fpr={dp.target[0]:.6f} tpr={dp.target[1]:.6f})")
    return 0


def _cmd_eo_apply(args) -> int:
    seed = _resolve_seed(args)
    preds = read_prediction_file(Path(args.input), group_col=args.group_col).predictions
    dp = DerivedPredictor.from_dict(schema.read(args.predictor))
    post_preds = _eo_apply_stage(dp, preds, seed)
    out = _out_dir(args)
    out_path = out / "postprocessed.csv"
    write_predictions(post_preds, out_path)
    _write_manifest(out, "eo-apply", vars(args), [Path(args.input), Path(args.predictor)], [out_path], seed)
    print(f"wrote {out_path}")
    return 0


def _cmd_debias(args) -> int:
    result = hard_debias(load_embeddings(Path(args.embeddings)), resolve_equality_sets(args.equality_sets), k=args.k)
    out = _out_dir(args)
    emb_path = out / "debiased_embeddings.txt"
    save_embeddings(result.embeddings, emb_path)
    report_path = _write_json(out / "debias_report.json", result.skip_report())
    _write_manifest(out, "debias", vars(args), [Path(args.embeddings)], [emb_path, report_path], None)
    print(f"wrote {emb_path} ({len(result.neutralized)} neutralized, {len(result.equalized_sets)} sets equalized)")
    return 0


def _cmd_ensemble_fit(args) -> int:
    pfile = read_prediction_file(Path(args.input), group_col=args.group_col)
    if not pfile.constituent_scores:
        raise ValidationError("ensemble-fit needs score_<name> constituent columns")
    model = fit_ensemble(np.column_stack(list(pfile.constituent_scores.values())), pfile.predictions.y_true, C=args.C)
    out = _out_dir(args)
    model_path = _write_ensemble(out, model, pfile.constituent_scores)
    _write_manifest(out, "ensemble-fit", vars(args), [Path(args.input)], [model_path], None)
    print(f"wrote {model_path} (converged={model.converged}, iterations={model.n_iter})")
    return 0


def _cmd_ensemble_predict(args) -> int:
    pfile = read_prediction_file(Path(args.input), group_col=args.group_col)
    model = schema.load(_EnsembleFile, schema.read(args.model), "ensemble model")
    if not model.constituents:
        raise ValidationError("ensemble model: field constituents must not be empty")
    missing = [n for n in model.constituents if n not in pfile.constituent_scores]
    if missing:
        raise ValidationError(f"input lacks constituent columns {missing}")
    features = np.column_stack([pfile.constituent_scores[n] for n in model.constituents])
    scored = _ensemble_scored(pfile.predictions, model, features, args.threshold)
    out = _out_dir(args)
    out_path = out / "ensemble_predictions.csv"
    write_predictions(scored, out_path)
    _write_manifest(out, "ensemble-predict", vars(args), [Path(args.input), Path(args.model)], [out_path], None)
    print(f"wrote {out_path}")
    return 0


def _pipeline_split(args, cfg: CohortConfig | None, seed: int, tag: str) -> tuple[LabeledPredictions, dict[str, np.ndarray]]:
    """The ``tag`` ("fit" or "eval") split's predictions and constituent
    scores: read from ``--input``, or generated under its derived seed (a
    cohort of one modality has no constituents)."""
    if cfg is None:
        return read_prediction_file(Path(args.input), group_col=args.group_col)
    modalities = generate_cohort(replace(cfg, seed=derive_seed(seed, tag))).modalities
    return modalities[0], {f"m{j}": m.scores for j, m in enumerate(modalities)} if len(modalities) > 1 else {}


_FIT_WORKER_FLOOR = 1 << 20  # eval-file bytes from which the fit runs on a worker beside the eval read


def _fit_stage(split, eval_names: set[str], intervention: str, loss: LossSpec, C: float, group_col: str = "group"):
    """(ensemble model or None, its constituents, derived predictor or None) fitted
    on the fit ``split``: its (predictions, constituent scores), or its file."""
    fit_preds, fit_features = read_prediction_file(split, group_col=group_col) if isinstance(split, Path) else split
    model = dp = None
    names = sorted(eval_names.intersection(fit_features))
    if fit_features and eval_names:
        if not names:
            raise ValidationError("fit and eval constituent columns do not overlap")
        features = np.column_stack([fit_features[n] for n in names])
        model = fit_ensemble(features, fit_preds.y_true, C=C)
        fit_preds = _ensemble_scored(fit_preds, model, features, 0.5)
    if intervention != "none":
        if fit_preds.y_hat is None and intervention == "eo-hard":
            raise ValidationError("eo-hard requires hard predictions in the fit split")
        dp = _eo_functions(intervention.removeprefix("eo-"))[0](fit_preds, loss)
    return model, names, dp


def _cmd_pipeline(args) -> int:
    intervention = args.intervention
    if intervention not in INTERVENTIONS:
        raise ValidationError(f"unknown intervention {intervention!r}; expected exactly one of {list(INTERVENTIONS)}")
    if args.fit_input and not args.input:
        raise ValidationError("--fit-input needs --input: without it both splits are synthetic")
    if args.input:
        _refuse_flags(args, COHORT_DEFAULTS, "without --input")
    seed = _resolve_seed(args)
    cfg = None if args.input else _load_cohort_config(args, seed)
    loss = LossSpec(cost_fp=args.cost_fp, cost_fn=args.cost_fn)
    inputs = [Path(p) for p in (args.input, args.fit_input) if p]
    metadata: dict = {"interventions": [intervention], "costs": {"fp": args.cost_fp, "fn": args.cost_fn}}

    # Nothing is written until both splits are read and fitted.  Errors come
    # in this order: eval header, fit side (beside or before), eval rows.
    if args.fit_input:
        header = read_prediction_header(Path(args.input), group_col=args.group_col)
        metadata["fit_split"] = "separate fit input"  # its path is kept in manifest.json, not in the reports
        eval_names = {c.removeprefix("score_") for c in header if c.startswith("score_")}
        job = (Path(args.fit_input), eval_names, intervention, loss, args.C, args.group_col)
        with _beside(Path(args.input).stat().st_size, _FIT_WORKER_FLOOR, _fit_stage, job) as fitted:
            try:
                eval_preds, eval_features = _pipeline_split(args, cfg, seed, "eval")
            except Exception:
                fitted()  # a fit-side error wins
                raise
            model, names, dp = fitted()
    else:
        metadata["fit_split"] = "eval (no separate fit input provided)" if args.input else "synthetic (derived seed)"
        # the eval file is the fit split too; a synthetic one is dropped for the eval cohort
        eval_preds, eval_features = _pipeline_split(args, cfg, seed, "fit")
        model, names, dp = _fit_stage((eval_preds, eval_features), set(eval_features), intervention, loss, args.C)
        if cfg is not None:
            del eval_preds, eval_features
            eval_preds, eval_features = _pipeline_split(args, cfg, seed, "eval")
    if model is not None:
        metadata["ensemble"] = {"constituents": names, "C": args.C}
        eval_preds = _ensemble_scored(eval_preds, model, np.column_stack([eval_features[n] for n in names]), 0.5)

    plots = {"base": build_report(eval_preds, task=args.task, seed=seed, extra_metadata=metadata)}
    if dp is not None:
        post_preds = _eo_apply_stage(dp, eval_preds, derive_seed(seed, "apply"))
        post_meta = {**metadata, "expected_rates": expected_rates(dp), "eo_objective": dp.objective}
        plots[intervention] = build_report(post_preds, task=args.task, seed=seed, extra_metadata=post_meta)
    out = _out_dir(args)
    outputs = [_write_ensemble(out, model, names)] if model is not None else []
    outputs.append(_write_json(out / "base_report.json", plots["base"]))
    if dp is not None:
        outputs += [_write_json(out / "derived_predictor.json", dp.to_dict()), out / "postprocessed.csv"]
        write_predictions(post_preds, outputs[-1])
        outputs.append(_write_json(out / "post_report.json", plots[intervention]))
    outputs.append(_write_plot_data(out / "plot_data.csv", plots))
    _write_manifest(out, "pipeline", vars(args), inputs, outputs, seed)
    print(f"pipeline complete: {len(outputs)} artifact(s) in {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common_io(p):
    p.add_argument("--input", required=True, help="prediction CSV path")
    p.add_argument("--group-col", default="group", help="sensitive-attribute column name")


# Defaults of the synthetic-cohort flags: a flag not given stays unset until
# a cohort is generated, so a run that generates none can refuse those given.
COHORT_DEFAULTS = {"preset": "sex", "n": 1000, "positive_rate": 0.131, "tpr_low": 0.60, "tpr_high": 0.85,
                   "fpr": 0.15, "modality_windows": "0:1", "synth_config": None}
# Defaults of the flags of ``synth --plant-embeddings``, unset until then alike.
EMBEDDING_DEFAULTS = {"equality_sets": "gender", "vocab": 50, "dim": 25, "noise": 0.01}


def _add_cohort_flags(p):
    """Flags of a synthetic cohort (``synth`` and a ``pipeline`` without --input)."""
    p.add_argument("--preset", choices=sorted(GROUP_PRESETS), default=argparse.SUPPRESS)
    p.add_argument("--n", type=int, default=argparse.SUPPRESS)
    p.add_argument("--positive-rate", type=float, default=argparse.SUPPRESS)
    p.add_argument("--tpr-low", type=float, default=argparse.SUPPRESS)
    p.add_argument("--tpr-high", type=float, default=argparse.SUPPRESS)
    p.add_argument("--fpr", type=float, default=argparse.SUPPRESS)
    p.add_argument("--modality-windows", default=argparse.SUPPRESS, help='e.g. "0:0.5,0.5:1"')
    p.add_argument("--synth-config", default=argparse.SUPPRESS, help="JSON cohort config without a seed; replaces the other cohort flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="equifair", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort or planted embeddings")
    _add_cohort_flags(p)
    p.add_argument("--plant-embeddings", action="store_true", help="emit a planted-bias embedding file instead of a cohort")
    p.add_argument("--equality-sets", default=argparse.SUPPRESS)
    p.add_argument("--vocab", type=int, default=argparse.SUPPRESS)
    p.add_argument("--dim", type=int, default=argparse.SUPPRESS)
    p.add_argument("--noise", type=float, default=argparse.SUPPRESS)
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
    _add_cohort_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pipeline)
    return parser


@contextmanager
def _escaped_stdout():
    """Escape what stdout cannot encode, as stderr does, until the command
    ends: status lines name output paths."""
    stdout = sys.stdout
    if not hasattr(stdout, "reconfigure"):
        yield
        return
    errors = stdout.errors
    stdout.reconfigure(errors="backslashreplace")
    try:
        yield
    finally:
        stdout.reconfigure(errors=errors)


def main(argv=None) -> int:
    with _escaped_stdout():
        return _run(argv)


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"--{name.replace('_', '-')} must be finite, got {value}")
        if "C" in vars(args):  # checked even where no ensemble stage runs
            check_C(args.C)
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
