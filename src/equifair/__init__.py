"""equifair: audit and mitigate group unfairness in binary classifiers.

The toolkit covers group-conditional fairness metrics, equalized-odds
post-processing (hard and soft variants), hard debiasing of word
embeddings, logistic score ensembling, and seeded synthetic cohorts that
make every property verifiable without restricted data.

Each public name loads its module on first use (PEP 562), so importing
the package alone does not import numpy: ``python -m equifair`` sets its
BLAS thread defaults before that happens (see ``__main__``).
"""

from importlib import import_module

__version__ = "0.6.0"

_EXPORTS = {
    "debias": (
        "BiasSubspace", "DebiasResult", "EmbeddingMatrix", "EqualitySets", "equalize", "hard_debias",
        "identify_subspace", "load_embeddings", "neutralize", "project", "save_embeddings",
    ),
    "ensemble": ("EnsembleModel", "fit_ensemble", "predict_proba"),
    "eo": (
        "DerivedPredictor", "LossSpec", "apply_hard", "apply_soft", "expected_loss", "expected_rates",
        "fit_eo_hard", "fit_eo_soft",
    ),
    "errors": (
        "DegenerateInputError", "EmptyInputError", "EquifairError", "FormatError", "GroupMismatchError",
        "ValidationError",
    ),
    "metrics": (
        "FairnessReport", "GroupRateEntry", "auc_prc", "auc_roc", "build_report", "confusion_rates", "gap_ranges",
        "multilabel_auc", "roc_curve",
    ),
    "predictions": ("LabeledPredictions", "read_predictions", "write_predictions"),
    "synth": ("CohortConfig", "EmbeddingPlantConfig", "generate_cohort", "generate_embeddings", "generate_multilabel"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
