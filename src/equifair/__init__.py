"""equifair: audit and mitigate group unfairness in binary classifiers.

The toolkit covers group-conditional fairness metrics, equalized-odds
post-processing (hard and soft variants), hard debiasing of word
embeddings, logistic score ensembling, and seeded synthetic cohorts that
make every property verifiable without restricted data.
"""

__version__ = "0.1.0"

from .debias import (
    BiasSubspace,
    DebiasResult,
    EmbeddingMatrix,
    EqualitySets,
    equalize,
    hard_debias,
    identify_subspace,
    load_embeddings,
    neutralize,
    project,
    save_embeddings,
)
from .ensemble import EnsembleModel, fit_ensemble, predict_proba
from .eo import (
    DerivedPredictor,
    LossSpec,
    apply_hard,
    apply_soft,
    expected_loss,
    expected_rates,
    fit_eo_hard,
    fit_eo_soft,
)
from .errors import (
    DegenerateInputError,
    EmptyInputError,
    EquifairError,
    FormatError,
    GroupMismatchError,
    ValidationError,
)
from .metrics import (
    FairnessReport,
    GroupRates,
    auc_prc,
    auc_roc,
    build_report,
    confusion_rates,
    gap_ranges,
    multilabel_auc,
    roc_curve,
)
from .predictions import LabeledPredictions, read_predictions, write_predictions
from .synth import (
    CohortConfig,
    EmbeddingPlantConfig,
    generate_cohort,
    generate_embeddings,
    generate_multilabel,
)

__all__ = [
    "BiasSubspace",
    "CohortConfig",
    "DebiasResult",
    "DegenerateInputError",
    "DerivedPredictor",
    "EmbeddingMatrix",
    "EmbeddingPlantConfig",
    "EmptyInputError",
    "EnsembleModel",
    "EqualitySets",
    "EquifairError",
    "FairnessReport",
    "FormatError",
    "GroupMismatchError",
    "GroupRates",
    "LabeledPredictions",
    "LossSpec",
    "ValidationError",
    "apply_hard",
    "apply_soft",
    "auc_prc",
    "auc_roc",
    "build_report",
    "confusion_rates",
    "equalize",
    "expected_loss",
    "expected_rates",
    "fit_ensemble",
    "fit_eo_hard",
    "fit_eo_soft",
    "gap_ranges",
    "generate_cohort",
    "generate_embeddings",
    "generate_multilabel",
    "hard_debias",
    "identify_subspace",
    "load_embeddings",
    "multilabel_auc",
    "neutralize",
    "predict_proba",
    "project",
    "read_predictions",
    "roc_curve",
    "save_embeddings",
    "write_predictions",
]
