"""Shipped equality-set presets for gender and race debiasing.

The CLI's ``--equality-sets`` flag takes a preset by name (``gender``,
``race``) or the path of a JSON file of sets.  Race-debiased embeddings
are conventionally reused when auditing insurance/SES groups, for which
no word sets exist.
"""

from __future__ import annotations

from .debias import EqualitySets
from .errors import ValidationError

GENDER_SETS: tuple[tuple[str, ...], ...] = (
    ("he", "she"),
    ("his", "hers"),
    ("son", "daughter"),
    ("father", "mother"),
    ("male", "female"),
    ("boy", "girl"),
    ("uncle", "aunt"),
)

RACE_SETS: tuple[tuple[str, ...], ...] = (
    ("black", "caucasian", "asian", "hispanics"),
    ("african", "caucasian", "asian", "hispanics"),
    ("black", "white", "asian", "hispanics"),
    ("africa", "america", "asia", "hispanics"),
    ("africa", "america", "china", "hispanics"),
    ("africa", "europe", "asia", "hispanics"),
    ("black", "caucasian", "asian", "latino"),
    ("african", "caucasian", "asian", "latino"),
    ("black", "white", "asian", "latino"),
    ("africa", "america", "asia", "latino"),
    ("africa", "america", "china", "latino"),
    ("africa", "europe", "asia", "latino"),
    ("black", "caucasian", "asian", "spanish"),
    ("african", "caucasian", "asian", "spanish"),
    ("black", "white", "asian", "spanish"),
    ("africa", "america", "asia", "spanish"),
    ("africa", "america", "china", "spanish"),
    ("africa", "europe", "asia", "spanish"),
)

PRESETS: dict[str, tuple[tuple[str, ...], ...]] = {
    "gender": GENDER_SETS,
    "race": RACE_SETS,
}


def preset_sets(name: str) -> EqualitySets:
    if name not in PRESETS:
        raise ValidationError(f"unknown equality-set preset {name!r}; choose from {sorted(PRESETS)}")
    return EqualitySets(PRESETS[name])


def resolve_equality_sets(spec: str) -> EqualitySets:
    """Interpret an --equality-sets value: a preset name or a JSON path."""
    if spec in PRESETS:
        return preset_sets(spec)
    return EqualitySets.from_json_file(spec)

