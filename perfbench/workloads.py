"""Workload table: the inputs each workload builds and the equifair CLI
command it times.

Every input is a pure function of the workload and the benchmark seed, so
one seed always gives byte-identical files.  ``Workload.cli_args`` is the
argument list of ``python -m equifair``; the command line a user would type
is ``equifair <args>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Two informative halves, one per modality: the ensemble stage has to
# combine them to beat either constituent.
COMPLEMENTARY_WINDOWS = ((0.0, 0.5), (0.5, 1.0))
EMBEDDING_NOISE = 0.01
COST_FN = 3.0  # --cost-fn of both audits; --cost-fp stays at its default, 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "audit" (two prediction files) or "debias" (one embedding file)
    size: int  # rows per prediction file, or words in the vocabulary
    preset: str = ""  # group preset of an audit, equality-set preset of a debias
    intervention: str = ""
    with_scores: bool = False  # audit files carry score_m0/score_m1, else y_hat only
    dim: int = 0

    def rows_read(self, size: int | None = None) -> int:
        """Rows the CLI command reads: fit plus eval rows, or words."""
        n = size or self.size
        return 2 * n if self.kind == "audit" else n

    def inputs(self, work: Path) -> dict[str, Path]:
        if self.kind == "audit":
            return {"fit": work / "fit.csv", "eval": work / "eval.csv"}
        return {"embeddings": work / "embeddings.txt"}

    def cli_args(self, work: Path, out: Path, seed: int) -> list[str]:
        inputs = self.inputs(work)
        if self.kind == "audit":
            return [
                "pipeline", "--intervention", self.intervention, "--cost-fn", f"{COST_FN:g}",
                "--fit-input", str(inputs["fit"]), "--input", str(inputs["eval"]),
                "--seed", str(seed), "--out", str(out),
            ]
        return [
            "debias", "--embeddings", str(inputs["embeddings"]),
            "--equality-sets", self.preset, "--out", str(out),
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("soft-audit", "audit", 200_000, preset="ethnicity", intervention="eo-soft", with_scores=True),
        Workload("hard-audit", "audit", 450_000, preset="insurance", intervention="eo-hard"),
        Workload("debias-vocab", "debias", 10_000, preset="race", dim=300),
    )
}


def split_seeds(seed: int) -> dict[str, int]:
    """Cohort seeds of the fit and eval files of an audit."""
    return {"fit": 2 * seed, "eval": 2 * seed + 1}
