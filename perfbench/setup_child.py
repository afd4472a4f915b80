"""Build one workload's inputs with equifair's own generators and writers.

Run in a fresh process by ``run.py``:

    python perfbench/setup_child.py <workload> <seed> <work dir> <size>

Only the calls to the generators (``generate_cohort``,
``generate_embeddings``) and writers (``write_predictions``,
``save_embeddings``) are timed; interpreter start and imports are not.
Prints one JSON object with the timings on stdout.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import equifair.cli  # noqa: F401  compiles the CLI's bytecode before any timed run
from equifair.debias import save_embeddings
from equifair.predictions import write_predictions
from equifair.synth import (
    CohortConfig,
    EmbeddingPlantConfig,
    GROUP_PRESETS,
    gapped_score_models,
    generate_cohort,
    generate_embeddings,
)
from equifair.wordsets import PRESETS

from workloads import COMPLEMENTARY_WINDOWS, EMBEDDING_NOISE, WORKLOADS, split_seeds


def build_audit(w, seed: int, work: Path, size: int) -> tuple[float, float]:
    groups = GROUP_PRESETS[w.preset]
    models = gapped_score_models(groups)
    windows = COMPLEMENTARY_WINDOWS if w.with_scores else ((0.0, 1.0),)
    generate_s = write_s = 0.0
    for part, path in w.inputs(work).items():
        cfg = CohortConfig(
            groups=groups,
            score_models=models,
            n_samples=size,
            seed=split_seeds(seed)[part],
            modality_windows=windows,
            id_prefix=part[0],
        )
        t0 = time.perf_counter()
        cohort = generate_cohort(cfg)
        generate_s += time.perf_counter() - t0
        preds = cohort.modalities[0]
        constituents = None
        if w.with_scores:
            constituents = {f"m{j}": m.scores for j, m in enumerate(cohort.modalities)}
        else:
            preds = replace(preds, scores=None)
        t0 = time.perf_counter()
        write_predictions(preds, path, constituents)
        write_s += time.perf_counter() - t0
    return generate_s, write_s


def build_debias(w, seed: int, work: Path, size: int) -> tuple[float, float]:
    cfg = EmbeddingPlantConfig(
        equality_sets=PRESETS[w.preset],
        vocab_size=size,
        dim=w.dim,
        noise=EMBEDDING_NOISE,
        seed=seed,
    )
    t0 = time.perf_counter()
    emb, sets, _ = generate_embeddings(cfg)
    generate_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    save_embeddings(emb, w.inputs(work)["embeddings"])
    write_s = time.perf_counter() - t0
    # the sets the CLI resolves from the preset name, for the checks
    (work / "equality_sets.json").write_text(json.dumps([list(s) for s in sets]), encoding="utf-8")
    return generate_s, write_s


def main(argv: list[str]) -> int:
    name, seed, work, size = argv[0], int(argv[1]), Path(argv[2]), int(argv[3])
    w = WORKLOADS[name]
    build = build_audit if w.kind == "audit" else build_debias
    generate_s, write_s = build(w, seed, work, size)
    print(json.dumps({"generate_s": generate_s, "write_s": write_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
