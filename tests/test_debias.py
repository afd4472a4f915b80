import concurrent.futures
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from equifair import (
    BiasSubspace,
    DegenerateInputError,
    EmbeddingMatrix,
    EqualitySets,
    FormatError,
    ValidationError,
    equalize,
    hard_debias,
    identify_subspace,
    load_embeddings,
    neutralize,
    project,
    save_embeddings,
)
from equifair import debias, pool
from equifair.synth import EmbeddingPlantConfig, generate_embeddings
from equifair.wordsets import GENDER_SETS, RACE_SETS, preset_sets

from helpers import MALFORMED_EMBEDDINGS
from oracles import format_embeddings_oracle, hard_debias_oracle, load_embeddings_oracle

E1 = BiasSubspace(basis=np.array([[1.0, 0.0, 0.0]]))


def random_orthogonal_probe(basis: np.ndarray, rng) -> np.ndarray:
    v = rng.standard_normal(basis.shape[1])
    v -= (basis @ v) @ basis
    return v / np.linalg.norm(v)


class TestEmbeddingMatrix:
    def test_caller_array_stays_writable_and_unaliased(self):
        vectors = np.eye(3)
        emb = EmbeddingMatrix(tokens=("a", "b", "c"), vectors=vectors)
        assert vectors.flags.writeable and not np.shares_memory(vectors, emb.vectors)
        vectors[0, 0] = 7.0
        assert emb.vectors[0, 0] == 1.0 and not emb.vectors.flags.writeable

    def test_derived_matrices_are_frozen_and_unaliased(self, tmp_path):
        vectors = np.array([[3.0, 4.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0], [1.0, 1.0, 1.0]])
        emb = EmbeddingMatrix(tokens=("he", "she", "x", "y"), vectors=vectors)
        save_embeddings(emb, tmp_path / "e.txt")
        derived = {
            "hard_debias": hard_debias(emb, EqualitySets((("he", "she"),))).embeddings,
            "load_embeddings": load_embeddings(tmp_path / "e.txt"),
        }
        for name, other in derived.items():
            assert not other.vectors.flags.writeable, name
            assert not np.shares_memory(other.vectors, emb.vectors), name
            assert not np.shares_memory(other.vectors, vectors), name
        assert vectors.flags.writeable


class TestIdentifySubspace:
    def test_planted_axis_recovered(self):
        emb = EmbeddingMatrix(
            tokens=("m", "f", "x"),
            vectors=np.array([[0.6, 0.8, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
        )
        sub = identify_subspace(emb, EqualitySets((("m", "f"),)), k=1)
        assert abs(sub.basis[0] @ np.array([1.0, 0, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_noisy_planted_direction_recovered(self):
        cfg = EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=50, dim=25, noise=0.01, seed=1)
        emb, sets, planted = generate_embeddings(cfg)
        sub = identify_subspace(emb, sets, k=1)
        assert abs(float(sub.basis[0] @ planted.basis[0])) >= 0.99

    def test_rank_deficient_k_rejected(self):
        emb = EmbeddingMatrix(
            tokens=("m", "f", "x"),
            vectors=np.array([[0.6, 0.8, 0.0], [-0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
        )
        with pytest.raises(DegenerateInputError):
            identify_subspace(emb, EqualitySets((("m", "f"),)), k=2)

    def test_identical_vectors_rejected(self):
        emb = EmbeddingMatrix(tokens=("a", "b"), vectors=np.array([[1.0, 0, 0], [1.0, 0, 0]]))
        with pytest.raises(DegenerateInputError):
            identify_subspace(emb, EqualitySets((("a", "b"),)), k=1)

    def test_unresolvable_sets_rejected(self):
        emb = EmbeddingMatrix(tokens=("a", "b"), vectors=np.eye(2))
        with pytest.raises(ValidationError):
            identify_subspace(emb, EqualitySets((("x", "y"),)), k=1)

    def test_permutation_invariance_up_to_sign(self):
        cfg = EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=30, dim=12, noise=0.02, seed=6)
        emb, sets, _ = generate_embeddings(cfg)
        sub1 = identify_subspace(emb, sets, k=1)
        shuffled = EqualitySets(tuple(reversed([tuple(reversed(s)) for s in sets])))
        sub2 = identify_subspace(emb, shuffled, k=1)
        assert abs(float(sub1.basis[0] @ sub2.basis[0])) == pytest.approx(1.0, abs=1e-9)

    def test_explained_variance_fractions(self):
        cfg = EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=30, dim=12, noise=0.05, seed=7)
        emb, sets, _ = generate_embeddings(cfg)
        sub = identify_subspace(emb, sets, k=1)
        assert sub.explained_variance is not None
        assert 0.5 < sub.explained_variance[0] <= 1.0


class TestProject:
    def test_orthogonal_vector_maps_to_zero(self):
        np.testing.assert_allclose(project(np.array([0.0, 1.0, 2.0]), E1), 0.0, atol=1e-15)

    def test_inside_vector_is_fixed(self):
        w = np.array([0.7, 0.0, 0.0])
        np.testing.assert_allclose(project(w, E1), w, atol=1e-15)

    def test_coordinate_projection(self):
        np.testing.assert_allclose(
            project(np.array([0.6, 0.8, 0.0]), E1), [0.6, 0.0, 0.0], atol=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            project(np.array([1.0, 0.0]), E1)

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0].T
        sub = BiasSubspace(basis=basis)
        w = rng.standard_normal(6)
        residual = w - project(w, sub)
        assert np.abs(sub.basis @ residual).max() <= 1e-10


class TestNeutralize:
    def test_unit_orthogonal_vector_is_fixed_point(self):
        w = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(neutralize(w, E1), w, atol=1e-15)

    def test_forced_by_formula(self):
        np.testing.assert_allclose(
            neutralize(np.array([0.6, 0.8, 0.0]), E1), [0.0, 1.0, 0.0], atol=1e-15
        )

    def test_vector_inside_subspace_is_degenerate(self):
        with pytest.raises(DegenerateInputError, match="token-x"):
            neutralize(np.array([1.0, 0.0, 0.0]), E1, label="token-x")

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_output_orthogonal_and_unit(self, seed):
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((8, 2)))[0].T
        sub = BiasSubspace(basis=basis)
        w = rng.standard_normal(8)
        if np.linalg.norm(w - project(w, sub)) <= 1e-6:
            return
        out = neutralize(w, sub)
        assert np.abs(sub.basis @ out).max() <= 1e-10
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


class TestEqualize:
    def test_already_equalized_fixed_point(self):
        vs = [np.array([0.8, 0.6, 0.0]), np.array([-0.8, 0.6, 0.0])]
        out = equalize(vs, E1)
        np.testing.assert_allclose(out[0], vs[0], atol=1e-12)
        np.testing.assert_allclose(out[1], vs[1], atol=1e-12)

    def test_worked_example(self):
        # by-hand evaluation: mean (0.2, 0.4, 0); off-subspace part (0, 0.4, 0);
        # in-subspace deviations ±0.8 along e1; scale sqrt(1 - 0.16)
        out = equalize([np.array([1.0, 0.0, 0.0]), np.array([-0.6, 0.8, 0.0])], E1)
        root = np.sqrt(0.84)
        np.testing.assert_allclose(out[0], [root, 0.4, 0.0], atol=1e-12)
        np.testing.assert_allclose(out[1], [-root, 0.4, 0.0], atol=1e-12)

    def test_identical_vectors_degenerate(self):
        with pytest.raises(DegenerateInputError):
            equalize([np.array([0.6, 0.8, 0.0]), np.array([0.6, 0.8, 0.0])], E1)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 5))
    @settings(max_examples=50)
    def test_norms_and_equidistance(self, seed, size):
        rng = np.random.default_rng(seed)
        dim = 10
        basis = np.linalg.qr(rng.standard_normal((dim, 2)))[0].T
        sub = BiasSubspace(basis=basis)
        vecs = rng.standard_normal((size, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        try:
            out = equalize(list(vecs), sub)
        except DegenerateInputError:
            return
        for v in out:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
        for _ in range(20):
            probe = random_orthogonal_probe(basis, rng)
            dots = [float(v @ probe) for v in out]
            assert max(dots) - min(dots) <= 1e-9


class TestHardDebias:
    def _planted(self, noise=0.01, seed=2, sets=GENDER_SETS, **kwargs):
        cfg = EmbeddingPlantConfig(equality_sets=sets, vocab_size=50, dim=25, noise=noise, seed=seed, **kwargs)
        return generate_embeddings(cfg)

    def test_neutral_words_orthogonal_after_debias(self):
        emb, sets, _ = self._planted()
        result = hard_debias(emb, sets)
        neutral = [t for t in result.embeddings.tokens if t.startswith("neutral")]
        mat = np.stack([result.embeddings.get(t) for t in neutral])
        assert np.abs(mat @ result.subspace.basis.T).max() <= 1e-9
        norms = np.linalg.norm(result.embeddings.vectors, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9

    def test_orthogonal_embedding_is_noop_up_to_renormalization(self):
        emb, sets, planted = self._planted(noise=0.0)
        result = hard_debias(emb, sets)
        for t in emb.tokens:
            if t.startswith("neutral"):
                before = emb.get(t) / np.linalg.norm(emb.get(t))
                np.testing.assert_allclose(result.embeddings.get(t), before, atol=1e-9)

    def test_four_member_sets_equalized(self):
        quads = (("w1", "w2", "w3", "w4"), ("w5", "w6", "w7", "w8"))
        emb, sets, _ = self._planted(sets=quads, noise=0.01, seed=3)
        result = hard_debias(emb, sets, k=1)
        assert result.equalized_sets == quads
        rng = np.random.default_rng(0)
        for s in result.equalized_sets:
            for _ in range(20):
                probe = random_orthogonal_probe(result.subspace.basis, rng)
                dots = [float(result.embeddings.get(w) @ probe) for w in s]
                assert max(dots) - min(dots) <= 1e-9

    def test_idempotent_on_neutral_words(self):
        emb, sets, _ = self._planted()
        once = hard_debias(emb, sets)
        twice = hard_debias(once.embeddings, sets)
        for t in emb.tokens:
            if t.startswith("neutral"):
                np.testing.assert_allclose(
                    twice.embeddings.get(t), once.embeddings.get(t), atol=1e-9
                )

    def test_missing_words_dropped_and_reported(self):
        emb, _, _ = self._planted()
        sets = EqualitySets(GENDER_SETS + (("nonexistent1", "nonexistent2"),))
        result = hard_debias(emb, sets)
        assert (("nonexistent1", "nonexistent2"),) == result.dropped_sets

    def test_input_immutable(self):
        # the unit rows are rewritten in place: never the caller's vectors
        emb, sets, _ = self._planted()
        before = emb.vectors.tobytes()
        out = hard_debias(emb, sets).embeddings
        assert emb.vectors.tobytes() == before and not emb.vectors.flags.writeable
        assert not out.vectors.flags.writeable and out.vectors.base is None
        assert not np.shares_memory(out.vectors, emb.vectors)

    def test_explicit_neutral_list(self):
        emb, sets, _ = self._planted()
        result = hard_debias(emb, sets, neutral_policy=["neutral000", "neutral001"])
        assert set(result.neutralized) == {"neutral000", "neutral001"}

    def test_race_presets_resolve(self):
        assert len(preset_sets("race")) == 18
        assert len(preset_sets("gender")) == 7
        assert all(len(s) == 4 for s in RACE_SETS)


def _debias_outcome(fn, emb, sets, policy, k):
    """The error, or the bits of everything a debias result reports."""
    try:
        r = fn(emb, sets, neutral_policy=policy, k=k)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        r.embeddings.tokens,
        r.embeddings.vectors.tobytes(),
        r.subspace.basis.tobytes(),
        r.skip_report(),
        r.neutralized,
        r.equalized_sets,
    )


@st.composite
def debias_cases(draw):
    """(embeddings, equality sets, neutral policy, k) over a small vocabulary:
    sets may share a token or name one the vocabulary lacks, a set may hold
    two parallel vectors (it cannot be equalized), mirrored pairs give a
    subspace along the first axis, and a word on that axis cannot be
    neutralized."""
    dim = draw(st.integers(2, 5))
    n = draw(st.integers(4, 9))
    tokens = [f"w{i}" for i in range(n)]
    values = st.floats(0.05, 3) | st.floats(-3, -0.05) | st.sampled_from([1.0, -1.0, 0.0])
    vectors = draw(arrays(np.float64, (n, dim), elements=values))
    words = st.sampled_from(tokens + ["absent"])
    sets = draw(st.lists(st.lists(words, min_size=2, max_size=3, unique=True), min_size=1, max_size=3))
    if draw(st.booleans()):  # mirrored pairs, and a word along the mirror axis
        for a, b, *_ in sets:
            if a != "absent" and b != "absent":
                vectors[int(b[1:])] = vectors[int(a[1:])] * np.r_[-1.0, np.ones(dim - 1)]
        vectors[-1] = np.eye(dim)[0] * draw(st.sampled_from([1.0, -2.5]))
    if draw(st.booleans()) and "absent" not in sets[-1][:2]:  # parallel members
        vectors[int(sets[-1][1][1:])] = 2.0 * vectors[int(sets[-1][0][1:])]
    policy = draw(st.none() | st.lists(words, max_size=n))
    k = draw(st.none() | st.integers(1, 2))
    return EmbeddingMatrix(tokens=tuple(tokens), vectors=vectors), EqualitySets(sets), policy, k


class TestHardDebiasInPlace:
    """``hard_debias`` rewrites the one matrix of unit rows it makes; the
    copying code it replaced is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(debias_cases())
    def test_equals_the_copying_oracle(self, case):
        got = _debias_outcome(hard_debias, *case)
        assert got == _debias_outcome(hard_debias_oracle, *case)

    @pytest.mark.parametrize(
        "sets, policy, skipped",
        [
            ((("he", "she"),), ["he", "x", "y"], ()),  # the policy lists a set word
            ((("he", "she"), ("she", "y")), None, ()),  # "she" is in two sets
            ((("he", "she"),), None, ("axis",)),  # "axis" lies inside the subspace
            ((("he", "she"), ("x", "twin")), None, ("axis", "x", "twin")),  # parallel members
        ],
        ids=["policy-lists-a-set-word", "token-in-two-sets", "degenerate-neutral-word", "degenerate-set"],
    )
    def test_cases_equal_the_oracle(self, sets, policy, skipped):
        emb = EmbeddingMatrix(
            tokens=("he", "she", "x", "y", "axis", "twin"),
            vectors=np.array(
                [[0.9, 0.3, 0.1], [-0.9, 0.3, 0.1], [0.2, 0.5, 0.7], [0.1, -0.8, 0.4], [2.0, 0.0, 0.0], [0.4, 1.0, 1.4]]
            ),
        )
        case = (emb, EqualitySets(sets), policy, None)
        got = _debias_outcome(hard_debias, *case)
        assert got == _debias_outcome(hard_debias_oracle, *case)
        assert tuple(got[3]["skipped_words"]) == skipped


def _traced_peak(fn) -> int:
    """Bytes ``fn()`` holds at its peak, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDebiasMemory:
    """``hard_debias`` and ``load_embeddings`` hold one new matrix, not two
    (the copying code peaked at 2.16 and 2.22 matrices)."""

    N, DIM = 2000, 300

    @pytest.fixture
    def emb(self, monkeypatch):
        monkeypatch.setattr(debias, "_BLOCK_VALUES", 1024)
        monkeypatch.setattr(debias, "_POOL_FLOOR", 1 << 62)
        rng = np.random.default_rng(0)
        return EmbeddingMatrix(tokens=tuple(f"w{i}" for i in range(self.N)), vectors=rng.standard_normal((self.N, self.DIM)))

    def test_hard_debias_peak(self, emb):
        sets = EqualitySets((("w0", "w1"), ("w2", "w3"), ("w4", "w5", "w6")))
        assert _traced_peak(lambda: hard_debias(emb, sets)) <= 1.3 * emb.vectors.nbytes

    def test_load_peak(self, emb, tmp_path):
        save_embeddings(emb, tmp_path / "e.txt")
        assert _traced_peak(lambda: load_embeddings(tmp_path / "e.txt")) <= 1.3 * emb.vectors.nbytes


class TestEmbeddingIO:
    def test_two_word_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nfoo 0.1 0.2 0.3\nbar -1.0 0.5 2.0\n", encoding="utf-8")
        emb = load_embeddings(path)
        assert emb.tokens == ("foo", "bar")
        np.testing.assert_allclose(emb.get("bar"), [-1.0, 0.5, 2.0])

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        emb = EmbeddingMatrix(
            tokens=tuple(f"w{i}" for i in range(1000)),
            vectors=rng.standard_normal((1000, 8)),
        )
        path = tmp_path / "emb.txt"
        save_embeddings(emb, path)
        text1 = path.read_text(encoding="utf-8")
        again = load_embeddings(path)
        np.testing.assert_array_equal(again.vectors, emb.vectors)
        assert format_embeddings_oracle(again) == text1

    def test_wrong_dimension_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\nfoo 0.1 0.2 0.3\nbar 1.0 0.5\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 3"):
            load_embeddings(path)

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\nfoo 0.1 0.2\nfoo 1.0 0.5\n", encoding="utf-8")
        with pytest.raises(FormatError, match="duplicate"):
            load_embeddings(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("banana\nfoo 0.1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 1"):
            load_embeddings(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\nfoo 0.1 0.2\nbar 1.0 0.5\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "text",
        ["1 1\n 5", "2 1\na 5\n 6", "2 2\n 1 2\nb 3 4\n", "1 3\r\n 1 2 3", "2 1\n\n\na 5\n 6"],
        ids=["one-row-no-newline", "two-rows-no-newline", "two-rows", "crlf-header", "blank-lines"],
    )
    def test_rows_of_the_fewest_bytes_are_all_read(self, tmp_path, text):
        # the matrix is sized for the rows the file's bytes can hold
        path = tmp_path / "emb.txt"
        path.write_bytes(text.encode())
        got, want = load_embeddings(path), load_embeddings_oracle(path)
        assert got.tokens == want.tokens
        assert got.vectors.tobytes() == want.vectors.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_a_pipe_is_read_whole(self, tmp_path):
        # a pipe has no size to bound the matrix by
        path = tmp_path / "emb.fifo"
        os.mkfifo(path)
        text = "3 2\na 1 2\nb 3 4\nc 5 6\n"
        writer = subprocess.Popen([sys.executable, "-c", f"open({str(path)!r}, 'w').write({text!r})"])
        try:
            emb = load_embeddings(path)
        finally:
            writer.wait(timeout=60)
        assert emb.tokens == ("a", "b", "c")
        assert emb.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    @pytest.mark.parametrize("token", ["a b", "a\nb", "a\rb"], ids=["space", "lf", "cr"])
    def test_token_the_reader_would_split_is_refused(self, tmp_path, token):
        emb = EmbeddingMatrix(tokens=(token, "c"), vectors=np.eye(2))
        with pytest.raises(FormatError, match="whitespace"):
            save_embeddings(emb, tmp_path / "emb.txt")
        assert not (tmp_path / "emb.txt").exists()


@contextmanager
def embedding_io(pooled: bool, block_values: int = debias._BLOCK_VALUES):
    """Embedding file I/O in blocks of ``block_values`` values, on a pool
    of 2 workers from 0 values on, or always in this process.  Yields the
    list of the pools started."""
    started = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
        mp.setattr(pool, "_usable_cpus", lambda: 2)
        mp.setattr(debias, "_POOL_FLOOR", 0 if pooled else 1 << 62)
        mp.setattr(debias, "_BLOCK_VALUES", block_values)
        yield started


TOKENS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=" \n\r"), max_size=6)
VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300]
)


@st.composite
def embedding_files(draw):
    """(block rows, embeddings) with a vocabulary of 1 to 3 blocks and one more row."""
    dim = draw(st.integers(1, 40))
    block_rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3 * block_rows + 1))
    tokens = draw(st.lists(TOKENS, min_size=n, max_size=n, unique=True))
    return block_rows, EmbeddingMatrix(tokens=tuple(tokens), vectors=draw(arrays(np.float64, (n, dim), elements=VALUES)))


_parse_block, _format_block = debias._parse_block, debias._format_block


def _parse_or_die(lines, dim):
    """``_parse_block``, except that a pool worker given the line of ``w2`` dies."""
    if multiprocessing.parent_process() is not None and lines[0].startswith("w2 "):
        os.kill(os.getpid(), signal.SIGKILL)
    return _parse_block(lines, dim)


def _format_or_die(tokens, vectors):
    """``_format_block``, except that a pool worker given the row of ``w2`` dies."""
    if multiprocessing.parent_process() is not None and tokens[0] == "w2":
        os.kill(os.getpid(), signal.SIGKILL)
    return _format_block(tokens, vectors)


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


class TestBlockedEmbeddingIO:
    """Embedding files read and written a block of rows at a time, in this
    process or on a process pool, against the row-by-row oracles."""

    def _check_round_trip(self, pooled, case):
        block_rows, emb = case
        with tempfile.TemporaryDirectory() as tmp, embedding_io(pooled, block_rows * emb.dim) as started:
            path = Path(tmp) / "emb.txt"
            save_embeddings(emb, path)
            assert path.read_bytes() == format_embeddings_oracle(emb).encode()
            got, want = load_embeddings(path), load_embeddings_oracle(path)
            assert len(started) == (2 if pooled else 0)
        assert got.tokens == want.tokens == emb.tokens
        assert got.vectors.shape == want.vectors.shape
        np.testing.assert_array_equal(got.vectors.view(np.int64), want.vectors.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(embedding_files())
    def test_in_process_matches_the_oracles(self, case):
        self._check_round_trip(False, case)

    @settings(max_examples=4, deadline=None)
    @given(embedding_files())
    def test_pooled_matches_the_oracles(self, case):
        self._check_round_trip(True, case)

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pooled"])
    @pytest.mark.parametrize("case", list(MALFORMED_EMBEDDINGS))
    def test_malformed_file_gives_the_oracles_error(self, case, pooled, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(MALFORMED_EMBEDDINGS[case])
        with embedding_io(pooled, block_values=4):
            got = _outcome(load_embeddings, path)
        want = _outcome(load_embeddings_oracle, path)
        assert isinstance(want, tuple), "the case must be malformed"
        assert got == want

    def test_small_files_stay_in_process(self, tmp_path):
        emb = EmbeddingMatrix(tokens=("a", "b"), vectors=np.eye(2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # calling it would fail
            save_embeddings(emb, tmp_path / "emb.txt")
            again = load_embeddings(tmp_path / "emb.txt")
        assert again.tokens == emb.tokens
        np.testing.assert_array_equal(again.vectors, emb.vectors)

    @pytest.mark.parametrize("error", [OSError, NotImplementedError])
    def test_no_pool_falls_back_to_this_process(self, error, tmp_path):
        def unavailable(*args, **kwargs):
            raise error("no pool here")

        emb = EmbeddingMatrix(tokens=tuple("abcd"), vectors=np.arange(8.0).reshape(4, 2))
        with embedding_io(True, block_values=2), pytest.MonkeyPatch.context() as mp:
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
            save_embeddings(emb, tmp_path / "emb.txt")
            again = load_embeddings(tmp_path / "emb.txt")
        assert (tmp_path / "emb.txt").read_text(encoding="utf-8") == format_embeddings_oracle(emb)
        assert again.tokens == emb.tokens
        np.testing.assert_array_equal(again.vectors, emb.vectors)


    def test_a_dead_worker_leaves_its_jobs_to_this_process(self, tmp_path):
        emb = EmbeddingMatrix(tokens=tuple(f"w{i}" for i in range(8)), vectors=np.arange(16.0).reshape(8, 2))
        with embedding_io(True, block_values=2) as started, pytest.MonkeyPatch.context() as mp:
            mp.setattr(debias, "_format_block", _format_or_die)
            mp.setattr(debias, "_parse_block", _parse_or_die)
            save_embeddings(emb, tmp_path / "emb.txt")
            again = load_embeddings(tmp_path / "emb.txt")
        assert len(started) == 2
        for pool in started:
            with pytest.raises(concurrent.futures.process.BrokenProcessPool):
                pool.submit(int)
        assert (tmp_path / "emb.txt").read_text(encoding="utf-8") == format_embeddings_oracle(emb)
        assert again.tokens == emb.tokens
        np.testing.assert_array_equal(again.vectors, emb.vectors)


@pytest.mark.parametrize("method", [None, "spawn"], ids=["default-start", "spawn"])
def test_a_script_without_a_main_guard_gets_its_file(method, tmp_path):
    # spawned workers re-run such a script and die starting a pool of their
    # own; the file is then handled in the script's process
    dim = 64
    rows = -(-debias._POOL_FLOOR // dim)
    (tmp_path / "in.txt").write_text(
        f"{rows} {dim}\n" + "".join(f"w{i} " + " ".join([str(i % 7 / 4)] * dim) + "\n" for i in range(rows)),
        encoding="utf-8",
    )
    start = "" if method is None else f"import multiprocessing\nmultiprocessing.set_start_method({method!r}, force=True)\n"
    (tmp_path / "script.py").write_text(
        start + "import sys\n"
        "from equifair.debias import load_embeddings, save_embeddings\n"
        "emb = load_embeddings(sys.argv[1])\n"
        "save_embeddings(emb, sys.argv[2])\n"
        "print(len(emb))\n",
        encoding="utf-8",
    )
    res = subprocess.run(
        [sys.executable, tmp_path / "script.py", tmp_path / "in.txt", tmp_path / "out.txt"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (res.returncode, res.stdout) == (0, f"{rows}\n"), res.stderr
    if method is None and multiprocessing.get_start_method() == "fork":
        assert res.stderr == ""
    assert (tmp_path / "out.txt").read_bytes() == format_embeddings_oracle(load_embeddings_oracle(tmp_path / "in.txt")).encode()


def _running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_workers_end_with_the_process_that_started_them(method, tmp_path):
    # the workers' pids go to a file: a worker left running would hold a pipe open
    script = (
        "import multiprocessing, os, signal, sys\n"
        "from equifair import pool\n"
        "multiprocessing.set_start_method(sys.argv[2])\n"
        "pool._usable_cpus = lambda: 2\n"
        "with pool._process_pool(0, 0) as executor:\n"
        "    list(pool._pooled(executor, os.getpid, [()] * 8))\n"
        "    with open(sys.argv[1], 'w') as fh:\n"
        "        print(*(p.pid for p in multiprocessing.active_children()), file=fh)\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    with (tmp_path / "stderr.txt").open("w") as err:
        code = subprocess.run(
            [sys.executable, "-c", script, tmp_path / "pids", method], stderr=err, timeout=120
        ).returncode
    assert code == -signal.SIGKILL, (tmp_path / "stderr.txt").read_text()
    workers = [int(pid) for pid in (tmp_path / "pids").read_text().split()]
    assert workers
    try:
        deadline = time.monotonic() + 30
        while any(map(_running, workers)):
            assert time.monotonic() < deadline, "a worker outlived the process that started it"
            time.sleep(0.05)
    finally:
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
