import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from equifair.debias import format_embeddings
from equifair.synth import EmbeddingPlantConfig, generate_embeddings
from equifair.wordsets import GENDER_SETS, RACE_SETS, preset_sets

E1 = BiasSubspace(basis=np.array([[1.0, 0.0, 0.0]]))


def random_orthogonal_probe(basis: np.ndarray, rng) -> np.ndarray:
    v = rng.standard_normal(basis.shape[1])
    v -= (basis @ v) @ basis
    return v / np.linalg.norm(v)


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
        emb, sets, _ = self._planted()
        snapshot = emb.vectors.copy()
        hard_debias(emb, sets)
        np.testing.assert_array_equal(emb.vectors, snapshot)

    def test_explicit_neutral_list(self):
        emb, sets, _ = self._planted()
        result = hard_debias(emb, sets, neutral_policy=["neutral000", "neutral001"])
        assert set(result.neutralized) == {"neutral000", "neutral001"}

    def test_race_presets_resolve(self):
        assert len(preset_sets("race")) == 18
        assert len(preset_sets("gender")) == 7
        assert all(len(s) == 4 for s in RACE_SETS)


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
        assert format_embeddings(again) == text1

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

    @pytest.mark.parametrize("token", ["a b", "a\nb", "a\rb"], ids=["space", "lf", "cr"])
    def test_token_the_reader_would_split_is_refused(self, tmp_path, token):
        emb = EmbeddingMatrix(tokens=(token, "c"), vectors=np.eye(2))
        with pytest.raises(FormatError, match="whitespace"):
            save_embeddings(emb, tmp_path / "emb.txt")
        assert not (tmp_path / "emb.txt").exists()
