import json
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimgan.data import (
    ClaimRecord,
    LABEL_REFUTED,
    LABEL_SUPPORTED,
    LabeledDataset,
    check_priors,
    class_priors,
    embed_pairs,
    gaussian_mixture,
    load_claims,
    load_dataset,
    make_pairs,
    prior_from_counts,
    save_dataset,
    split,
)


def write_corpus(tmp_path, rows, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


class TestGaussianMixture:
    def test_shapes_and_labels(self):
        ds = gaussian_mixture(50, 3, ((0, 0, 0), (1, 1, 1)), 0.5, 0)
        assert len(ds) == 100 and ds.dim == 3
        assert int(ds.labels.sum()) == 50

    def test_class_means_near_targets(self):
        ds = gaussian_mixture(2000, 2, ((-3, 0), (3, 0)), 0.5, 1)
        assert np.allclose(ds.features[ds.labels == 1].mean(axis=0), (3, 0), atol=0.1)
        assert np.allclose(ds.features[ds.labels == 0].mean(axis=0), (-3, 0), atol=0.1)

    def test_deterministic(self):
        a = gaussian_mixture(10, 2, ((0, 0), (1, 1)), 1.0, 7)
        b = gaussian_mixture(10, 2, ((0, 0), (1, 1)), 1.0, 7)
        assert np.array_equal(a.features, b.features)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gaussian_mixture(10, 2, ((0, 0), (1, 1)), 0.0, 0)
        with pytest.raises(ValueError):
            gaussian_mixture(10, 2, ((0, 0, 0), (1, 1, 1)), 1.0, 0)


class TestLoadClaims:
    def test_labels_and_counts(self, tmp_path):
        path = write_corpus(
            tmp_path,
            [
                {"claim": "a", "evidence": ["e1", "e2"], "label": "SUPPORTS"},
                {"claim": "b", "evidence": ["e1"], "label": "refutes"},
                {"claim": "c", "evidence": ["e1"], "label": "NOT ENOUGH INFO"},
                {"claim": "d", "evidence": [], "label": "SUPPORTS"},
            ],
        )
        res = load_claims(path)
        assert [r.label for r in res.records] == [LABEL_SUPPORTED, LABEL_REFUTED]
        assert res.skipped_other_label == 1
        assert res.rejected_empty_evidence == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"claim": "a", "evidence": ["e"], "label": "SUPPORTS"}\n{oops\n')
        with pytest.raises(ValueError, match="line 2"):
            load_claims(path)

    def test_missing_field_rejected(self, tmp_path):
        path = write_corpus(tmp_path, [{"claim": "a", "label": "SUPPORTS"}])
        with pytest.raises(ValueError, match="line 1"):
            load_claims(path)

    def test_nonstring_evidence_rejected(self, tmp_path):
        path = write_corpus(
            tmp_path, [{"claim": "a", "evidence": [1, 2], "label": "SUPPORTS"}]
        )
        with pytest.raises(ValueError):
            load_claims(path)

    @pytest.mark.parametrize("claim", [None, 42, ["a"]])
    def test_nonstring_claim_rejected(self, tmp_path, claim):
        path = write_corpus(
            tmp_path,
            [
                {"claim": "a", "evidence": ["e"], "label": "SUPPORTS"},
                {"claim": claim, "evidence": ["e"], "label": "REFUTES"},
            ],
        )
        with pytest.raises(ValueError, match="line 2: claim must be a string"):
            load_claims(path)

    # json true/false used to pass as SUPPORTS/REFUTES through str(); the
    # rest were counted as third-label skips
    @pytest.mark.parametrize("label", [True, False, 1, None, ["SUPPORTS"]])
    def test_nonstring_label_rejected(self, tmp_path, label):
        path = write_corpus(
            tmp_path,
            [
                {"claim": "a", "evidence": ["e"], "label": "SUPPORTS"},
                {"claim": "b", "evidence": ["e"], "label": label},
            ],
        )
        with pytest.raises(ValueError, match="line 2: label must be a string"):
            load_claims(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            '\n{"claim": "a", "evidence": ["e"], "label": "true"}\n\n'
        )
        assert len(load_claims(path).records) == 1


class TestMakePairs:
    def test_one_pair_per_evidence_sentence(self):
        records = [
            ClaimRecord("c1", ["a", "b", "c"], 1),
            ClaimRecord("c2", ["d"], 0),
            ClaimRecord("c3", ["e", "f"], 1),
        ]
        pairs = make_pairs(records)
        assert len(pairs) == 6
        assert pairs[0] == ("c1 [SEP] a", 1)
        assert pairs[3] == ("c2 [SEP] d", 0)

    def test_duplicates_kept(self):
        pairs = make_pairs([ClaimRecord("c", ["e", "e"], 1)])
        assert len(pairs) == 2 and pairs[0] == pairs[1]


# texts whose tokens are hard to get right: case, digits, Unicode (including
# letters that lowercase to ASCII or to two code points), punctuation only,
# empty, repeated tokens, and many tokens in one bucket
ADVERSARIAL_PAIRS = [
    ("The CAT sat on the mat", 1),
    ("", 0),
    ("!!! ??? --- ...", 1),
    ("İstanbul İİ i̇", 0),
    ("Kelvin k K", 1),
    ("Straße café naïve ﬃ σας Ωmega", 0),
    ("abc123 123abc a1b2c3 007", 1),
    ("tab\tnew\nline\r\nend", 0),
    ("   ", 1),
    ("x " * 500, 0),
    (" ".join(f"w{i}" for i in range(400)), 1),
    ("claim text [SEP] evidence text", 0),
    ("日本語 テキスト only", 1),
    ("émoji 🙂 mixed 🙂🙂 words", 0),
    ("lone \ud800 surrogate", 1),
]


def _reference_embedding(pairs, dim, seed):
    """The original one-token-at-a-time embedding, kept as the reference."""
    features = np.zeros((len(pairs), dim))
    labels = np.zeros(len(pairs), dtype=np.int64)
    zero_count = 0
    for i, (text, label) in enumerate(pairs):
        for tok in [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]:
            features[i, zlib.crc32(f"{seed}:{tok}".encode()) % dim] += 1.0
        norm = np.linalg.norm(features[i])
        if norm > 0:
            features[i] /= norm
        else:
            zero_count += 1
        labels[i] = label
    return LabeledDataset(features, labels, zero_vector_count=zero_count)


class TestEmbedPairs:
    def test_unit_norm_rows(self):
        ds = embed_pairs([("the cat sat", 1), ("a dog ran", 0)], dim=16, seed=0)
        norms = np.linalg.norm(ds.features, axis=1)
        assert np.allclose(norms, 1.0)
        assert ds.zero_vector_count == 0

    def test_tokenization_case_insensitive(self):
        a = embed_pairs([("The CAT", 1)], dim=16, seed=0)
        b = embed_pairs([("the cat", 1)], dim=16, seed=0)
        assert np.array_equal(a.features, b.features)

    def test_empty_text_counted_as_zero_vector(self):
        ds = embed_pairs([("!!! ???", 1)], dim=16, seed=0)
        assert ds.zero_vector_count == 1
        assert np.all(ds.features == 0.0)

    def test_seed_changes_embedding(self):
        a = embed_pairs([("claim text here", 1)], dim=16, seed=0)
        b = embed_pairs([("claim text here", 1)], dim=16, seed=1)
        assert not np.array_equal(a.features, b.features)

    def test_stable_across_calls(self):
        pairs = [("alpha beta gamma", 1)]
        a = embed_pairs(pairs, dim=32, seed=5)
        b = embed_pairs(pairs, dim=32, seed=5)
        assert np.array_equal(a.features, b.features)

    def test_min_dim_enforced(self):
        with pytest.raises(ValueError):
            embed_pairs([("x", 1)], dim=4, seed=0)

    @pytest.mark.parametrize("pairs", [ADVERSARIAL_PAIRS, []], ids=["adversarial", "no-pairs"])
    @pytest.mark.parametrize("dim", [8, 17, 64, 300])
    @pytest.mark.parametrize("seed", [0, 123456789])
    def test_matches_per_token_reference(self, pairs, dim, seed):
        got, want = embed_pairs(pairs, dim, seed), _reference_embedding(pairs, dim, seed)
        assert got.features.shape == (len(pairs), dim)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.zero_vector_count == want.zero_vector_count


class TestPriors:
    def test_class_priors_from_dataset(self):
        ds = LabeledDataset(np.zeros((4, 8)), np.array([1, 1, 1, 0]))
        pi_p, pi_n = class_priors(ds)
        assert pi_p == 0.75 and pi_n == 0.25

    def test_priors_sum_to_one(self):
        pi_p, pi_n = prior_from_counts(80035, 29775)
        assert pi_p + pi_n == pytest.approx(1.0, abs=1e-15)

    def test_prior_from_counts_value(self):
        # 80035 / 109810 computed independently
        pi_p, _ = prior_from_counts(80035, 29775)
        assert pi_p == pytest.approx(0.7288498315271834, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            class_priors(LabeledDataset(np.zeros((2, 8)), np.array([1, 1])))
        with pytest.raises(ValueError):
            class_priors(LabeledDataset(np.zeros((0, 8)), np.zeros(0, dtype=int)))
        with pytest.raises(ValueError):
            prior_from_counts(10, 0)

    def test_check_priors_one_tolerance(self):
        check_priors(0.6, 0.4000000001)  # within 1e-9 of summing to 1
        bad_priors = ((0.6, 0.41), (-0.1, 1.1), (float("nan"), 0.5), (0.5, float("inf")),
                      (1 + 1e-10, 0.0))
        for bad in bad_priors:
            with pytest.raises(ValueError):
                check_priors(*bad)


class TestSplit:
    def test_partition_sizes_floor_with_train_remainder(self):
        ds = gaussian_mixture(50, 2, ((0, 0), (1, 1)), 1.0, 0)  # n = 100
        tr, va, te = split(ds, (0.8, 0.1, 0.1), seed=0)
        assert (len(tr), len(va), len(te)) == (80, 10, 10)
        ds101 = gaussian_mixture(51, 2, ((0, 0), (1, 1)), 1.0, 0)
        tr2, va2, te2 = split(
            LabeledDataset(ds101.features[:101], ds101.labels[:101]), (0.8, 0.1, 0.1), seed=0
        )
        assert (len(tr2), len(va2), len(te2)) == (81, 10, 10)

    def test_disjoint_and_exhaustive(self):
        n = 37
        feats = np.arange(n, dtype=float).reshape(-1, 1) * np.ones((1, 8))
        ds = LabeledDataset(feats, np.arange(n) % 2)
        tr, va, te = split(ds, (0.6, 0.2, 0.2), seed=3)
        seen = np.concatenate([tr.features[:, 0], va.features[:, 0], te.features[:, 0]])
        assert sorted(seen.tolist()) == list(range(n))

    def test_seed_determinism(self):
        ds = gaussian_mixture(30, 2, ((0, 0), (1, 1)), 1.0, 0)
        a = split(ds, (0.8, 0.1, 0.1), seed=9)
        b = split(ds, (0.8, 0.1, 0.1), seed=9)
        assert np.array_equal(a[0].features, b[0].features)

    def test_bad_fractions_rejected(self):
        ds = gaussian_mixture(10, 2, ((0, 0), (1, 1)), 1.0, 0)
        with pytest.raises(ValueError):
            split(ds, (0.5, 0.4, 0.2), seed=0)
        with pytest.raises(ValueError):
            split(ds, (1.2, -0.1, -0.1), seed=0)
        for nan_slot in range(3):
            fractions = [0.5, 0.5, 0.5]
            fractions[nan_slot] = float("nan")
            with pytest.raises(ValueError, match="fractions in"):
                split(ds, fractions, seed=0)


class TestSaveLoad:
    def test_round_trip_bitwise(self, tmp_path):
        ds = gaussian_mixture(20, 3, ((0, 0, 0), (1, 1, 1)), 0.7, 11)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(ds.features, loaded.features)
        assert np.array_equal(ds.labels, loaded.labels)

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = gaussian_mixture(20, 3, ((0, 0, 0), (1, 1, 1)), 0.7, 11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("not,a,dataset\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_malformed_row_reports_lineno(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("label,f_0\n1,0.5\nx,y\n")
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(path)

    @pytest.mark.parametrize("row,got", [("1,0.5", 1), ("0,0.5,1.5,2.5", 3)])
    def test_row_width_must_match_header(self, tmp_path, row, got):
        path = tmp_path / "width.csv"
        path.write_text(f"label,f_0,f_1\n1,0.5,1.5\n\n{row}\n")
        with pytest.raises(ValueError) as e:
            load_dataset(path)
        assert str(e.value) == f"{path}: line 4: expected 2 features, got {got}"

    def test_empty_file_keeps_header_width(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,f_0,f_1,f_2\n")
        ds = load_dataset(path)
        assert ds.features.shape == (0, 3) and ds.labels.shape == (0,)
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="abcdefg ", min_size=1, max_size=30),
            st.integers(0, 1),
        ),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=30, deadline=None)
def test_embedding_rows_unit_or_zero(pairs):
    ds = embed_pairs(pairs, dim=16, seed=0)
    norms = np.linalg.norm(ds.features, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


@given(
    st.lists(st.tuples(st.text(max_size=40), st.integers(0, 1)), max_size=8),
    st.sampled_from([8, 17, 64]),
)
@settings(max_examples=60, deadline=None)
def test_embedding_matches_reference_on_any_text(pairs, dim):
    got, want = embed_pairs(pairs, dim, 3), _reference_embedding(pairs, dim, 3)
    assert got.features.tobytes() == want.features.tobytes()
    assert got.zero_vector_count == want.zero_vector_count
