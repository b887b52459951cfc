import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from msbls.bls import (
    ACTIVATIONS,
    BlsHyperParams,
    augment,
    classic_mapped_features,
    enhancement_features,
    fit_enhancement,
    generate_enhancement_keys,
    generate_full_map_key,
    generate_mix_key,
    joint_mapped_features,
    mapped_features_simplified,
    predict_labels,
    readout_scores,
    stack_affine_groups,
    train_output_weights,
)
from msbls.linalg import RngStream


class TestHyperParams:
    def test_defaults_are_valid(self):
        hp = BlsHyperParams()
        assert hp.mapped_width == 100
        assert hp.half_width == 50
        assert hp.feature_width == 1100

    def test_odd_mapped_width_rejected(self):
        with pytest.raises(ValueError):
            BlsHyperParams(map_groups=3, map_dim=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"map_groups": 0},
            {"enh_dim": 0},
            {"ridge": 0.0},
            {"ridge": -1.0},
            {"activation": "relu"},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BlsHyperParams(**kwargs)


class TestAugment:
    def test_single_row(self):
        assert np.array_equal(augment([[1.0, 2.0]]), [[1.0, 2.0, 1.0]])

    def test_zero_matrix(self):
        assert np.array_equal(
            augment(np.zeros((2, 2))), [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        )

    def test_ones_column_sums_to_row_count(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        out = augment(x)
        assert out.shape == (3, 5)
        assert out[:, -1].sum() == 3.0
        assert np.array_equal(out[:, :4], x)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            augment([[np.nan]])


class TestMappedFeatures:
    def test_identity_group(self):
        out = classic_mapped_features(
            [[1.0, 0.0]], [(np.eye(2), np.zeros((1, 2)))]
        )
        assert np.array_equal(out, [[1.0, 0.0]])

    def test_hand_arithmetic(self):
        out = classic_mapped_features(
            [[1.0, 1.0]], [(np.array([[1.0], [1.0]]), np.array([[1.0]]))]
        )
        assert np.array_equal(out, [[3.0]])

    def test_identity_mix_reduces_to_first_stage(self):
        rng = np.random.default_rng(0)
        x_aug = augment(rng.uniform(0, 1, (4, 3)))
        key = rng.standard_normal((4, 6))
        out = mapped_features_simplified(x_aug, key, np.eye(6))
        assert np.allclose(out, x_aug @ key)

    def test_one_hot_row_selects_key_row(self):
        key = np.random.default_rng(1).standard_normal((5, 4))
        mix = np.random.default_rng(2).standard_normal((4, 4))
        row = np.zeros((1, 5))
        row[0, 2] = 1.0
        out = mapped_features_simplified(row, key, mix)
        assert np.allclose(out, (key @ mix)[2:3, :])

    @given(
        n_rows=st.integers(1, 8),
        d=st.integers(1, 6),
        group_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_groupwise_equals_single_product_form(self, n_rows, d, group_sizes, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (n_rows, d))
        groups = [
            (rng.standard_normal((d, g)), rng.uniform(-1, 1, (1, g)))
            for g in group_sizes
        ]
        classic = classic_mapped_features(x, groups)
        stacked = stack_affine_groups(groups)
        simplified = mapped_features_simplified(
            augment(x), stacked, np.eye(stacked.shape[1])
        )
        assert np.max(np.abs(classic - simplified)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classic_mapped_features([[1.0, 2.0]], [(np.eye(3), np.zeros((1, 3)))])
        with pytest.raises(ValueError):
            mapped_features_simplified(np.ones((2, 3)), np.ones((4, 5)), np.eye(5))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_features_are_refused_where_they_are_made(self):
        # Finite rows and keys; only the mixed product overflows. The
        # enhancement fit and the readout do not scan Zn again.
        x, key, mix = np.ones((3, 2)), np.ones((3, 2)), np.full((4, 4), 1e308)
        with pytest.raises(ValueError, match="^mapped features contain non-finite entries$"):
            joint_mapped_features(x, x, key, key, mix)
        with pytest.raises(ValueError, match="^mapped features contain non-finite entries$"):
            mapped_features_simplified(augment(x), np.hstack([key, key]), mix)

    def test_scalar_bias_row_rejected(self):
        # A (1, 1) bias would broadcast over every column of a wider group.
        with pytest.raises(ValueError, match="^group 0: bias row must be 1x3$"):
            classic_mapped_features([[1.0, 2.0]], [(np.ones((2, 3)), np.zeros((1, 1)))])


class TestEnhancement:
    def test_zero_input_zero_output_tanh(self):
        out = enhancement_features(
            np.zeros((3, 2)), [(np.ones((2, 4)), np.zeros((1, 4)))], "tanh"
        )
        assert np.all(out == 0.0)

    def test_scalar_tanh_value(self):
        out = enhancement_features(
            [[1.0]], [(np.array([[1.0]]), np.array([[0.0]]))], "tanh"
        )
        # Independent evaluation of the same activation.
        assert abs(out[0, 0] - math.tanh(1.0)) < 1e-9

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 10.0))
    def test_tanh_strictly_inside_for_moderate_inputs(self, seed, scale):
        rng = np.random.default_rng(seed)
        zn = rng.uniform(-scale, scale, (5, 3))
        keys = [(rng.standard_normal((3, 4)) * 0.3, rng.uniform(-1, 1, (1, 4)))]
        out = enhancement_features(zn, keys, "tanh")
        assert np.max(np.abs(out)) < 1.0

    def test_tanh_never_exceeds_unit_bound(self):
        # float64 tanh saturates to exactly +-1.0 for |x| above ~19; the
        # bound is still never exceeded.
        out = enhancement_features(
            [[1e6]], [(np.array([[1.0]]), np.array([[0.0]]))], "tanh"
        )
        assert np.max(np.abs(out)) <= 1.0

    def test_sigmoid_range(self):
        rng = np.random.default_rng(3)
        out = enhancement_features(
            rng.uniform(-5, 5, (4, 3)),
            [(rng.standard_normal((3, 6)), rng.uniform(-1, 1, (1, 6)))],
            "sigmoid",
        )
        assert np.all(out > 0.0) and np.all(out < 1.0)

    @pytest.mark.parametrize("in_place", [False, True])
    def test_sigmoid_matches_scipy_expit_without_overflow(self, in_place):
        expit = pytest.importorskip("scipy.special").expit
        x = np.concatenate([np.linspace(-800.0, 800.0, 200_001),
                            np.random.default_rng(8).uniform(-40.0, 40.0, 200_000)])
        want = expit(x)
        with np.errstate(all="raise"):
            got = ACTIVATIONS["sigmoid"](x, out=x) if in_place else ACTIVATIONS["sigmoid"](x)
        assert (got is x) == in_place
        assert np.max(np.abs(got - want)) <= 2.3e-16

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("groups, dim", [(1, 40), (3, 13)])
    def test_in_place_blocks_match_stacked_reference_bit_for_bit(self, activation, groups, dim):
        rng = np.random.default_rng(groups)
        zn = rng.standard_normal((101, 9))
        keys = [(rng.standard_normal((9, dim)), rng.uniform(-1, 1, (1, dim))) for _ in range(groups)]
        act = ACTIVATIONS[activation]
        reference = np.hstack([act(zn @ w + b) for w, b in keys])
        out = enhancement_features(zn, keys, activation)
        assert out.shape == (101, groups * dim)
        assert out.tobytes() == reference.tobytes()


class TestTrainPredict:
    def test_square_invertible_interpolates(self):
        rng = np.random.default_rng(4)
        zn = rng.standard_normal((4, 2))
        hm = rng.standard_normal((4, 2))
        y = np.eye(4)[:, :3] * 1.0
        y[3, 0] = 1.0
        w = train_output_weights(zn, hm, y, 1e-12)
        assert np.max(np.abs(np.hstack([zn, hm]) @ w - y)) < 1e-6

    def test_duplicated_rows_predict_identically(self):
        rng = np.random.default_rng(5)
        zn = np.repeat(rng.standard_normal((3, 2)), 2, axis=0)
        hm = np.repeat(rng.standard_normal((3, 3)), 2, axis=0)
        y = np.repeat(np.eye(3), 2, axis=0)
        w = train_output_weights(zn, hm, y, 1e-8)
        scores = np.hstack([zn, hm]) @ w
        for i in range(0, 6, 2):
            assert np.array_equal(scores[i], scores[i + 1])

    def test_separable_blobs_train_to_perfection(self):
        rng = np.random.default_rng(6)
        x = np.vstack([
            rng.normal(loc=(-3.0, 0.0), scale=0.4, size=(25, 2)),
            rng.normal(loc=(3.0, 0.0), scale=0.4, size=(25, 2)),
        ])
        labels = np.repeat([0, 1], 25)
        y = np.eye(2)[labels]
        # Oracle: a plain linear least-squares fit already separates them.
        coef, *_ = np.linalg.lstsq(augment(x), y, rcond=None)
        assert np.mean(np.argmax(augment(x) @ coef, axis=1) == labels) == 1.0

        hyper = BlsHyperParams(map_groups=2, map_dim=2, enh_groups=1, enh_dim=20, seed=0)
        map_key = generate_full_map_key(2, hyper, RngStream(1))
        mix_key = generate_mix_key(hyper, RngStream(2))
        enh = generate_enhancement_keys(hyper, RngStream(3))
        zn = mapped_features_simplified(augment(x), map_key, mix_key)
        hm = enhancement_features(zn, enh, "tanh")
        w = train_output_weights(zn, hm, y, 1e-8)
        pred = predict_labels(np.hstack([zn, hm]), w)
        assert np.mean(pred == labels) == 1.0

    def test_zero_feature_column_changes_nothing(self):
        rng = np.random.default_rng(7)
        zn = rng.standard_normal((10, 3))
        hm = rng.standard_normal((10, 4))
        y = np.eye(2)[rng.integers(0, 2, 10)]
        w = train_output_weights(zn, hm, y, 1e-8)
        w_padded = train_output_weights(zn, np.hstack([hm, np.zeros((10, 1))]), y, 1e-8)
        assert np.max(np.abs(w_padded[-1])) < 1e-8
        a = np.hstack([zn, hm])
        a_padded = np.hstack([zn, hm, np.zeros((10, 1))])
        assert np.array_equal(
            predict_labels(a, w), predict_labels(a_padded, w_padded)
        )

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_output_weights(np.ones((3, 2)), np.ones((4, 2)), np.ones((3, 1)), 1e-8)


class TestPredict:
    def test_argmax(self):
        assert predict_labels([[1.0]], [[0.1, 0.9]])[0] == 1

    def test_tie_goes_to_lowest_class(self):
        assert predict_labels([[1.0]], [[0.5, 0.5]])[0] == 0

    @given(
        n=st.integers(1, 10), f=st.integers(1, 5), c=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_rowwise_scan(self, n, f, c, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, f))
        w = rng.standard_normal((f, c))
        pred = predict_labels(a, w)
        scores = a @ w
        for i in range(n):
            best, best_score = 0, scores[i, 0]
            for j in range(1, c):
                if scores[i, j] > best_score:
                    best, best_score = j, scores[i, j]
            assert pred[i] == best

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_labels(np.ones((2, 3)), np.ones((4, 2)))


class TestDeterminismAndJointForm:
    def test_same_seed_bit_identical_model(self):
        def build():
            hyper = BlsHyperParams(map_groups=2, map_dim=4, enh_groups=1, enh_dim=8)
            rng = np.random.default_rng(11)
            x = rng.uniform(0, 1, (30, 5))
            y = np.eye(3)[rng.integers(0, 3, 30)]
            map_key = generate_full_map_key(5, hyper, RngStream(21))
            mix_key = generate_mix_key(hyper, RngStream(22))
            enh = generate_enhancement_keys(hyper, RngStream(23))
            zn = mapped_features_simplified(augment(x), map_key, mix_key)
            hm = enhancement_features(zn, enh, "tanh")
            return train_output_weights(zn, hm, y, 1e-8)

        assert np.array_equal(build(), build())

    def test_joint_blockwise_matches_single_product(self):
        rng = np.random.default_rng(12)
        hyper = BlsHyperParams(map_groups=2, map_dim=4)
        xa = rng.uniform(0, 1, (7, 5))
        xb = rng.uniform(0, 1, (9, 5))
        key_a = rng.standard_normal((6, hyper.half_width))
        key_b = rng.standard_normal((6, hyper.half_width))
        mix = rng.standard_normal((8, 8))
        blockwise = joint_mapped_features(xa, xb, key_a, key_b, mix)
        pooled = mapped_features_simplified(
            augment(np.vstack([xa, xb])), np.hstack([key_a, key_b]), mix
        )
        denom = np.linalg.norm(pooled)
        assert np.linalg.norm(blockwise - pooled) / denom < 1e-10


class TestShapeMismatchesRaise:
    """The products refuse mismatched operands themselves, so each public call
    raises ValueError; only a missing enhancement key needs its own check."""

    def test_map_key_against_mix_key(self):
        with pytest.raises(ValueError):
            mapped_features_simplified(np.ones((2, 3)), np.ones((3, 4)), np.eye(5))

    def test_enhancement_key_width(self):
        keys = [(np.ones((4, 3)), np.zeros((1, 3))), (np.ones((5, 2)), np.zeros((1, 2)))]
        with pytest.raises(ValueError):
            enhancement_features(np.ones((2, 4)), keys)

    def test_no_enhancement_key(self):
        # An empty key list would give a zero-width H without complaint.
        with pytest.raises(ValueError, match="at least one enhancement key"):
            enhancement_features(np.ones((2, 4)), [])


class TestShrinkage:
    def test_scaled_peak_is_the_shrinkage(self):
        rng = np.random.default_rng(8)
        zn = rng.standard_normal((50, 6)) * 30
        keys = [(rng.standard_normal((6, k)), rng.uniform(-1, 1, (1, k))) for k in (4, 7)]
        scaled, h = fit_enhancement(zn, keys, "tanh")
        peak = max(np.max(np.abs(zn @ w + b)) for w, b in scaled)
        assert peak == pytest.approx(0.8, rel=1e-12)
        scale = scaled[0][0][0, 0] / keys[0][0][0, 0]
        for (w, b), (w0, b0) in zip(scaled, keys):
            assert np.allclose(w, w0 * scale, rtol=1e-15)
            assert np.allclose(b, b0 * scale, rtol=1e-15)
        # Scaled by 0.8 / peak, tanh stays below 0.67 on the rows that set the scale.
        assert np.max(np.abs(h)) < 0.67
        assert np.max(np.abs(enhancement_features(zn, scaled, "tanh"))) < 0.67

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("rows", [49, 50, 301])
    def test_fitted_h_matches_enhancement_features_under_the_scaled_keys(self, rows, activation):
        # The fit scales the product, the test rows' map the keys: the two
        # round differently, but only in the last bits. The last row sets the
        # peak, and the two groups share one scale.
        rng = np.random.default_rng(rows)
        zn = rng.standard_normal((rows, 100)) * 30
        zn[-1] *= 10
        keys = [(rng.standard_normal((100, k)), rng.uniform(-1, 1, (1, k))) for k in (64, 37)]
        scaled, h = fit_enhancement(zn, keys, activation)
        assert h.shape == (rows, 101)
        assert np.max(np.abs(h - enhancement_features(zn, scaled, activation))) <= 1e-15

    def test_peak_memory_is_the_output_and_the_scaled_keys(self):
        # No pre-activation block and no copy of H: beyond H (16 MB) and the
        # scaled keys (0.8 MB) the fit allocates less than 64 KiB.
        rng = np.random.default_rng(12)
        zn = rng.standard_normal((2000, 100))
        keys = [(rng.standard_normal((100, 1000)), rng.uniform(-1, 1, (1, 1000)))]
        tracemalloc.start()
        try:
            scaled, h = fit_enhancement(zn, keys, "tanh")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = h.nbytes + sum(w.nbytes + b.nbytes for w, b in scaled)
        assert peak < output + 64 * 1024

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("zn, peak", [(np.full((50, 100), 1e307), "inf"),
                                          (np.zeros((50, 100)), "0.0")],
                             ids=["overflow", "zero"])
    def test_peak_that_is_not_finite_and_positive_is_refused(self, zn, peak):
        # Finite features whose pre-activations overflow would get a zero
        # scale and an H of zeros or NaN; all-zero ones would divide by zero.
        keys = [(np.random.default_rng(13).uniform(0.5, 1.0, (100, 30)), np.zeros((1, 30)))]
        with pytest.raises(ValueError, match="^shrinkage needs a finite, positive "
                                             f"pre-activation peak, got {peak}$"):
            fit_enhancement(zn, keys, "tanh")

    def test_preact_ratio_is_one_on_the_fitted_rows_and_fires_beyond_them(self):
        rng = np.random.default_rng(10)
        zn = rng.standard_normal((40, 6)) * 30
        keys = [(rng.standard_normal((6, k)), rng.uniform(-1, 1, (1, k))) for k in (5, 3)]
        scaled, _ = fit_enhancement(zn, keys, "tanh")
        health = {}
        h = enhancement_features(zn, scaled, "tanh", health)
        assert health["preact_ratio"] == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(h, enhancement_features(zn, scaled, "tanh"))
        enhancement_features(zn * 3, scaled, "tanh", health)
        assert health["preact_ratio"] > 2

    def test_block_scores_match_the_stacked_product(self):
        rng = np.random.default_rng(9)
        zn, hm = rng.standard_normal((20, 3)), rng.standard_normal((20, 5))
        w = rng.standard_normal((8, 4))
        assert np.allclose(readout_scores(zn, hm, w), np.hstack([zn, hm]) @ w, rtol=1e-13, atol=1e-13)
