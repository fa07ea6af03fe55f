"""Full-search baseline matcher and evaluation metric tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import loop_full_search, naive_dsi_vector, naive_metrics
from pyrstereo import (
    MatchConfig,
    baseline_bm,
    evaluate,
    interior_mask,
    run_pipeline,
    shifted_pair,
)


def _gt(values, invalid=None, rng=None):
    """Reference disparities unknown at ``invalid``: NaN there, or with ``rng``
    NaN, +inf or -inf at random."""
    values = np.array(values, dtype=np.float64)
    if invalid is not None:
        values[invalid] = np.nan if rng is None else rng.choice(
            [np.nan, np.inf, -np.inf], size=np.count_nonzero(invalid))
    return values


def test_baseline_identical_pair():
    rng = np.random.default_rng(0)
    img = rng.random((10, 14))
    disparity, cost, evals = baseline_bm(img, img, d_max=5, block=3)
    assert np.all(disparity[1:-1, 1:-1] == 0)
    assert evals == 10 * 14 * 6


def test_baseline_eval_count_closed_form():
    rng = np.random.default_rng(1)
    for h, w, d_max in [(8, 8, 3), (6, 11, 7), (12, 9, 0)]:
        left, right = rng.random((h, w)), rng.random((h, w))
        _, _, evals = baseline_bm(left, right, d_max, 3)
        assert evals == h * w * (d_max + 1)


def test_baseline_recovers_constant_shift():
    rng = np.random.default_rng(2)
    left, right = shifted_pair(24, 40, 4, rng, cutoff=0.15)
    disparity, _, _ = baseline_bm(left, right, d_max=8, block=5)
    mask = interior_mask(left.shape, 4, 5)
    assert np.mean(disparity[mask] == 4) >= 0.95


def test_baseline_validation():
    img = np.zeros((6, 6))
    with pytest.raises(ValueError):
        baseline_bm(img, np.zeros((6, 7)), 4, 3)
    with pytest.raises(ValueError):
        baseline_bm(img, img, 4, 4)


@st.composite
def _full_search_cases(draw):
    """A small pair and a full-search setting.

    Images are continuous or take 2-4 grey levels, where exact cost ties
    are common; shapes go down to one row and d_max past the width.
    """
    block = draw(st.sampled_from([3, 5]))
    height = draw(st.integers(1, 6))
    width = draw(st.integers(1, 10))
    d_max = draw(st.integers(0, width + 2))
    sign = draw(st.sampled_from(["middlebury", "paper"]))
    levels = draw(st.sampled_from([0, 2, 3, 4]))  # 0: continuous
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if levels:
        left, right = rng.integers(0, levels, size=(2, height, width)) / (levels - 1)
    else:
        left, right = rng.random((2, height, width))
    return left, right, block, d_max, sign


_STRIPES = np.array([[0.0, 1.0, 0.0, 1.0, 1.0, 0.0]])


@settings(max_examples=60, deadline=None)
@given(_full_search_cases())
@example((_STRIPES, _STRIPES[:, ::-1], 3, 0, "middlebury"))
@example((_STRIPES, _STRIPES[:, ::-1], 3, 8, "paper"))
def test_baseline_matches_loop_oracle(case):
    """Counts are exact and costs agree within 1e-9.  The disparity is the
    loop nest's wherever the best cost leads the runner-up by more than
    1e-9; within that margin any disparity at the best cost is accepted."""
    left, right, block, d_max, sign = case
    disparity, cost, evals = baseline_bm(left, right, d_max, block, sign=sign)
    oracle_d, oracle_c, oracle_evals = loop_full_search(left, right, d_max, block,
                                                        sign=sign)
    assert evals == oracle_evals == left.size * (d_max + 1)
    np.testing.assert_allclose(cost, oracle_c, rtol=0, atol=1e-9)
    for i, j in np.ndindex(left.shape):
        vector = naive_dsi_vector(left, right, i, j, block // 2, d_max, sign=sign)
        top2 = np.sort(vector)[-2:]
        if vector.size == 1 or top2[1] - top2[0] > 1e-9:
            assert disparity[i, j] == oracle_d[i, j]
        else:
            assert vector[int(disparity[i, j])] >= top2[1] - 1e-9


def test_evaluate_exact_match():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 30, size=(8, 8)).astype(float)
    report = evaluate(values, _gt(values))
    assert report.bad_2 == 0.0
    assert report.avg_abs_err == 0.0
    assert report.evaluated == 64


def test_evaluate_uniform_offset():
    values = np.full((6, 6), 10.0)
    report = evaluate(values + 3.0, _gt(values))
    assert report.bad_1 == 100.0
    assert report.bad_2 == 100.0
    assert report.bad_4 == 0.0
    assert report.avg_abs_err == 3.0


def test_evaluate_matches_counting_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        gt_values = rng.uniform(0, 40, size=(9, 11))
        invalid = rng.random((9, 11)) < 0.15
        disparity = gt_values + rng.normal(0, 2.5, size=(9, 11))
        disparity[rng.random((9, 11)) < 0.1] = np.nan
        gt = _gt(gt_values, invalid, rng)
        report = evaluate(disparity, gt, scale=1.0)
        rates, avg, evaluated, n_gt_inv, n_out_inv = naive_metrics(
            disparity, gt_values, invalid
        )
        assert report.evaluated == evaluated
        assert report.gt_invalid == n_gt_inv
        assert report.output_invalid == n_out_inv
        assert abs(report.bad_1 - rates[1.0]) <= 1e-9
        assert abs(report.bad_2 - rates[2.0]) <= 1e-9
        assert abs(report.bad_4 - rates[4.0]) <= 1e-9
        assert abs(report.avg_abs_err - avg) <= 1e-9


def test_evaluate_scale_handles_reduced_resolution():
    # Output at quarter resolution carries quarter-size disparities; the
    # reference keeps full-resolution units.
    gt_values = np.array([[8.0, 12.0], [16.0, 20.0]])
    quarter = gt_values / 4.0
    report = evaluate(quarter, _gt(gt_values), scale=4.0)
    assert report.avg_abs_err == 0.0
    report = evaluate(quarter + 1.0, _gt(gt_values), scale=4.0)
    assert report.avg_abs_err == 4.0
    assert report.bad_2 == 100.0


def test_evaluate_error_sign_symmetry():
    rng = np.random.default_rng(5)
    gt_values = rng.uniform(5, 20, size=(7, 7))
    err = rng.uniform(0, 3, size=(7, 7))
    plus = evaluate(gt_values + err, _gt(gt_values))
    minus = evaluate(gt_values - err, _gt(gt_values))
    assert plus.bad_1 == minus.bad_1
    assert plus.bad_2 == minus.bad_2
    assert plus.bad_4 == minus.bad_4
    assert abs(plus.avg_abs_err - minus.avg_abs_err) <= 1e-9


def test_evaluate_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        evaluate(np.zeros((4, 4)), _gt(np.zeros((4, 5))))
    with pytest.raises(ValueError):
        evaluate(np.zeros((4, 4)), _gt(np.zeros((4, 4))), scale=0.0)
    # NaN fails every comparison, and infinity scores every pixel as bad.
    for scale in (np.nan, np.inf):
        with pytest.raises(ValueError):
            evaluate(np.zeros((4, 4)), _gt(np.zeros((4, 4))), scale=scale)


def test_report_serialization_round_trip():
    values = np.full((4, 4), 2.0)
    report = evaluate(values + 3.0, _gt(values))
    report.total_evals = 77
    report.trust_fractions = (0.0, 0.5)
    data = report.to_dict()
    assert data["total_evals"] == 77
    text = report.to_text()
    assert "bad_2=100.000000" in text
    assert "avg_abs_err=3.000000" in text
    assert "evaluated=16" in text
    assert "trust_fractions=0.000000,0.500000" in text


def test_hierarchy_not_worse_than_baseline_on_easy_pairs():
    rng = np.random.default_rng(6)
    for shift in (3, 7):
        left, right = shifted_pair(64, 80, shift, rng, cutoff=0.04)
        mask = interior_mask(left.shape, shift, 11, extra=2)
        gt_values = np.full(left.shape, float(shift))
        gt = _gt(gt_values, invalid=~mask)

        disparity, _, trace = run_pipeline(
            left, right, MatchConfig(d_max=16, levels=2, block=11)
        )
        ours = evaluate(disparity, gt)
        base_d, _, base_evals = baseline_bm(left, right, 16, 11)
        base = evaluate(base_d, gt)
        assert ours.avg_abs_err <= base.avg_abs_err + 0.1
        assert trace.total_evals < base_evals


def test_compare_ratio_beats_quarter_on_constant_shift():
    rng = np.random.default_rng(7)
    left, right = shifted_pair(128, 128, 5, rng, cutoff=0.02)
    mask = interior_mask(left.shape, 5, 11, extra=2)
    gt = _gt(np.full(left.shape, 5.0), invalid=~mask)

    disparity, _, trace = run_pipeline(
        left, right, MatchConfig(d_max=32, levels=2, block=11)
    )
    ours = evaluate(disparity, gt)
    base_d, _, base_evals = baseline_bm(left, right, 32, 11)
    base = evaluate(base_d, gt)
    assert base_evals == 128 * 128 * 33

    assert trace.total_evals / base_evals < 0.25
    assert ours.avg_abs_err - base.avg_abs_err <= 0.1
