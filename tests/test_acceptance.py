"""Acceptance suite: one test per criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 9 needs real Middlebury-format training data; point
MIDDLEBURY_DIR at a directory of scene folders (im0/im1 PGM or PPM,
calib.txt, disp0GT.pfm) to enable it, otherwise it is skipped.
"""

import os
import time

import numpy as np
import pytest

from oracles import loop_full_search, naive_full_search, naive_selective_median
from pyrstereo import (
    CostEngine,
    MatchConfig,
    baseline_bm,
    evaluate,
    interior_mask,
    match_coarsest,
    read_calib,
    read_pfm,
    read_pnm,
    refine_level,
    run_pipeline,
    selective_median,
    shifted_pair,
    write_pfm,
    write_pgm,
)
from pyrstereo.cli import main as cli_main

# The constant-shift suite: (height, width, true disparity).  All
# instances share D_max=32, K=2, block 11 and the 0.02 cycles/px texture
# cutoff; sizes grow with the disparity so the occluded margin stays a
# small share of the image.
SWEEP = [
    (64, 64, 2), (80, 80, 3), (96, 96, 4), (96, 112, 5), (112, 112, 6),
    (128, 128, 7), (128, 144, 8), (144, 144, 9), (160, 160, 10), (176, 176, 11),
    (192, 192, 12), (192, 160, 2), (208, 208, 5), (224, 224, 7), (240, 240, 9),
    (256, 256, 11), (256, 224, 12), (128, 160, 3), (160, 192, 6), (224, 256, 10),
]
SWEEP_D_MAX = 32
SWEEP_CONFIG = dict(d_max=SWEEP_D_MAX, levels=2, block=11)


def _report(line):
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def sweep_runs():
    start = time.perf_counter()
    runs = []
    for idx, (h, w, shift) in enumerate(SWEEP):
        rng = np.random.default_rng(4242 + idx)
        left, right = shifted_pair(h, w, shift, rng, cutoff=0.02)
        config = MatchConfig(**SWEEP_CONFIG)
        disparity, cost, trace = run_pipeline(left, right, config)
        runs.append({
            "shape": (h, w), "shift": shift, "left": left, "right": right,
            "config": config, "disparity": disparity, "cost": cost,
            "trace": trace,
        })
    return {"runs": runs, "seconds": time.perf_counter() - start}


def test_criterion_1_coarse_oracle_equivalence():
    """Full search is pixel-exact against the naive brute-force oracle."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    pairs = 0
    while pairs < 100:
        h = int(rng.integers(16, 33))
        w = int(rng.integers(16, 33))
        d_max = int(rng.integers(4, 11))
        block = int(rng.choice([3, 5]))
        left, right = rng.random((h, w)), rng.random((h, w))
        engine = CostEngine(left, right, block=block, d_max=d_max)
        disparity, cost = match_coarsest(engine)
        oracle_d, oracle_c, evals = loop_full_search(left, right, d_max, block)
        np.testing.assert_array_equal(disparity, oracle_d)
        np.testing.assert_allclose(cost, oracle_c, atol=1e-9)
        assert evals == engine.count == h * w * (d_max + 1)
        if pairs < 5:
            # Cross-check the loop-nest oracle against the fsum
            # quadruple-loop one.
            quad_d, _ = naive_full_search(left, right, d_max, block)
            np.testing.assert_array_equal(oracle_d, quad_d)
        pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"
    _report(f"1 coarse-level oracle equivalence ({pairs} pairs, "
            f"{elapsed:.1f}s): PASS")


def test_criterion_2_zncc_property_suite():
    """Self-correlation, symmetry, range, affine invariance, degeneracy."""
    rng = np.random.default_rng(1002)
    checked = 0
    for _ in range(1000):
        size = int(rng.integers(5, 12))
        half = int(rng.integers(1, 4))
        block = 2 * half + 1
        img_a = rng.random((size, size))
        img_b = rng.random((size, size))
        ca = tuple(rng.integers(0, size, size=2))
        cb = tuple(rng.integers(0, size, size=2))

        def cost_at_ca(left, right):
            return CostEngine(left, right, block, 0).plane(0)[ca]

        assert abs(cost_at_ca(img_a, img_a) - 1.0) <= 1e-9

        # Symmetry on ca's row: img_a's block at column ca against img_b's
        # at column cb, then the swapped pair under the other sign.
        row, ja, jb = ca[0], ca[1], cb[1]
        z = abs(int(ja) - int(jb))
        signs = ("middlebury", "paper") if ja >= jb else ("paper", "middlebury")
        ab = CostEngine(img_a, img_b, block, z, sign=signs[0]).window([row], [ja], z, 1)[0, 0]
        ba = CostEngine(img_b, img_a, block, z, sign=signs[1]).window([row], [jb], z, 1)[0, 0]
        assert abs(ab - ba) <= 1e-12
        assert -1.0 <= ab <= 1.0

        gain = float(rng.uniform(0.1, 10.0))
        offset = float(rng.uniform(-5.0, 5.0))
        assert abs(cost_at_ca(img_a, gain * img_a + offset) - 1.0) <= 1e-6
        assert abs(cost_at_ca(img_a, -gain * img_a + offset) + 1.0) <= 1e-6

        flat = np.full((size, size), float(rng.uniform(0.0, 1.0)))
        assert cost_at_ca(flat, img_b) == -1.0
        checked += 1
    assert checked >= 1000
    _report(f"2 ZNCC property suite ({checked} patches): PASS")


def test_criterion_3_constant_shift_recovery(sweep_runs):
    """Pipeline recovers the planted shift within +-1 on >=95% interior."""
    for run in sweep_runs["runs"]:
        mask = interior_mask(run["shape"], run["shift"], 11, extra=2)
        rate = float(np.mean(np.abs(run["disparity"][mask] - run["shift"]) <= 1))
        assert rate >= 0.95, (
            f"{run['shape']} shift {run['shift']}: only {rate:.4f} within +-1"
        )
    assert sweep_runs["seconds"] < 60.0, (
        f"sweep took {sweep_runs['seconds']:.1f}s"
    )
    _report(f"3 constant-shift recovery ({len(sweep_runs['runs'])} instances, "
            f"{sweep_runs['seconds']:.1f}s): PASS")


def test_criterion_4_complexity_reduction(sweep_runs):
    """Trusted pixels cost <=3 evaluations; totals beat 0.25x full search."""
    for run in sweep_runs["runs"]:
        h, w = run["shape"]
        trace = run["trace"]
        for lt in trace.levels[1:]:
            assert lt.trusted_window_max <= 3
            assert lt.trusted_evals <= 3 * lt.trusted
            assert lt.selection_evals == (
                lt.trusted_evals + lt.full_search_pixels * (lt.d_max + 1)
            )
            bound = (3 * lt.trusted
                     + (lt.d_max + 1) * (lt.pixels - lt.trusted)
                     + lt.refine_evals)
            assert lt.evals <= bound
        baseline_evals = h * w * (SWEEP_D_MAX + 1)
        assert trace.total_evals < 0.25 * baseline_evals, (
            f"{run['shape']} shift {run['shift']}: "
            f"{trace.total_evals} evals vs bound {0.25 * baseline_evals:.0f}"
        )
    _report("4 complexity reduction (window <=3, total <0.25x baseline): PASS")


def test_criterion_5_gate_exactness():
    """Confident pixels pass through refinement and median bit-identical."""
    rng = np.random.default_rng(1005)
    alpha = 0.9
    for _ in range(20):
        h = int(rng.integers(12, 24))
        w = int(rng.integers(12, 28))
        shift = int(rng.integers(0, 4))
        left, right = shifted_pair(h, w, shift, rng, cutoff=0.2)
        engine = CostEngine(left, right, block=3, d_max=6)
        disparity, cost = match_coarsest(engine)
        # Plant synthetic confidence values around the gate.
        cost = cost.copy()
        noise = rng.uniform(-0.4, 0.4, size=cost.shape)
        cost = np.clip(cost + noise, -1.0, 1.0)

        refined_d, refined_c = refine_level(engine, disparity, cost, alpha)
        keep = cost > alpha
        np.testing.assert_array_equal(refined_d[keep], disparity[keep])
        np.testing.assert_array_equal(refined_c[keep], cost[keep])

        filtered = selective_median(refined_d, refined_c, alpha)
        keep2 = refined_c > alpha
        np.testing.assert_array_equal(filtered[keep2], refined_d[keep2])
    _report("5 gate exactness (confident pixels bit-identical): PASS")


def test_criterion_6_worker_determinism(sweep_runs, tmp_path):
    """bench at 1 and 2 threads writes byte-identical tables and reports."""
    data = tmp_path / "data"
    for run in sweep_runs["runs"][:2]:
        scene = data / f"shift{run['shift']}"
        scene.mkdir(parents=True)
        write_pgm(run["left"], scene / "im0.pgm", maxval=65535)
        write_pgm(run["right"], scene / "im1.pgm", maxval=65535)
        h, w = run["shape"]
        (scene / "calib.txt").write_text(f"ndisp=16\nwidth={w}\nheight={h}\n")
        gt = np.full((h, w), float(run["shift"]))
        gt[~interior_mask((h, w), run["shift"], 11)] = np.nan
        write_pfm(gt, scene / "disp0GT.pfm")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        rc = cli_main(["bench", str(data), "--levels", "2", "--threads", threads,
                       "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for name in ("bench.txt", "bench.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _report("6 determinism across thread counts: PASS")


def test_criterion_7_median_oracle():
    """Selective median equals the filter-sort window oracle exactly."""
    rng = np.random.default_rng(1007)
    for _ in range(100):
        disparity = rng.integers(0, 20, size=(9, 9)).astype(float)
        cost = rng.uniform(-1.0, 1.0, size=(9, 9))
        alpha = float(rng.uniform(0.2, 0.95))
        got = selective_median(disparity, cost, alpha)
        expected = naive_selective_median(disparity, cost, alpha)
        np.testing.assert_array_equal(got, expected)
    _report("7 selective-median oracle (100 fixtures, exact): PASS")


def test_criterion_8_codec_round_trips(tmp_path):
    """PFM lossless both-endian; PGM lossless at its quantization."""
    rng = np.random.default_rng(1008)
    for trial in range(20):
        h = int(rng.integers(1, 24))
        w = int(rng.integers(1, 24))
        values = (rng.random((h, w)) * 64).astype(np.float32).astype(np.float64)
        if trial % 3 == 0 and h * w > 1:
            values.flat[int(rng.integers(0, h * w))] = np.nan
        scale = -1.0 if trial % 2 else 1.0
        path = tmp_path / f"rt{trial}.pfm"
        write_pfm(values, path, scale=scale)
        back = read_pfm(path)
        np.testing.assert_array_equal(np.isnan(back), ~np.isfinite(values))
        mask = ~np.isnan(back)
        np.testing.assert_array_equal(back[mask], values[mask])

        img = rng.random((h, w))
        for maxval in (255, 65535):
            ipath = tmp_path / f"rt{trial}_{maxval}.pgm"
            write_pgm(img, ipath, maxval=maxval)
            quantized = np.round(img * maxval) / maxval
            np.testing.assert_array_equal(read_pnm(ipath), quantized)
    _report("8 codec round-trips (PFM both-endian, PGM quantized): PASS")


def test_criterion_9_middlebury_directional_check():
    """On real training data the hierarchy beats full search on bad-2.0
    and uses under half its evaluations."""
    dataset = os.environ.get("MIDDLEBURY_DIR")
    if not dataset or not os.path.isdir(dataset):
        _report("9 Middlebury directional check: SKIP (set MIDDLEBURY_DIR)")
        pytest.skip("Middlebury training data not available")

    scenes = sorted(
        entry for entry in os.listdir(dataset)
        if os.path.isdir(os.path.join(dataset, entry))
    )
    compared = 0
    better = 0
    for scene in scenes:
        root = os.path.join(dataset, scene)
        pair = None
        for ext in ("pgm", "ppm"):
            lp = os.path.join(root, f"im0.{ext}")
            rp = os.path.join(root, f"im1.{ext}")
            if os.path.exists(lp) and os.path.exists(rp):
                pair = (lp, rp)
        calib = os.path.join(root, "calib.txt")
        gt_path = os.path.join(root, "disp0GT.pfm")
        if pair is None or not os.path.exists(calib) or not os.path.exists(gt_path):
            continue
        d_max = read_calib(calib).ndisp
        left, right = read_pnm(pair[0]), read_pnm(pair[1])
        gt = read_pfm(gt_path)

        disparity, _, trace = run_pipeline(
            left, right, MatchConfig(d_max=d_max, levels=None, block=11)
        )
        ours = evaluate(disparity, gt)
        base_d, _, base_evals = baseline_bm(left, right, d_max, 11)
        base = evaluate(base_d, gt)

        assert trace.total_evals < 0.5 * base_evals, scene
        compared += 1
        if ours.bad_2 <= base.bad_2:
            better += 1
    assert compared >= 10, f"only {compared} complete scenes found"
    assert better >= 10, f"hierarchy won on {better}/{compared} scenes"
    # Context, not thresholds: the original evaluation of this method
    # reported 35.6 average error and about 2 minutes per pair.
    _report(f"9 Middlebury directional check ({better}/{compared} scenes): PASS")


def test_criterion_10_desk_scale_runtime():
    """A quarter-size-class pair finishes in under 10 s on one worker."""
    rng = np.random.default_rng(1010)
    left, right = shifted_pair(375, 450, 23, rng, cutoff=0.02)
    config = MatchConfig(d_max=64, levels=None, block=11)
    start = time.perf_counter()
    disparity, cost, trace = run_pipeline(left, right, config)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s"
    assert disparity.shape == (375, 450)
    mask = interior_mask((375, 450), 23, 11, extra=2)
    assert np.mean(np.abs(disparity[mask] - 23) <= 1) >= 0.95
    _report(f"10 desk-scale runtime ({elapsed:.2f}s for 450x375): PASS")
