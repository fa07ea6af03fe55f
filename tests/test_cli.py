"""Command-line frontend tests (driven through cli.main)."""

import json

import numpy as np
import pytest

from oracles import loop_full_search
from pyrstereo import (
    CostEngine,
    match_coarsest,
    read_pfm,
    refine_level,
    selective_median,
    shifted_pair,
    write_pgm,
)
from pyrstereo.cli import EXIT_CONFIG, EXIT_DECODE, EXIT_IO, main


@pytest.fixture
def pair(tmp_path):
    rng = np.random.default_rng(21)
    left, right = shifted_pair(48, 64, 4, rng, cutoff=0.06)
    left_path = tmp_path / "left.pgm"
    right_path = tmp_path / "right.pgm"
    write_pgm(left, left_path, maxval=65535)
    write_pgm(right, right_path, maxval=65535)
    return left_path, right_path


def test_compute_writes_outputs_and_manifest(pair, tmp_path):
    left, right = pair
    out = tmp_path / "run"
    rc = main(["compute", str(left), str(right), "--dmax", "8", "--levels", "1",
               "--block", "5", "--out", str(out)])
    assert rc == 0
    for name in ["disparity.pfm", "disparity.pgm", "cost.pfm",
                 "trace.json", "trace.txt", "manifest.json", "manifest.txt"]:
        assert (out / name).exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["d_max"] == 8
    assert manifest["config"]["alpha"] == 0.9
    assert manifest["config"]["beta"] == 0.9
    trace = json.loads((out / "trace.json").read_text())
    assert len(trace["levels"]) == 2
    assert trace["total_evals"] > 0

    disparity = read_pfm(out / "disparity.pfm")
    assert disparity.values.shape == (48, 64)


def test_compute_defaults_from_calib(pair, tmp_path, capsys):
    left, right = pair
    calib = tmp_path / "calib.txt"
    calib.write_text("ndisp=8\nwidth=64\nheight=48\n")
    out = tmp_path / "calibrun"
    rc = main(["compute", str(left), str(right), "--calib", str(calib),
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["d_max"] == 8
    assert manifest["config"]["block"] == 11
    assert manifest["config"]["alpha"] == 0.9
    assert manifest["config"]["beta"] == 0.9


def test_compute_calib_overrides_dmax_with_warning(pair, tmp_path, capsys):
    left, right = pair
    calib = tmp_path / "calib.txt"
    calib.write_text("ndisp=8\nwidth=64\nheight=48\n")
    out = tmp_path / "calibrun2"
    rc = main(["compute", str(left), str(right), "--calib", str(calib),
               "--dmax", "5", "--levels", "1", "--block", "5", "--out", str(out)])
    assert rc == 0
    assert "overridden by calib" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["d_max"] == 8


def test_compute_levels_zero_equals_baseline_plus_repairs(pair, tmp_path):
    left_path, right_path = pair
    out = tmp_path / "k0"
    rc = main(["compute", str(left_path), str(right_path), "--dmax", "6",
               "--levels", "0", "--block", "5", "--out", str(out)])
    assert rc == 0
    got = read_pfm(out / "disparity.pfm").values

    from pyrstereo import read_pnm

    left = read_pnm(left_path)
    right = read_pnm(right_path)
    base_d, base_c, _ = loop_full_search(left, right, 6, 5)
    engine = CostEngine(left, right, block=5, d_max=6)
    full_d, full_c = match_coarsest(engine)
    np.testing.assert_array_equal(base_d, full_d)
    d1, c1, _ = refine_level(engine, base_d, base_c, 0.9)
    expected = selective_median(d1, c1, 0.9)
    np.testing.assert_array_equal(got, expected)


def test_compute_validation_exit_codes(pair, tmp_path):
    left, right = pair
    out = str(tmp_path / "x")
    assert main(["compute", str(left), str(right), "--dmax", "8",
                 "--alpha", "1.01", "--out", out]) == EXIT_CONFIG
    assert main(["compute", str(left), str(right), "--dmax", "8",
                 "--block", "4", "--out", out]) == EXIT_CONFIG
    assert main(["compute", str(left), str(right), "--out", out]) == EXIT_CONFIG
    assert main(["compute", str(left), str(tmp_path / "nope.pgm"),
                 "--dmax", "8", "--out", out]) == EXIT_IO

    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\nxx")
    assert main(["compute", str(left), str(bad), "--dmax", "8",
                 "--out", out]) == EXIT_DECODE


def test_pair_of_different_sizes_exits_config(pair, tmp_path, capsys):
    left, _ = pair
    small = tmp_path / "small.pgm"
    write_pgm(np.random.default_rng(23).random((48, 60)), small)
    for command in ("compute", "baseline"):
        assert main([command, str(left), str(small), "--dmax", "8",
                     "--out", str(tmp_path / command)]) == EXIT_CONFIG
        assert "shapes differ" in capsys.readouterr().err


def test_baseline_command_counts(pair, tmp_path):
    left, right = pair
    out = tmp_path / "base"
    rc = main(["baseline", str(left), str(right), "--dmax", "5",
               "--block", "5", "--out", str(out)])
    assert rc == 0
    trace = json.loads((out / "trace.json").read_text())
    assert trace["evals"] == 48 * 64 * 6
    assert main(["baseline", str(left), str(right), "--dmax", "5",
                 "--block", "4", "--out", str(out)]) == EXIT_CONFIG


def test_baseline_identical_pair_zero_map(tmp_path):
    rng = np.random.default_rng(22)
    img = rng.random((12, 16))
    path = tmp_path / "i.pgm"
    write_pgm(img, path, maxval=65535)
    out = tmp_path / "zb"
    rc = main(["baseline", str(path), str(path), "--dmax", "4",
               "--block", "3", "--out", str(out)])
    assert rc == 0
    disparity = read_pfm(out / "disparity.pfm").values
    assert np.all(disparity[1:-1, 1:-1] == 0)


def test_eval_self_is_zero(pair, tmp_path, capsys):
    left, right = pair
    out = tmp_path / "run"
    main(["compute", str(left), str(right), "--dmax", "8", "--levels", "1",
          "--block", "5", "--out", str(out)])
    ev = tmp_path / "ev"
    rc = main(["eval", str(out / "disparity.pfm"), str(out / "disparity.pfm"),
               "--trace", str(out / "trace.json"), "--out", str(ev)])
    assert rc == 0
    report = json.loads((ev / "report.json").read_text())
    assert report["metrics"]["bad_2"] == 0.0
    assert report["metrics"]["avg_abs_err"] == 0.0
    assert report["trace"]["total_evals"] == report["metrics"]["total_evals"]
    assert report["metrics"]["trust_fractions"] == [
        level["trusted_fraction"] for level in report["trace"]["levels"]
    ]
    assert len(report["metrics"]["trust_fractions"]) == 2
    assert "bad_2=0.000000" in capsys.readouterr().out


def test_serialised_key_sets(pair, tmp_path):
    # eval --trace and the benchmark read these keys from the files.
    left, right = pair
    out = tmp_path / "run"
    assert main(["compute", str(left), str(right), "--dmax", "8", "--levels", "1",
                 "--block", "5", "--out", str(out)]) == 0
    trace = json.loads((out / "trace.json").read_text())
    assert set(trace) == {"levels", "total_evals", "build_seconds", "total_seconds"}
    for level in trace["levels"]:
        assert set(level) == {
            "level", "height", "width", "d_max", "block", "pixels", "trusted",
            "trusted_fraction", "trusted_evals", "trusted_window_max",
            "full_search_pixels", "selection_evals", "refined", "refine_evals",
            "refine_reused", "median_replaced", "seconds",
        }
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["config"]) == {"d_max", "levels", "block", "alpha", "beta", "sign"}
    assert manifest["config"]["levels"] == 1

    metrics = {"bad_1", "bad_2", "bad_4", "avg_abs_err", "evaluated", "gt_invalid",
               "output_invalid"}
    disparity = str(out / "disparity.pfm")
    assert main(["eval", disparity, disparity, "--out", str(tmp_path / "plain")]) == 0
    report = json.loads((tmp_path / "plain" / "report.json").read_text())
    assert set(report["metrics"]) == metrics
    assert main(["eval", disparity, disparity, "--trace", str(out / "trace.json"),
                 "--out", str(tmp_path / "traced")]) == 0
    report = json.loads((tmp_path / "traced" / "report.json").read_text())
    assert set(report["metrics"]) == metrics | {"total_evals", "trust_fractions"}


def test_eval_baseline_trace_has_no_trust_fractions(pair, tmp_path):
    left, right = pair
    out = tmp_path / "base"
    main(["baseline", str(left), str(right), "--dmax", "5", "--block", "5",
          "--out", str(out)])
    ev = tmp_path / "ev"
    rc = main(["eval", str(out / "disparity.pfm"), str(out / "disparity.pfm"),
               "--trace", str(out / "trace.json"), "--out", str(ev)])
    assert rc == 0
    metrics = json.loads((ev / "report.json").read_text())["metrics"]
    assert "trust_fractions" not in metrics


def test_eval_scale_quarter_resolution(tmp_path):
    from pyrstereo import write_pfm

    # Quarter-resolution output in quarter-size disparity units against a
    # reference that keeps full-resolution units at the same 4x4 dims.
    quarter = np.arange(16.0).reshape(4, 4)
    gt = quarter * 4.0
    gt[0, 1] = np.inf  # unknown pixel
    quarter[3, 3] = 9.0  # planted error: 9*4=36 vs 60 -> |err| = 24
    dpath = tmp_path / "d.pfm"
    gpath = tmp_path / "g.pfm"
    write_pfm(quarter, dpath)
    write_pfm(gt, gpath)
    ev = tmp_path / "ev"
    rc = main(["eval", str(dpath), str(gpath), "--scale", "4", "--out", str(ev)])
    assert rc == 0
    report = json.loads((ev / "report.json").read_text())
    assert report["trace"] is None
    metrics = report["metrics"]
    assert metrics["evaluated"] == 15
    assert metrics["gt_invalid"] == 1
    # Hand computation: 14 exact pixels, one off by 24.
    assert abs(metrics["avg_abs_err"] - 24.0 / 15.0) <= 1e-12
    assert abs(metrics["bad_2"] - 100.0 / 15.0) <= 1e-12
    assert abs(metrics["bad_4"] - 100.0 / 15.0) <= 1e-12


def test_eval_error_exits(tmp_path, pair):
    left, right = pair
    out = tmp_path / "run"
    main(["compute", str(left), str(right), "--dmax", "8", "--levels", "0",
          "--block", "5", "--out", str(out)])
    from pyrstereo import write_pfm

    small = tmp_path / "small.pfm"
    write_pfm(np.zeros((2, 2)), small)
    assert main(["eval", str(out / "disparity.pfm"), str(small),
                 "--out", str(tmp_path / "e1")]) == EXIT_CONFIG
    assert main(["eval", str(out / "disparity.pfm"), str(tmp_path / "nope.pfm"),
                 "--out", str(tmp_path / "e2")]) == EXIT_IO


def _make_scene(root, name, shift, seed):
    scene = root / name
    scene.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    left, right = shifted_pair(32, 48, shift, rng, cutoff=0.08)
    write_pgm(left, scene / "im0.pgm", maxval=65535)
    write_pgm(right, scene / "im1.pgm", maxval=65535)
    (scene / "calib.txt").write_text("ndisp=8\nwidth=48\nheight=32\n")
    from pyrstereo import interior_mask, write_pfm

    gt = np.full((32, 48), float(shift))
    gt[~interior_mask((32, 48), shift, 5)] = np.nan
    write_pfm(gt, scene / "disp0GT.pfm")
    return scene


def test_bench_two_scenes(tmp_path, capsys):
    data = tmp_path / "data"
    _make_scene(data, "alpha", 3, 100)
    _make_scene(data, "beta", 5, 200)
    incomplete = data / "gamma"
    incomplete.mkdir()
    (incomplete / "calib.txt").write_text("ndisp=8\n")

    out1 = tmp_path / "b1"
    rc = main(["bench", str(data), "--levels", "1", "--block", "5",
               "--out", str(out1)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "skipping" in captured.err
    assert "bench: scene alpha done" in captured.err
    assert "bench: scene beta done" in captured.err
    report = json.loads((out1 / "bench.json").read_text())
    assert [row["scene"] for row in report["scenes"]] == ["alpha", "beta"]
    for key in ("bad_2_ours", "avg_err_ours", "eval_ratio"):
        expected = np.mean([row[key] for row in report["scenes"]])
        assert abs(report["average"][key] - expected) <= 1e-12
    assert report["reference"]["avg_error"] == 35.6

    out2 = tmp_path / "b2"
    rc = main(["bench", str(data), "--levels", "1", "--block", "5",
               "--threads", "2", "--out", str(out2)])
    assert rc == 0
    for name in ("bench.txt", "bench.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_bench_rejects_empty_dataset(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", str(empty), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
