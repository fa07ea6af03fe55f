"""Benchmark of pyrstereo on generated layered scenes.

    python3 stereobench/run.py --workload layered-hier --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
that checkout.  ``--trace 0`` times untraced rounds and prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a
separate traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: one thread per process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

_T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".stereobench_out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import scenes  # noqa: E402
from tracer import Tracer  # noqa: E402

ALPHA = 0.9  # the package default, used by every run here
BLOCK = 11
BORDER = BLOCK // 2  # scored pixels keep a whole block inside the image
COST_TOL = 1e-6  # returned cost vs. the direct-summation ZNCC
SAMPLES = 40  # pixels per scene checked against the direct-summation ZNCC
SETUP_CHILDREN = 5  # the first one warms the file cache and is discarded

_IMPORT_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import pyrstereo\n"
    "dt = time.perf_counter() - t\n"
    "print(pyrstereo.__file__)\n"
    "print(repr(dt))\n"
)


def log(message: str) -> None:
    print(f"[{time.perf_counter() - _T0:7.2f}s] {message}", file=sys.stderr, flush=True)


def _import_package():
    """Import pyrstereo from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import pyrstereo
    import pyrstereo.cli

    if not Path(pyrstereo.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"pyrstereo imported from {pyrstereo.__file__}, not {SRC}")
    return pyrstereo


def measure_setup() -> float:
    """Median seconds a fresh interpreter spends importing pyrstereo."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_CHILD, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        path, seconds = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"child imported pyrstereo from {path}")
        times.append(float(seconds))
    return statistics.median(times[1:])


class Quality:
    """Accuracy and evaluation counts summed over one round of scenes."""

    def __init__(self) -> None:
        self.bad = self.scored = self.finite = 0
        self.err_sum = 0.0
        self.evals = self.full_search = 0

    def add_scene(self, disparity, scene, ceiling: float, errors: list, label: str) -> None:
        mask = scene.visible.copy()
        mask[:BORDER] = mask[-BORDER:] = False
        mask[:, :BORDER] = mask[:, -BORDER:] = False
        bad, scored, err_sum, finite = reference.score(disparity, scene.disparity, mask)
        self.bad += bad
        self.scored += scored
        self.err_sum += err_sum
        self.finite += finite
        if 100.0 * bad / scored > ceiling:
            errors.append(f"{label}: bad-2 {100.0 * bad / scored:.2f}% over the "
                          f"{ceiling}% recovery ceiling")

    def metrics(self) -> dict:
        return {
            "eval_ratio": (self.evals / self.full_search, "ratio"),
            "bad2_pct": (100.0 * self.bad / self.scored, "%"),
            "avg_err_px": (self.err_sum / self.finite, "px"),
        }


def check_maps(disparity, cost, d_max: int, left, right, rng, errors: list,
               label: str) -> None:
    """Range checks, then sampled costs against the direct-summation ZNCC."""
    finite = np.isfinite(disparity)
    d = disparity[finite]
    if not np.all((d == np.round(d)) & (d >= 0) & (d <= d_max)):
        errors.append(f"{label}: disparities outside the integers of [0, {d_max}]")
    c = cost[finite]
    if not np.all(np.isfinite(c) & (c >= -1.0) & (c <= 1.0)):
        errors.append(f"{label}: costs outside [-1, 1]")
        return
    ys, xs = np.nonzero(finite & (cost > ALPHA))
    pick = rng.choice(ys.size, size=min(SAMPLES, ys.size), replace=False)
    for i, j in zip(ys[pick].tolist(), xs[pick].tolist()):
        z, got = int(disparity[i, j]), float(cost[i, j])
        if abs(got - reference.zncc_at(left, right, i, j, z, BLOCK)) <= COST_TOL:
            continue
        if abs(got - reference.zncc_mean3x3(left, right, i, j, z, BLOCK)) <= COST_TOL:
            continue
        errors.append(f"{label}: cost {got!r} at ({i}, {j}, d={z}) matches neither "
                      "the ZNCC nor its 3x3 mean")


def check_trace(trace, errors: list, label: str) -> None:
    """Per level: at most 3 evaluations per trusted pixel; coarsest = full search."""
    try:
        levels = sorted(trace.levels, key=lambda lt: lt.level)
        for lt in levels[:-1]:
            if lt.trusted_evals > 3 * lt.trusted or lt.trusted_window_max > 3:
                errors.append(f"{label}: level {lt.level} spends over 3 evaluations "
                              "per trusted pixel")
        top = levels[-1]
        if top.selection_evals != top.pixels * (top.d_max + 1):
            errors.append(f"{label}: coarsest level counts {top.selection_evals} "
                          f"evaluations, not its full search")
    except AttributeError as exc:
        errors.append(f"{label}: PipelineTrace lacks a counter the check reads ({exc})")


# -- workloads ----------------------------------------------------------------

class Layered:
    """Generated layered scenes matched by run_pipeline in-process."""

    height, width, d_max = 375, 450, 64
    per_round = 3  # scenes per round
    ceiling = 12.0  # bad-2 recovery ceiling per scene, in percent

    def __init__(self, pkg, seed: int, levels) -> None:
        self.pkg = pkg
        self.seed = seed
        self.config = pkg.MatchConfig(d_max=self.d_max, levels=levels, block=BLOCK)
        self.items = [scenes.make_scene(s, self.height, self.width, self.d_max)
                      for s in scenes.scene_seeds(seed, self.per_round)]

    def run(self, scene):
        return self.pkg.run_pipeline(scene.left, scene.right, self.config)

    @staticmethod
    def capture(out):
        return out

    @staticmethod
    def same(a, b) -> bool:
        return all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a[:2], b[:2]))

    def check(self, outputs, errors: list) -> Quality:
        quality = Quality()
        for k, (scene, output) in enumerate(zip(self.items, outputs)):
            if output is None:
                continue
            disparity, cost, trace = output
            label = f"scene {k}"
            rng = np.random.default_rng([self.seed, k])
            check_maps(disparity, cost, self.d_max, scene.left, scene.right, rng,
                       errors, label)
            check_trace(trace, errors, label)
            quality.add_scene(disparity, scene, self.ceiling, errors, label)
            quality.evals += trace.total_evals
            quality.full_search += self.width * self.height * (self.d_max + 1)
        return quality

    def close(self) -> None:
        pass


class CliMiddlebury:
    """Small scenes written as a Middlebury-layout directory, run through the CLI."""

    height, width, d_max = 88, 128, 12
    # Small scenes hold few pixels, so more of them keep bad2_pct steady.
    per_round = 6
    ceiling = 35.0

    def __init__(self, pkg, seed: int) -> None:
        self.pkg = pkg
        self.seed = seed
        self.root = OUT / f"cli-middlebury-{seed}-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.items = []
        for k, s in enumerate(scenes.scene_seeds(seed, self.per_round)):
            scene = scenes.make_scene(s, self.height, self.width, self.d_max)
            sdir = self.root / "data" / f"scene{k}"
            sdir.mkdir(parents=True)
            scene.left = reference.write_pgm16(scene.left, sdir / "im0.pgm")
            scene.right = reference.write_pgm16(scene.right, sdir / "im1.pgm")
            (sdir / "calib.txt").write_text(
                f"cam0=[1 0 0; 0 1 0; 0 0 1]\ncam1=[1 0 0; 0 1 0; 0 0 1]\n"
                f"doffs=0\nbaseline=100\nwidth={self.width}\nheight={self.height}\n"
                f"ndisp={self.d_max}\n", encoding="ascii")
            reference.write_pfm(np.where(scene.visible, scene.disparity, np.nan),
                                sdir / "disp0GT.pfm")
            self.items.append((k, sdir, scene))

    def run(self, item):
        k, sdir, _ = item
        out = self.root / "runs" / f"scene{k}"
        im0, im1 = str(sdir / "im0.pgm"), str(sdir / "im1.pgm")
        calib, gt = str(sdir / "calib.txt"), str(sdir / "disp0GT.pfm")
        chain = [
            ["compute", im0, im1, "--calib", calib, "--out", str(out / "compute")],
            ["baseline", im0, im1, "--calib", calib, "--out", str(out / "baseline")],
            ["eval", str(out / "compute" / "disparity.pfm"), gt,
             "--trace", str(out / "compute" / "trace.json"), "--out", str(out / "eval")],
            ["eval", str(out / "baseline" / "disparity.pfm"), gt,
             "--out", str(out / "eval-baseline")],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in chain:
                code = self.pkg.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"pyrstereo {argv[0]} exited {code}")
        return out

    @staticmethod
    def capture(out) -> dict:
        """The maps a chain wrote; later chains overwrite the same files."""
        return {name: (out / name).read_bytes() for name in (
            "compute/disparity.pfm", "compute/cost.pfm",
            "baseline/disparity.pfm", "baseline/cost.pfm")} | {"dir": out}

    @staticmethod
    def same(a, b) -> bool:
        return all(a[key] == b[key] for key in a if key != "dir")

    def check(self, outputs, errors: list) -> Quality:
        quality = Quality()
        for (k, sdir, scene), result in zip(self.items, outputs):
            if result is None:
                continue
            out = result["dir"]
            label = f"scene {k}"
            rng = np.random.default_rng([self.seed, k])
            gt = reference.read_pfm(sdir / "disp0GT.pfm")
            disparity = reference.read_pfm(out / "compute" / "disparity.pfm")
            cost = reference.read_pfm(out / "compute" / "cost.pfm")
            disparity[np.isinf(disparity)] = np.nan
            check_maps(disparity, cost, self.d_max, scene.left, scene.right, rng,
                       errors, label)

            # The package's codecs against ours: matching our decoded images
            # in-process must give what the CLI wrote through its own codecs.
            left = reference.read_pgm(sdir / "im0.pgm")
            right = reference.read_pgm(sdir / "im1.pgm")
            d_ref, c_ref, trace = self.pkg.run_pipeline(
                left, right, self.pkg.MatchConfig(d_max=self.d_max, block=BLOCK))
            if not (np.array_equal(d_ref.astype(np.float32), disparity, equal_nan=True)
                    and np.array_equal(c_ref.astype(np.float32), cost)):
                errors.append(f"{label}: CLI output differs from in-process matching "
                              "of the same files")

            with open(out / "compute" / "trace.json", encoding="ascii") as fh:
                total_evals = json.load(fh)["total_evals"]
            if total_evals != trace.total_evals:
                errors.append(f"{label}: trace.json counts {total_evals}, "
                              f"in-process run {trace.total_evals}")
            check_trace(trace, errors, label)
            full = self.width * self.height * (self.d_max + 1)
            quality.evals += total_evals
            quality.full_search += full
            quality.add_scene(disparity, scene, self.ceiling, errors, label)

            self._check_baseline(out, scene, full, rng, errors, label)
            for run, report in (("compute", "eval"), ("baseline", "eval-baseline")):
                self._check_report(out / run / "disparity.pfm", gt,
                                   out / report / "report.json", errors,
                                   f"{label} eval of {run}")
        return quality

    def _check_baseline(self, out, scene, full, rng, errors, label) -> None:
        with open(out / "baseline" / "trace.json", encoding="ascii") as fh:
            evals = json.load(fh)["evals"]
        if evals != full:
            errors.append(f"{label}: baseline counts {evals} evaluations, not {full}")
        disparity = reference.read_pfm(out / "baseline" / "disparity.pfm")
        for _ in range(SAMPLES // 4):
            i, j = int(rng.integers(self.height)), int(rng.integers(self.width))
            vector = reference.zncc_vector(scene.left, scene.right, i, j, self.d_max, BLOCK)
            top2 = sorted(vector)[-2:]
            if top2[1] - top2[0] > COST_TOL and disparity[i, j] != vector.index(top2[1]):
                errors.append(f"{label}: baseline picks {disparity[i, j]} at ({i}, {j}), "
                              f"the first argmax is {vector.index(top2[1])}")

    @staticmethod
    def _check_report(disparity_path, gt, report_path, errors, label) -> None:
        disparity = reference.read_pfm(disparity_path)
        both = np.isfinite(gt) & np.isfinite(disparity)
        err = np.abs(disparity[both] - gt[both])
        bad2 = 100.0 * float(np.count_nonzero(err > 2.0)) / err.size
        avg = float(err.sum()) / err.size
        with open(report_path, encoding="ascii") as fh:
            metrics = json.load(fh)["metrics"]
        if (metrics["evaluated"] != err.size
                or not np.isclose(metrics["bad_2"], bad2, rtol=1e-9, atol=1e-12)
                or not np.isclose(metrics["avg_abs_err"], avg, rtol=1e-9, atol=1e-12)):
            errors.append(f"{label}: report says bad_2={metrics['bad_2']}, "
                          f"avg_abs_err={metrics['avg_abs_err']} over "
                          f"{metrics['evaluated']} pixels; ours {bad2}, {avg} over {err.size}")

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {
    "layered-hier": lambda pkg, seed: Layered(pkg, seed, levels=None),
    "layered-flat": lambda pkg, seed: Layered(pkg, seed, levels=0),
    "cli-middlebury": lambda pkg, seed: CliMiddlebury(pkg, seed),
}


# -- running ------------------------------------------------------------------

class Runner:
    """Whole rounds over a workload's scenes, timed one operation at a time."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first: list | None = None  # outputs of the first round, checked later
        self.attempted = self.failed = 0
        self.mismatches = 0

    def rounds(self, seconds: float) -> list[list[float]]:
        """Run rounds until ``seconds`` have passed; per-item wall seconds."""
        times: list[list[float]] = [[] for _ in self.workload.items]
        start = time.perf_counter()
        while True:
            outputs = []
            for k, item in enumerate(self.workload.items):
                gc.collect()  # keep collecting earlier garbage out of the timed call
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = self.workload.run(item)
                except Exception as exc:  # an operation that fails is counted, not fatal
                    print(f"operation failed: {exc!r}", file=sys.stderr)
                    self.failed += 1
                    out = None
                times[k].append(time.perf_counter() - t0)
                if out is not None:
                    out = self.workload.capture(out)
                    if self.first is not None and self.first[k] is not None \
                            and not self.workload.same(out, self.first[k]):
                        self.mismatches += 1
                outputs.append(out)
            if self.first is None:
                self.first = outputs
            if time.perf_counter() - start >= seconds:
                return times


def pair_seconds(times: list[list[float]]) -> float:
    """Each item's median over the rounds, averaged over the items."""
    return statistics.fmean(statistics.median(t) for t in times)


def peak_mib(workload) -> float:
    """tracemalloc peak above the starting level over one operation."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        workload.run(workload.items[0])
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(tracer: Tracer, mem: Tracer, ops: int, overhead: float) -> dict:
    t = tracer.totals()
    m = mem.totals()

    def get(name, key, source=t):
        return source.get(name, {}).get(key, 0)

    def per_op(name, key="total_s"):
        return get(name, key) / ops

    def ns_per_eval(name):
        evals = get(name, "evals")
        return 1e9 * get(name, "total_s") / evals if evals else 0.0

    zncc = ["zncc.CostEngine.plane", "zncc.CostEngine.at", "zncc.CostEngine.dsi_rows"]
    run = "matcher.run_pipeline"
    vectors = get("zncc.CostEngine.dsi_rows", "vectors")
    pixels_l0 = get(run, "pixels_l0")
    formats_read = ["formats.read_pnm", "formats.read_pfm", "formats.read_calib"]
    formats_write = ["formats.write_pfm", "formats.write_pgm"]
    mib = 2.0 ** 20
    values = {
        "pyramid.build_s": (per_op("pyramid.build_pyramid"), "s"),
        "zncc.init_s": (per_op("zncc.CostEngine.__init__"), "s"),
        "zncc.plane_s": (per_op("zncc.CostEngine.plane"), "s"),
        "zncc.plane_ns_per_eval": (ns_per_eval("zncc.CostEngine.plane"), "ns"),
        "zncc.at_s": (per_op("zncc.CostEngine.at"), "s"),
        "zncc.at_ns_per_eval": (ns_per_eval("zncc.CostEngine.at"), "ns"),
        "zncc.dsi_rows_s": (per_op("zncc.CostEngine.dsi_rows"), "s"),
        "zncc.dsi_rows_ns_per_eval": (ns_per_eval("zncc.CostEngine.dsi_rows"), "ns"),
        "zncc.evals_called": (sum(get(n, "evals") for n in zncc) / ops, "count"),
        "zncc.dsi_rows_repeat_frac": (
            get("zncc.CostEngine.dsi_rows", "repeat_vectors") / vectors if vectors else 0.0,
            "ratio"),
        "zncc.gather_peak_mib": (max(get("zncc.CostEngine.at", "peak_bytes", m),
                                     get("zncc.CostEngine.dsi_rows", "peak_bytes", m)) / mib,
                                 "MiB"),
        "zncc.volume_peak_mib": (get("zncc.CostEngine.full_volume", "peak_bytes", m) / mib,
                                 "MiB"),
        "matcher.coarsest_s": (per_op("matcher.match_coarsest"), "s"),
        "matcher.upsample_s": (per_op("matcher.upsample_prior"), "s"),
        "matcher.select_self_s": (per_op("matcher.select_with_prior", "self_s"), "s"),
        "matcher.refine_self_s": (per_op("matcher.refine_level", "self_s"), "s"),
        "matcher.median_s": (per_op("matcher.selective_median"), "s"),
        "matcher.run_self_s": (per_op(run, "self_s"), "s"),
        "matcher.trusted_frac_l0": (get(run, "trusted_l0") / pixels_l0 if pixels_l0 else 0.0,
                                    "ratio"),
        "matcher.fallback_pixels": (get(run, "fallback") / ops, "count"),
        "matcher.refined_pixels": (get(run, "refined") / ops, "count"),
        "baseline.bm_s": (per_op("baseline.baseline_bm"), "s"),
        "baseline.ns_per_eval": (ns_per_eval("baseline.baseline_bm"), "ns"),
        "formats.read_s": (sum(per_op(n) for n in formats_read), "s"),
        "formats.write_s": (sum(per_op(n) for n in formats_write), "s"),
        "formats.bytes_written": (sum(get(n, "bytes") for n in formats_write) / ops, "bytes"),
        "evaluation.evaluate_s": (per_op("evaluation.evaluate"), "s"),
        "cli.self_s": (per_op("cli.main", "self_s"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = _import_package()
    setup = None if args.trace else measure_setup()
    log(f"setup_s {setup}")
    workload = WORKLOADS[args.workload](pkg, args.seed)
    log("scenes generated")
    try:
        workload.run(workload.items[0])  # warm-up: caches, lazy imports, first-touch pages
        log("warm-up done")
        runner = Runner(workload)
        errors: list[str] = []
        if args.trace:
            # Untraced and traced rounds alternate, so drift in machine speed
            # falls on both sides of the overhead alike.
            tracer = Tracer()
            untraced_times = [[] for _ in workload.items]
            traced_times = [[] for _ in workload.items]
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                for k, t in enumerate(runner.rounds(0)):
                    untraced_times[k] += t
                with tracer:
                    for k, t in enumerate(runner.rounds(0)):
                        traced_times[k] += t
            ops = sum(len(t) for t in traced_times)
            log("untraced and traced rounds done")
            mem = Tracer(memory=True)
            tracemalloc.start()
            try:
                with mem:
                    workload.run(workload.items[0])
            finally:
                tracemalloc.stop()
            absent = tracer.absent
            if absent:
                print("absent: " + " ".join(absent), file=sys.stderr)
            tracer.dump(str(OUT / f"spans-{args.workload}-{args.seed}.json"))
            overhead = pair_seconds(traced_times) - pair_seconds(untraced_times)
            metrics = layer_metrics(tracer, mem, ops, overhead)
        else:
            times = runner.rounds(args.seconds)
            log(f"timed rounds done: {[[round(t, 3) for t in ts] for ts in times]}")
            metrics = {
                "pair_s": (pair_seconds(times), "s"),
                "setup_s": (setup, "s"),
                "peak_mib": (peak_mib(workload), "MiB"),
            }
        log("memory pass done")
        quality = workload.check(runner.first, errors)
        log("checks done")
        if not args.trace:
            metrics.update(quality.metrics())
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        if runner.mismatches:
            errors.append(f"{runner.mismatches} repeated operations gave other outputs")
    finally:
        workload.close()

    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
