"""Command-line frontend: compute, baseline, eval and bench subcommands.

Every run except ``eval`` writes a manifest (inputs, resolved parameters,
timings, output paths, library versions and CPU count) next to its
results, in both flat key=value text and JSON, so the exact computation
can be reproduced from the manifest alone.

Exit codes: 0 success, 2 bad configuration or flags, 3 undecodable input
file, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .baseline import baseline_bm
from .evaluation import evaluate
from .formats import CalibInfo, DecodeError, read_calib, read_pfm, read_pnm, write_pfm, write_pgm
from .matcher import ConfigError, MatchConfig, run_pipeline
from .zncc import SIGN_MIDDLEBURY, SIGN_PAPER_PLUS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DECODE = 3
EXIT_IO = 4

# Published reference results of this method's original Middlebury V3
# evaluation, recorded in bench reports for context (not pass/fail bars).
REFERENCE_AVG_ERROR = 35.6
REFERENCE_RUNTIME_MINUTES = 2.0

_SCENE_GT = "disp0GT.pfm"
_SCENE_CALIB = "calib.txt"


def _flatten(prefix: str, value, into: list[str]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, into)
    elif isinstance(value, (list, tuple)):
        if any(isinstance(v, (dict, list, tuple)) for v in value):
            for idx, sub in enumerate(value):
                _flatten(f"{prefix}.{idx}", sub, into)
        else:
            into.append(f"{prefix}={','.join(str(v) for v in value)}")
    else:
        into.append(f"{prefix}={value}")


def _write_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report(data: dict, stem: str) -> None:
    _write_json(data, stem + ".json")
    lines: list[str] = []
    _flatten("", data, lines)
    with open(stem + ".txt", "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _levels_arg(text: str):
    if text == "auto":
        return None
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"levels must be >= 0 or 'auto', got {text}")
    return value


def _threads_arg(text: str) -> int:
    if text == "auto":
        return os.cpu_count() or 1
    return _positive_int(text)


def _add_pair_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("left", help="left image (PGM/PPM)")
    parser.add_argument("right", help="right image (PGM/PPM)")
    parser.add_argument("--dmax", type=_positive_int, default=None,
                        help="maximum disparity in pixels")
    parser.add_argument("--calib", default=None,
                        help="calib.txt supplying ndisp (overrides --dmax)")


def _add_block_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--block", type=int, default=MatchConfig.block,
                        help="odd matching block size (default %(default)s)")
    parser.add_argument("--sign", choices=[SIGN_MIDDLEBURY, SIGN_PAPER_PLUS],
                        default=MatchConfig.sign,
                        help="column direction of the right-image search")


def _add_pyramid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--levels", type=_levels_arg, default=MatchConfig.levels,
                        help="pyramid halvings K, or 'auto' (default)")
    parser.add_argument("--alpha", type=float, default=MatchConfig.alpha,
                        help="confidence gate for re-selection and median repair")
    parser.add_argument("--beta", type=float, default=MatchConfig.beta,
                        help="trust gate for the upsampled prior")


def _resolve_dmax(args) -> tuple[int, CalibInfo | None]:
    if args.calib is not None:
        calib = read_calib(args.calib)
        if args.dmax is not None and args.dmax != calib.ndisp:
            print(
                f"warning: --dmax {args.dmax} overridden by calib ndisp={calib.ndisp}",
                file=sys.stderr,
            )
        return calib.ndisp, calib
    if args.dmax is None:
        raise ConfigError("either --dmax or --calib is required")
    return args.dmax, None


def _match_config(args, d_max: int) -> MatchConfig:
    """The matching parameters of a run: d_max, then the rest from its arguments."""
    return MatchConfig(d_max=d_max, levels=args.levels, block=args.block,
                       alpha=args.alpha, beta=args.beta, sign=args.sign)


def _load_pair(left_path: str, right_path: str, calib: CalibInfo | None,
               calib_path: str | None) -> tuple[np.ndarray, np.ndarray]:
    """Reads a pair; raises ConfigError when the calib's width or height, if given, differs."""
    left, right = read_pnm(left_path), read_pnm(right_path)
    height, width = left.shape
    if calib is not None and (calib.width not in (None, width)
                              or calib.height not in (None, height)):
        raise ConfigError(
            f"{calib_path} gives width {calib.width or '?'} and height {calib.height or '?'}, "
            f"but the images are {width}x{height} (width x height)")
    return left, right


def _write_maps(out_dir: str, disparity: np.ndarray, cost: np.ndarray,
                d_max: int) -> dict:
    paths = {
        "disparity_pfm": os.path.join(out_dir, "disparity.pfm"),
        "disparity_pgm": os.path.join(out_dir, "disparity.pgm"),
        "cost_pfm": os.path.join(out_dir, "cost.pfm"),
    }
    write_pfm(disparity, paths["disparity_pfm"])
    write_pgm(disparity, paths["disparity_pgm"], maxval=255, scale_max=float(d_max))
    write_pfm(cost, paths["cost_pfm"])
    return paths


def _environment() -> dict:
    """The interpreter, numpy and BLAS versions and the CPU count a run used."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(command: str, out_dir: str, inputs: dict, config: dict, outputs: dict,
                    timings: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "config": config,
        "outputs": outputs,
        "timings": timings,
        "environment": _environment(),
    }
    _write_report(manifest, os.path.join(out_dir, "manifest"))


def _run_pair(args, command: str, configure, match) -> int:
    """Matches one pair once and writes its maps, trace and manifest.

    ``configure(d_max)`` checks the run's parameters before any file is
    read.  ``match(left, right, params)`` returns the disparity and cost
    maps, the trace, the manifest's config and the summary line's head.
    """
    t_total = time.perf_counter()
    d_max, calib = _resolve_dmax(args)
    params = configure(d_max)

    t0 = time.perf_counter()
    left, right = _load_pair(args.left, args.right, calib, args.calib)
    t1 = time.perf_counter()
    disparity, cost, trace, config, summary = match(left, right, params)
    t2 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    paths = _write_maps(args.out, disparity, cost, d_max)
    t3 = time.perf_counter()

    trace_stem = os.path.join(args.out, "trace")
    _write_report(trace, trace_stem)
    _write_manifest(
        command, args.out,
        {"left": os.path.abspath(args.left), "right": os.path.abspath(args.right),
         "calib": os.path.abspath(args.calib) if args.calib else None},
        config=config,
        outputs={**paths, "trace_json": trace_stem + ".json"},
        timings={"read_seconds": t1 - t0, "match_seconds": t2 - t1, "write_seconds": t3 - t2,
                 "total_seconds": time.perf_counter() - t_total},
    )
    print(f"{summary} -> {paths['disparity_pfm']}")
    return EXIT_OK


def cmd_compute(args) -> int:
    def match(left, right, config):
        disparity, cost, trace = run_pipeline(left, right, config)
        summary = (f"computed {disparity.shape[1]}x{disparity.shape[0]} disparity map: "
                   f"{trace.total_evals} cost evaluations over {len(trace.levels)} levels")
        return (disparity, cost, trace.to_dict(),
                {**asdict(config), "levels": len(trace.levels) - 1}, summary)

    return _run_pair(args, "compute", functools.partial(_match_config, args), match)


def cmd_baseline(args) -> int:
    def match(left, right, d_max):
        t0 = time.perf_counter()
        disparity, cost, evals = baseline_bm(left, right, d_max, args.block, sign=args.sign)
        trace = {"evals": evals, "pixels": disparity.size, "d_max": d_max,
                 "block": args.block, "match_seconds": time.perf_counter() - t0}
        return (disparity, cost, trace, {"d_max": d_max, "block": args.block, "sign": args.sign},
                f"baseline full search: {evals} cost evaluations")

    return _run_pair(args, "baseline", lambda d_max: d_max, match)


def cmd_eval(args) -> int:
    report = evaluate(read_pfm(args.disparity), read_pfm(args.gt), scale=args.scale)

    trace = None
    if args.trace is not None:
        try:  # an unreadable file is an OSError, exit 4
            with open(args.trace, "r", encoding="ascii") as fh:
                trace = json.load(fh)
            # A baseline trace names its count "evals", as stereobench reads it.
            report.total_evals = trace.get("total_evals", trace.get("evals"))
            if "levels" in trace:  # a baseline trace has none
                report.trust_fractions = tuple(lt["trusted_fraction"] for lt in trace["levels"])
        except (ValueError, AttributeError, KeyError, TypeError) as exc:
            raise DecodeError(f"bad trace file {args.trace}: {exc!r}") from None

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, "report")
    _write_report({"metrics": report.to_dict(), "trace": trace}, stem)
    print(report.to_text(), end="")
    return EXIT_OK


def _scene_paths(scene_dir: str) -> tuple[str, str, str, str]:
    """im0, im1, calib and reference paths of one Middlebury-layout scene."""
    calib_path = os.path.join(scene_dir, _SCENE_CALIB)
    gt_path = os.path.join(scene_dir, _SCENE_GT)
    if os.path.exists(calib_path) and os.path.exists(gt_path):
        for ext in ("pgm", "ppm"):
            left_path = os.path.join(scene_dir, f"im0.{ext}")
            right_path = os.path.join(scene_dir, f"im1.{ext}")
            if os.path.exists(left_path) and os.path.exists(right_path):
                return left_path, right_path, calib_path, gt_path
    raise FileNotFoundError(
        f"scene {os.path.basename(scene_dir)} lacks im0/im1 (pgm/ppm), "
        f"{_SCENE_CALIB} or {_SCENE_GT}"
    )


def _bench_scene(scene: str, paths: tuple[str, str, str, str], args) -> dict:
    t0 = time.perf_counter()
    left_path, right_path, calib_path, gt_path = paths
    calib = read_calib(calib_path)
    left, right = _load_pair(left_path, right_path, calib, calib_path)
    gt = read_pfm(gt_path)
    config = _match_config(args, calib.ndisp)

    disparity, _, trace = run_pipeline(left, right, config)
    ours = evaluate(disparity, gt, scale=args.scale)

    base_d, _, base_evals = baseline_bm(left, right, calib.ndisp, args.block, sign=args.sign)
    base = evaluate(base_d, gt, scale=args.scale)

    print(f"bench: scene {scene} done in {time.perf_counter() - t0:.2f}s",
          file=sys.stderr)
    return {
        "scene": scene,
        "bad_2_ours": ours.bad_2,
        "bad_2_baseline": base.bad_2,
        "avg_err_ours": ours.avg_abs_err,
        "avg_err_baseline": base.avg_abs_err,
        "evals_ours": trace.total_evals,
        "evals_baseline": base_evals,
        "eval_ratio": trace.total_evals / base_evals if base_evals else None,
    }


def cmd_bench(args) -> int:
    t_total = time.perf_counter()
    scene_dirs = sorted(
        os.path.join(args.dataset, name)
        for name in os.listdir(args.dataset)
        if os.path.isdir(os.path.join(args.dataset, name))
    )
    if not scene_dirs:
        raise ConfigError(f"no scene directories under {args.dataset}")

    runnable = {}
    for scene_dir in scene_dirs:
        try:
            runnable[os.path.basename(scene_dir)] = _scene_paths(scene_dir)
        except FileNotFoundError as exc:
            print(f"warning: skipping {exc}", file=sys.stderr)
    if not runnable:
        raise ConfigError("no complete scenes found")

    # Scenes are independent, so --threads N matches N of them at once.
    import concurrent.futures

    with concurrent.futures.ThreadPoolExecutor(min(args.threads, len(runnable))) as pool:
        rows = list(pool.map(lambda item: _bench_scene(*item, args), runnable.items()))
    rows.sort(key=lambda row: row["scene"])

    average = {"scene": "average"} | {key: float(np.mean([row[key] for row in rows]))
                                      for key in rows[0] if key != "scene"}

    table = _bench_table(rows, average)
    os.makedirs(args.out, exist_ok=True)
    paths = {"bench_txt": os.path.join(args.out, "bench.txt"),
             "bench_json": os.path.join(args.out, "bench.json")}
    with open(paths["bench_txt"], "w", encoding="ascii") as fh:
        fh.write(table)
    report = {
        "scenes": rows,
        "average": average,
        "reference": {
            "avg_error": REFERENCE_AVG_ERROR,
            "runtime_minutes": REFERENCE_RUNTIME_MINUTES,
        },
    }
    _write_json(report, paths["bench_json"])

    total = time.perf_counter() - t_total
    _write_manifest(
        "bench", args.out, {"dataset": os.path.abspath(args.dataset), "scenes": sorted(runnable)},
        config={key: value for key, value in vars(args).items()
                if key not in ("command", "func", "dataset", "out")},
        outputs=paths,
        timings={"total_seconds": total},
    )
    print(table, end="")
    print(f"total wall time: {total:.2f}s", file=sys.stderr)
    return EXIT_OK


def _bench_table(rows: list[dict], average: dict) -> str:
    header = (
        f"{'scene':<16} {'bad2.0':>8} {'bad2.0(bm)':>10} {'avgerr':>8} "
        f"{'avgerr(bm)':>10} {'evals':>12} {'evals(bm)':>12} {'ratio':>7}\n"
    )
    lines = [header, "-" * len(header) + "\n"]
    for row in rows + [average]:
        lines.append(
            f"{row['scene']:<16} {row['bad_2_ours']:>8.3f} {row['bad_2_baseline']:>10.3f} "
            f"{row['avg_err_ours']:>8.3f} {row['avg_err_baseline']:>10.3f} "
            f"{row['evals_ours']:>12.0f} {row['evals_baseline']:>12.0f} "
            f"{row['eval_ratio']:>7.3f}\n"
        )
    lines.append(
        f"reference: published average error {REFERENCE_AVG_ERROR}, "
        f"runtime {REFERENCE_RUNTIME_MINUTES:.0f} min\n"
    )
    return "".join(lines)


@functools.cache  # built on the first main(), not at import; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyrstereo",
        description="Coarse-to-fine stereo block matching with ZNCC costs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="coarse-to-fine disparity map")
    _add_pair_args(compute)
    _add_block_args(compute)
    _add_pyramid_args(compute)
    compute.set_defaults(func=cmd_compute)

    baseline = sub.add_parser("baseline", help="single-level full-search disparity map")
    _add_pair_args(baseline)
    _add_block_args(baseline)
    baseline.set_defaults(func=cmd_baseline)

    evalp = sub.add_parser("eval", help="score a disparity PFM against reference")
    evalp.add_argument("disparity", help="disparity map (PFM)")
    evalp.add_argument("gt", help="reference disparities (PFM)")
    evalp.add_argument("--trace", default=None,
                       help="trace.json from the producing run, embedded in the report")
    evalp.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="run compute+baseline+eval over a dataset")
    bench.add_argument("dataset", help="directory of scene folders (im0/im1/calib/gt)")
    _add_block_args(bench)
    _add_pyramid_args(bench)
    bench.add_argument("--threads", type=_threads_arg, default=1,
                       help="scenes matched at once, or 'auto' (results are identical)")
    bench.set_defaults(func=cmd_bench)

    for command in (evalp, bench):
        command.add_argument("--scale", type=float, default=1.0,
                             help="multiply output disparities before comparison")
    for command in sub.choices.values():
        command.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DecodeError as exc:
        print(f"error: cannot decode input: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except (ConfigError, ValueError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
