"""Per-path timings of the cost engine, in nanoseconds per cost entry.

    python3 benchmarks/kernels.py [--size 375x450x64 ...] [--seed 103] [--levels K] [--repeats 9]

Run from the repository root; the package is imported from ``src/`` of
this checkout and the scenes from ``stereobench/scenes.py``.  For each
size (height x width x d_max) one layered scene is matched by
``run_pipeline`` and the level-0 engine's requests are recorded.  Four
paths are then timed on that engine, one after the other in each repeat:

- ``plane``: every plane 0..d_max;
- ``band planes``: every entry again, as the band pass computes a level
  that trusts no pixel: in bands of the height it gives such a level
  (no 16-row floor), the costs kernel fills each band's (rows, width,
  d_max+1) store rows pixel-major, in place, and each band continues
  from the ring of block-row sums the band above returned;
- ``window nz=3``: the trusted three-candidate windows that ``run_pipeline``
  asks for at level 0, in the same row ranges, one ``window`` call each;
- ``dsi_rows``: the band pass's full-vector requests, one ``dsi_rows``
  call per band that is not dense, each into a buffer as the band pass
  writes into its store: the band's untrusted pixels, then its trusted
  pixels that refine may read.

Before timing, the four paths must agree bit for bit on every entry they
share.  Each row prints the median and quartiles over the repeats of
seconds divided by entries computed (pixels times window length, counted
or not).  The last line is one JSON object with the same figures.
"""

from __future__ import annotations

import os

# One thread per process, as in stereobench/run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "stereobench"))

import scenes  # noqa: E402
from pyrstereo import CostEngine, MatchConfig, matcher, run_pipeline  # noqa: E402

DEFAULT_SIZES = ("375x450x64", "88x128x12")  # the layered and the CLI workloads' scenes


def level0_requests(scene, config):
    """The level-0 engine, its trusted windows and its full-vector requests.

    The trusted windows are (rows, cols, z0) per row range, as selection
    asks for them; the full-vector requests are (rows, cols) per band, as
    the band pass asks for them.
    """
    seen, asked = [], []
    select, dsi_rows = matcher._select_trusted, CostEngine.dsi_rows

    def recording(engine, d_hat, c_hat, beta):
        prior = d_hat.copy()  # selection writes its picks into d_hat
        result = select(engine, d_hat, c_hat, beta)
        seen.append((engine, prior, result[2]))
        return result

    def asking(engine, rows, cols, out=None):
        asked.append((engine, rows, cols))
        return dsi_rows(engine, rows, cols, out)

    matcher._select_trusted, CostEngine.dsi_rows = recording, asking
    try:
        run_pipeline(scene.left, scene.right, config)
    finally:
        matcher._select_trusted, CostEngine.dsi_rows = select, dsi_rows
    engine, prior, trusted = seen[-1]  # level 0 is matched last
    return (engine, list(matcher._trusted_windows(trusted, prior)),
            [(rows, cols) for asker, rows, cols in asked if asker is engine])


def band_planes(engine):
    """Every entry, one band pass band of rows at a time: yields (rows, w, nz) arrays.

    The bands are as tall as the band pass makes them on this engine's
    level where it trusts no pixel, and each is written into one reused
    buffer, as into the store.
    """
    h, w, nz = engine.height, engine.width, engine.d_max + 1
    band = matcher._band_rows(h, w, nz, 2)  # a level that trusts nothing
    store = np.empty((band, w, nz))
    sums = None
    for top in range(0, h, band):
        vectors = store[:min(band, h - top)]
        sums = engine._costs(0, top, vectors, sums)
        yield vectors


def check_agreement(engine, trusted, requests) -> None:
    """Every path gives the same bits for every entry it shares with a plane."""
    windows = [(ti, tj, z0, engine.window(ti, tj, z0, 3)) for ti, tj, z0 in trusted]
    # Each band's request as the band pass makes it, its pixels in the same order.
    none = np.zeros(0, dtype=np.intp)
    full = (np.concatenate([none] + [rows for rows, _ in requests]),
            np.concatenate([none] + [cols for _, cols in requests]))
    vectors = np.concatenate([np.zeros((0, engine.d_max + 1))]
                             + [engine.dsi_rows(*request) for request in requests])
    # Band planes by digest, plane by plane: the bands' rows in order are the plane's bytes.
    banded = [hashlib.sha256() for _ in range(engine.d_max + 1)]
    for band in band_planes(engine):
        for z, digest in enumerate(banded):
            digest.update(band[..., z].tobytes())
    for z in range(engine.d_max + 1):
        plane = engine.plane(z)
        if banded[z].digest() != hashlib.sha256(plane.tobytes()).digest():
            raise AssertionError(f"band planes differ from plane {z}")
        if not np.array_equal(plane[full], vectors[:, z]):
            raise AssertionError(f"dsi_rows differs from plane {z}")
        for ti, tj, z0, costs in windows:
            for m in range(3):
                at = z0 + m == z
                if not np.array_equal(plane[ti[at], tj[at]], costs[at, m]):
                    raise AssertionError(f"window entry {m} differs from plane {z}")


def time_paths(engine, trusted, requests, repeats: int) -> dict:
    """ns per computed entry of each path, alternating paths in every repeat."""
    nz = engine.d_max + 1
    sizes = [rows.size for rows, _ in requests]
    store = np.empty((max(sizes, default=0), nz))
    paths = {
        # Each plane is dropped as the next is made, and each band overwrites
        # the one before, as the matcher does.
        "plane": (lambda: sum(1 for _ in map(engine.plane, range(nz))),
                  engine.height * engine.width * nz),
        "band planes": (lambda: sum(1 for _ in band_planes(engine)),
                        engine.height * engine.width * nz),
        "window nz=3": (lambda: [engine.window(*group, 3) for group in trusted],
                        3 * sum(group[0].size for group in trusted)),
        f"dsi_rows nz={nz}": (lambda: [engine.dsi_rows(rows, cols, out=store[:rows.size])
                                       for rows, cols in requests], sum(sizes) * nz),
    }
    samples = {name: [] for name, (_, entries) in paths.items() if entries}
    for _ in range(repeats):
        for name in samples:
            run, entries = paths[name]
            t0 = time.perf_counter()
            run()
            samples[name].append((time.perf_counter() - t0) * 1e9 / entries)
    return {name: {"entries": paths[name][1],
                   "ns_per_entry": [float(q) for q in np.percentile(ns, [50, 25, 75])]}
            for name, ns in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", action="append", default=None,
                        help="HxWxD_MAX of a scene (repeatable; default: "
                             + ", ".join(DEFAULT_SIZES) + ")")
    parser.add_argument("--seed", type=int, default=103, help="scene seed")
    parser.add_argument("--levels", type=int, default=None,
                        help="pyramid halvings (default: automatic, as run_pipeline)")
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)

    report = {}
    for size in args.size or DEFAULT_SIZES:
        height, width, d_max = (int(v) for v in size.split("x"))
        scene = scenes.make_scene(scenes.scene_seeds(args.seed, 1)[0], height, width, d_max)
        config = MatchConfig(d_max=d_max, levels=args.levels)
        engine, trusted, requests = level0_requests(scene, config)
        check_agreement(engine, trusted, requests)
        rows = time_paths(engine, trusted, requests, args.repeats)
        report[size] = rows
        print(f"{size} seed {args.seed}: {sum(group[0].size for group in trusted)} trusted "
              f"in {len(trusted)} row ranges, {sum(r.size for r, _ in requests)} full "
              f"vectors in {len(requests)} band requests at level 0")
        for name, row in rows.items():
            median, q1, q3 = row["ns_per_entry"]
            print(f"  {name:<14} {median:8.1f} ns/entry [{q1:.1f}, {q3:.1f}]  "
                  f"{row['entries']} entries")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
