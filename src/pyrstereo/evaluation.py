"""Disparity-map error metrics against reference data.

Reports the fraction of evaluated pixels whose absolute disparity error
exceeds 1, 2 and 4 pixels, plus the mean absolute error.  Pixels invalid
in the reference (unknown/occluded) or in the output (NaN) are excluded
from the metrics but counted.  A scale factor converts output disparity
units before comparison, which covers runs at reduced resolution scored
against full-resolution-unit references.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .formats import GroundTruthDisparity

__all__ = ["BAD_THRESHOLDS", "EvalReport", "evaluate"]

BAD_THRESHOLDS = (1.0, 2.0, 4.0)


@dataclass
class EvalReport:
    """Error metrics of one disparity map, plus search-effort context."""

    bad_1: float
    bad_2: float
    bad_4: float
    avg_abs_err: float
    evaluated: int
    gt_invalid: int
    output_invalid: int
    total_evals: int | None = None
    trust_fractions: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        """The fields that are set, with tuples as lists."""
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items() if value is not None}

    def to_text(self) -> str:
        lines = []
        for key, value in self.to_dict().items():
            if isinstance(value, float):
                lines.append(f"{key}={value:.6f}")
            elif isinstance(value, list):
                lines.append(f"{key}={','.join(f'{v:.6f}' for v in value)}")
            else:
                lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"


def evaluate(disparity: np.ndarray, gt: GroundTruthDisparity,
             scale: float = 1.0) -> EvalReport:
    """Score a disparity map against reference disparities.

    ``disparity * scale`` is compared to the reference on pixels valid in
    both.  Shapes must already agree; ``scale`` must be positive.
    """
    disparity = np.asarray(disparity, dtype=np.float64)
    if disparity.shape != gt.values.shape:
        raise ValueError(
            f"disparity {disparity.shape} and reference {gt.values.shape} differ"
        )
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")

    output_invalid = ~np.isfinite(disparity)
    mask = ~output_invalid & ~gt.invalid
    evaluated = int(mask.sum())

    if evaluated:
        err = np.abs(disparity[mask] * scale - gt.values[mask])
        bad = [100.0 * float(np.mean(err > tau)) for tau in BAD_THRESHOLDS]
        avg = float(err.mean())
    else:
        bad = [0.0, 0.0, 0.0]
        avg = 0.0

    return EvalReport(
        bad_1=bad[0], bad_2=bad[1], bad_4=bad[2], avg_abs_err=avg,
        evaluated=evaluated,
        gt_invalid=int(gt.invalid.sum()),
        output_invalid=int(output_invalid.sum()),
    )

