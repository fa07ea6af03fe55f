"""Coarse-to-fine stereo block matching with ZNCC costs.

A stereo pair is matched on a Gaussian pyramid: the coarsest level by
full disparity search, each finer level in a three-candidate window
around the upsampled coarse result wherever the interpolated cost is
trustworthy, with confidence-gated neighborhood re-selection and median
repair at every level.  A single-level full-search baseline,
Middlebury-style codecs and error metrics, and a command-line frontend
round out the package.
"""

from .baseline import baseline_bm
from .evaluation import BAD_THRESHOLDS, EvalReport, evaluate
from .formats import (
    CalibInfo,
    DecodeError,
    GroundTruthDisparity,
    MalformedHeaderError,
    MissingKeyError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    read_calib,
    read_pfm,
    read_pnm,
    write_pfm,
    write_pgm,
)
from .matcher import (
    ConfigError,
    LevelTrace,
    MatchConfig,
    PipelineTrace,
    SelectionStats,
    match_coarsest,
    refine_level,
    run_pipeline,
    select_with_prior,
    selective_median,
    upsample_prior,
)
from .pyramid import (
    PyramidLevel,
    auto_levels,
    build_pyramid,
    gaussian_downsample,
    level_block,
    level_d_max,
)
from .synthetic import interior_mask, shifted_pair
from .zncc import CostEngine

__version__ = "0.1.0"

__all__ = [
    "BAD_THRESHOLDS",
    "CalibInfo",
    "ConfigError",
    "CostEngine",
    "DecodeError",
    "EvalReport",
    "GroundTruthDisparity",
    "LevelTrace",
    "MalformedHeaderError",
    "MatchConfig",
    "MissingKeyError",
    "PipelineTrace",
    "PyramidLevel",
    "SelectionStats",
    "TruncatedPayloadError",
    "UnsupportedMaxvalError",
    "auto_levels",
    "baseline_bm",
    "build_pyramid",
    "evaluate",
    "gaussian_downsample",
    "interior_mask",
    "level_block",
    "level_d_max",
    "match_coarsest",
    "read_calib",
    "read_pfm",
    "read_pnm",
    "refine_level",
    "run_pipeline",
    "select_with_prior",
    "selective_median",
    "shifted_pair",
    "upsample_prior",
    "write_pfm",
    "write_pgm",
]
