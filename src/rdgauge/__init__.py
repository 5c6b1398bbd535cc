"""rdgauge: encoder benchmark planning and rate-distortion analytics.

Plans encode matrices against external encoder binaries, stores
measured bitrate/quality/time records, and computes BD-Rate analytics,
aggregate curves, scenario-gated preset recommendations and migration
grids.
"""

from .bd import (
    BDResult,
    RDCurve,
    RDPoint,
    aggregate_points,
    bd_quality,
    bd_rate,
    classic_bd_rate,
    clean_curve,
    harmonic_mean,
    interpolate,
    smart_bd_rate,
)
from .complexity import (
    ComplexityRecord,
    analyze_clip,
    analyze_clips,
    block_texture_energy,
    frame_spatial_energy,
    temporal_energy,
)
from .encoders import (
    DEFAULT_LADDER,
    EncodeJob,
    EncoderSpec,
    build_command,
    build_commands,
    plan_matrix,
    plan_toolsweep,
)
from .runner import JobOutcome, execute, measure_quality, parse_vmaf_log, run_plan
from .scenario import (
    ComparisonGrid,
    ConfigSummary,
    ScenarioReport,
    ScenarioSpec,
    bd_grid,
    make_scenario,
    select_presets,
    summarize,
    time_grid,
)
from .store import MetricRecord, append, import_table, load
from .y4m import Frame, VideoHeader, Y4MReader, parse_header, read_frame, write_clip

__version__ = "0.1.0"

__all__ = [
    "BDResult", "RDCurve", "RDPoint", "aggregate_points", "bd_quality",
    "bd_rate", "classic_bd_rate", "clean_curve", "harmonic_mean",
    "interpolate", "smart_bd_rate",
    "ComplexityRecord", "analyze_clip", "analyze_clips",
    "block_texture_energy", "frame_spatial_energy", "temporal_energy",
    "DEFAULT_LADDER", "EncodeJob", "EncoderSpec", "build_command",
    "build_commands", "plan_matrix", "plan_toolsweep",
    "JobOutcome", "execute", "measure_quality", "parse_vmaf_log", "run_plan",
    "ComparisonGrid", "ConfigSummary", "ScenarioReport", "ScenarioSpec",
    "bd_grid", "make_scenario", "select_presets", "summarize", "time_grid",
    "MetricRecord", "append", "import_table", "load",
    "Frame", "VideoHeader", "Y4MReader", "parse_header", "read_frame",
    "write_clip",
]
