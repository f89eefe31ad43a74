"""Pipeline execution: the executor, the bloom cascade, and the co-design
record rule (`align`). Every join strategy pairs rows on canonical keys."""

from .bloom import (
    BloomCascade,
    BloomCascadeConfig,
    analytic_fp_rate,
    bloom_build,
    bloom_dims,
    bloom_probe,
    bloom_probe_many,
)
from .exec import (
    ExecReport,
    StageCount,
    execute_pipeline,
    key_images,
    result_checksum,
)

__all__ = [
    "BloomCascade", "BloomCascadeConfig", "analytic_fp_rate", "bloom_build",
    "bloom_dims", "bloom_probe", "bloom_probe_many",
    "ExecReport", "StageCount", "execute_pipeline", "key_images", "result_checksum",
]
