"""Pipeline execution: the executor, the bloom cascade, and the co-design
record rule (`align`). Every join strategy pairs rows on canonical keys."""

from .bloom import BloomCascadeConfig, analytic_fp_rate, bloom_dims
from .exec import ExecReport, StageCount, execute_pipeline, key_images, result_checksum

__all__ = [
    "BloomCascadeConfig", "analytic_fp_rate", "bloom_dims",
    "ExecReport", "StageCount", "execute_pipeline", "key_images", "result_checksum",
]
