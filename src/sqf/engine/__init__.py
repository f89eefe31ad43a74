"""Pipeline execution: bloom cascade, alignment, host join, and the executor."""

from .align import AlignedBlock, align
from .bloom import (
    BloomCascade,
    BloomCascadeConfig,
    analytic_fp_rate,
    bloom_build,
    bloom_dims,
    bloom_probe,
    bloom_probe_many,
)
from .hostjoin import host_hash_join
from .exec import (
    ExecReport,
    StageCount,
    execute_pipeline,
    key_images,
    result_checksum,
)

__all__ = [
    "AlignedBlock", "align",
    "BloomCascade", "BloomCascadeConfig", "analytic_fp_rate", "bloom_build",
    "bloom_dims", "bloom_probe", "bloom_probe_many",
    "host_hash_join",
    "ExecReport", "StageCount", "execute_pipeline", "key_images", "result_checksum",
]
