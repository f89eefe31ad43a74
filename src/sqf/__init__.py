"""sqf: SQL query compiler and simulator for a partially reconfigurable
FPGA operator fabric.

Pipeline: parse SQL -> bind against loaded tables -> enumerate candidate
operator pipelines -> cost them with the performance calculus -> place the
winner on the modeled fabric -> reconfigure -> execute, with a naive
reference evaluator as ground truth.
"""

from .errors import SqfError
from .fabric import (
    DeviceProfile,
    FabricState,
    Placement,
    ReconfigReport,
    allocate,
    load_device_profile,
    reconfigure,
    release,
)
from .frontend import BoundPlan, QueryPlan, bind, parse_query, pretty_print
from .library import (
    ModuleInstance,
    ModuleKind,
    ModuleLibrary,
    ModuleSpec,
    instantiate,
    load_library,
)
from .oracle import reference_execute
from .planner import (
    CandidatePipeline,
    CostEstimate,
    enumerate_pipelines,
    full_estimate,
    select_best,
)
from .relcore import (
    ColumnStats,
    ColumnType,
    Schema,
    Table,
    TypeKind,
    dump_csv,
    load_csv,
    table_stats,
)
from .engine import (
    BloomCascadeConfig,
    ExecReport,
    bloom_build,
    bloom_probe,
    execute_pipeline,
    result_checksum,
)

__version__ = "0.1.0"

__all__ = [
    "SqfError",
    "DeviceProfile", "FabricState", "Placement", "ReconfigReport",
    "allocate", "load_device_profile", "reconfigure", "release",
    "BoundPlan", "QueryPlan", "bind", "parse_query", "pretty_print",
    "ModuleInstance", "ModuleKind", "ModuleLibrary", "ModuleSpec",
    "instantiate", "load_library",
    "reference_execute",
    "CandidatePipeline", "CostEstimate", "enumerate_pipelines",
    "full_estimate", "select_best",
    "ColumnStats", "ColumnType", "Schema", "Table", "TypeKind",
    "dump_csv", "load_csv", "table_stats",
    "BloomCascadeConfig", "ExecReport", "bloom_build", "bloom_probe",
    "execute_pipeline", "result_checksum",
    "__version__",
]
