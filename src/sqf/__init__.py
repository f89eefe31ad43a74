"""sqf: SQL query compiler and simulator for a partially reconfigurable
FPGA operator fabric.

Pipeline: parse SQL -> bind against loaded tables -> enumerate candidate
operator pipelines -> cost them with the performance calculus -> place the
winner on the modeled fabric -> reconfigure -> execute, with a naive
reference evaluator as ground truth.

Each public name is imported from its submodule on first use, so a command
loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # public name -> the submodule that defines it
    "SqfError": "errors",
    **dict.fromkeys(("DeviceProfile", "FabricState", "Placement", "ReconfigReport",
                     "allocate", "load_device_profile", "reconfigure", "release"), "fabric"),
    **dict.fromkeys(("BoundPlan", "QueryPlan", "bind", "parse_query"), "frontend"),
    **dict.fromkeys(("ModuleInstance", "ModuleKind", "ModuleLibrary", "ModuleSpec",
                     "instantiate", "load_library"), "library"),
    "reference_execute": "oracle",
    **dict.fromkeys(("CandidatePipeline", "CostEstimate", "enumerate_pipelines",
                     "full_estimate", "select_best"), "planner"),
    **dict.fromkeys(("ColumnStats", "ColumnType", "Schema", "Table", "TypeKind",
                     "dump_csv", "load_csv", "table_stats"), "relcore"),
    **dict.fromkeys(("BloomCascadeConfig", "ExecReport", "execute_pipeline",
                     "result_checksum"), "engine"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import a public name's submodule on first use (PEP 562) and keep the
    value in the package's globals, where later lookups and patches find it."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
