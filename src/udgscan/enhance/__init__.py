from .oracle import (
    ConstantFolder,
    MockResolutionOracle,
    ResolutionOracle,
    extract_json_object,
)
from .order import AnalysisSequence, SccComponent, compute_analysis_order, function_call_graph, order_is_sound, tarjan_scc
from .passes import (
    AuditEntry,
    add_global_nodes,
    backward_dataflow_context,
    enhance_polymorphic_calls,
    enhance_reflective_calls,
    reconstruct_labeled_jumps,
)
from .pipeline import EnhancementResult, enhance_graph
from .prune import prune_data_edges
from .summaries import (
    AliasSets,
    FunctionSummary,
    build_alias_sets,
    compute_all_summaries,
    compute_function_summary,
    fixed_point_scc,
)

__all__ = [
    "AliasSets",
    "AnalysisSequence",
    "AuditEntry",
    "ConstantFolder",
    "EnhancementResult",
    "FunctionSummary",
    "MockResolutionOracle",
    "ResolutionOracle",
    "SccComponent",
    "add_global_nodes",
    "backward_dataflow_context",
    "build_alias_sets",
    "compute_all_summaries",
    "compute_analysis_order",
    "compute_function_summary",
    "enhance_graph",
    "enhance_polymorphic_calls",
    "enhance_reflective_calls",
    "extract_json_object",
    "fixed_point_scc",
    "function_call_graph",
    "order_is_sound",
    "prune_data_edges",
    "reconstruct_labeled_jumps",
    "tarjan_scc",
]
