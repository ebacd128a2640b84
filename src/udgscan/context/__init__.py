from .holistic import (
    DEFAULT_TOKEN_BUDGET,
    HolisticContext,
    holistic_context,
    render_context,
    whitespace_tokenizer,
)
from .implicit import declaration_context, definition_context, usage_context
from .sinks import SensitiveInvocation, find_sensitive_invocations
from .slicing import (
    DEFAULT_HOP_LIMIT,
    ContextSlice,
    control_slice,
    data_slice,
    explicit_context,
    merge_slices,
)

__all__ = [
    "DEFAULT_HOP_LIMIT",
    "DEFAULT_TOKEN_BUDGET",
    "ContextSlice",
    "HolisticContext",
    "SensitiveInvocation",
    "control_slice",
    "data_slice",
    "declaration_context",
    "definition_context",
    "explicit_context",
    "find_sensitive_invocations",
    "holistic_context",
    "merge_slices",
    "render_context",
    "usage_context",
    "whitespace_tokenizer",
]
