from .clients import (
    DEFAULT_TEMPERATURE,
    InferenceClient,
    LiveClientConfig,
    LiveInferenceClient,
    MockInferenceClient,
)
from .prompt import DETECTION_TEMPLATE, STEP_HEADERS, MetaPrompt, build_detection_prompt
from .votes import AggregatedVerdict, Verdict, aggregate_votes, parse_verdict, query_rounds

__all__ = [
    "DEFAULT_TEMPERATURE",
    "DETECTION_TEMPLATE",
    "AggregatedVerdict",
    "InferenceClient",
    "LiveClientConfig",
    "LiveInferenceClient",
    "MetaPrompt",
    "MockInferenceClient",
    "STEP_HEADERS",
    "Verdict",
    "aggregate_votes",
    "build_detection_prompt",
    "parse_verdict",
    "query_rounds",
]
