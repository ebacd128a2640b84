"""Guideline-driven detection prompt for one (API, CWE) unit."""

from __future__ import annotations

from typing import NamedTuple

from ..context.holistic import HolisticContext
from ..enhance.prompts import PLACEHOLDER_RE, fill_template
from ..knowledge import KnowledgeBase

DETECTION_TEMPLATE = """### Problem
You are an expert security auditor for Java. Given a specific code context below encompassing a target sensitive invocation of %api%, analyze the context to determine whether a genuine %cwe% (%cwe_title%) vulnerability exists.

### Code Context
%code_context%

### Solution Instructions
Follow the guideline below step by step. After completing each step, critically review your reasoning for overlooked issues (e.g., implicit sanitization, broken dataflow, incomplete context) and revise your analysis as necessary. Continue this review until you reach a well-justified conclusion. Summarize your final answer in the following JSON format: {"explanation": <step-by-step reasoning>, "is_vulnerable": true or false}.

### Vulnerability Type Specific Guideline
Step 1: Contextual Flow Understanding -- Starting from the sensitive invocation of %api%, precisely understand and extract all relevant data and control flow paths within the code context.

Step 2: Trigger Condition Verification -- Systematically evaluate whether the extracted paths fulfill the exact vulnerability conditions specified here: %vuln_patterns%

Step 3: Defense Assessment -- Critically examine defense mechanisms present in the code context using the following knowledge, clearly distinguishing robust mitigations from insufficient or bypassable ones: %defense_knowledge%

Step 4: Evidence-Driven Verdict Synthesis -- Synthesize prior artifacts. Weight verified exploitable indicators against active counter-evidence before deriving a final verdict.
"""

STEP_HEADERS = (
    "Contextual Flow Understanding",
    "Trigger Condition Verification",
    "Defense Assessment",
    "Evidence-Driven Verdict Synthesis",
)


class MetaPrompt(NamedTuple):
    text: str

    def unfilled_placeholders(self) -> list[str]:
        return PLACEHOLDER_RE.findall(self.text)


def build_detection_prompt(
    ctx: HolisticContext, unit: tuple[str, str], kb: KnowledgeBase
) -> MetaPrompt:
    """Instantiate the detection template with the rendered context, the API,
    and the CWE guideline's two knowledge blocks."""
    api, cwe = unit
    guideline = kb.guideline_for(cwe)
    slots = {
        "api": api,
        "cwe": cwe,
        "cwe_title": guideline.title,
        "code_context": ctx.rendered if ctx.rendered else "(empty context)",
        "vuln_patterns": guideline.vuln_patterns,
        "defense_knowledge": guideline.defense_knowledge,
    }
    return MetaPrompt(text=fill_template(DETECTION_TEMPLATE, slots))
