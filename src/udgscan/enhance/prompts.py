"""Prompt templates for oracle-assisted call-edge resolution."""

from __future__ import annotations

import re

POLYMORPHIC_PROMPT = """### Task
As an expert in object-oriented static analysis, analyze the provided dataflow context and identify which candidate methods are feasible targets for this specific polymorphic call statement.

### Inputs
Dataflow Context:
%dataflow_context%

Polymorphic Call Statement:
%call_statement%

Candidate Callee Method Signatures:
%candidates%

Class Inheritance Hierarchy:
%hierarchy%

### Answer Format
Reply with a JSON object: {"feasible_targets": ["<candidate signature>", ...]}
"""

REFLECTION_CLASS_PROMPT = """### Task
As a software security expert, analyze the provided dataflow context and determine which class is accessed through this reflection API call.

### Inputs
Dataflow Context:
%dataflow_context%

Reflection API Call Statement:
%call_statement%

Available Classes:
%classes%

### Answer Format
Reply with a JSON object: {"target_class": "<class name>"}
"""

REFLECTION_METHOD_PROMPT = """### Task
Given the target class identified in Step 1, determine which specific method is being invoked through reflection.

### Inputs
Dataflow Context:
%dataflow_context%

Reflection API Call Statement:
%call_statement%

Target Class Methods:
%methods%

### Answer Format
Reply with a JSON object: {"target_method": "<method name>"}
"""


PLACEHOLDER_RE = re.compile(r"%[a-z_]+%")


def fill_template(template: str, slots: dict[str, str]) -> str:
    """`template` with each `%slot%` replaced by its value, in one pass, so
    a placeholder inside a slot's value is never filled; a placeholder
    without a slot stays as it is."""
    return PLACEHOLDER_RE.sub(lambda m: slots.get(m.group()[1:-1], m.group()), template)


def render_statement_block(statements, model) -> str:
    """`Class.method:line| code` lines for a list of statement nodes."""
    lines = []
    for stmt in statements:
        owner = stmt.owner
        func = model.functions.get(owner)
        qual = f"{func.class_name}.{func.name}" if func else "global"
        lines.append(f"{qual}:{stmt.start_line}| {stmt.code or stmt.text.strip()}")
    return "\n".join(lines) if lines else "(none)"


def render_polymorphic_prompt(context_block: str, call_statement: str, candidates: list[str], hierarchy: str) -> str:
    return fill_template(
        POLYMORPHIC_PROMPT,
        {
            "dataflow_context": context_block,
            "call_statement": call_statement,
            "candidates": "\n".join(f"- {c}" for c in candidates) or "(none)",
            "hierarchy": hierarchy or "(no inheritance edges)",
        },
    )


def render_reflection_class_prompt(context_block: str, call_statement: str, classes: list[str]) -> str:
    return fill_template(
        REFLECTION_CLASS_PROMPT,
        {
            "dataflow_context": context_block,
            "call_statement": call_statement,
            "classes": "\n".join(f"- {c}" for c in classes) or "(none)",
        },
    )


def render_reflection_method_prompt(context_block: str, call_statement: str, methods: list[str]) -> str:
    return fill_template(
        REFLECTION_METHOD_PROMPT,
        {
            "dataflow_context": context_block,
            "call_statement": call_statement,
            "methods": "\n".join(f"- {m}" for m in methods) or "(none)",
        },
    )
