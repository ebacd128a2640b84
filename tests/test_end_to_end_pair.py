"""Vulnerable/patched discrimination driven purely by extracted context.

The mock client flags a template sink as vulnerable unless the rendered
context shows the sanitizer call plus its escape-pattern definition — the
evidence the implicit-context passes exist to surface.
"""

import json

from conftest import enhance, fixture_path, write_repo

from udgscan.harness.metrics import compute_pairwise
from udgscan.harness.scan import ScanConfig, scan
from udgscan.reasoning.clients import MockInferenceClient

VULNERABLE_VARIANT = """package com.example.validation;
public class TemplateValidator {
    public boolean isValid(String value, ConstraintValidatorContext context) {
        String message = "Rejected: " + value;
        context.disableDefaultConstraintViolation();
        context.buildConstraintViolationWithTemplate(message).addConstraintViolation();
        return false;
    }
}
"""


def context_sensitive_responder(prompt: str, round_index: int) -> str:
    protected = "MessageSanitizer.escape" in prompt and "ESCAPE_PATTERN" in prompt
    return json.dumps(
        {
            "explanation": "sanitizer visible in context" if protected else "raw value reaches the template",
            "is_vulnerable": not protected,
        }
    )


def test_pair_discrimination_via_context(tmp_path):
    pairs = []
    patched_repo = fixture_path("el_template_validation")
    vulnerable_repo = write_repo(tmp_path, {"TemplateValidator.java": VULNERABLE_VARIANT})
    verdicts = {}
    for name, repo in (("vulnerable", vulnerable_repo), ("patched", patched_repo)):
        config = ScanConfig(repo=repo, oracle_mode="mock", n_rounds=3)
        client = MockInferenceClient(responder=context_sensitive_responder)
        result = scan(config, inference_client=client)
        assert len(result.findings) == 1
        verdicts[name] = result.findings[0].verdict == "vulnerable"
    assert verdicts["vulnerable"] is True
    assert verdicts["patched"] is False
    pairs.append((int(verdicts["vulnerable"]), int(verdicts["patched"])))
    p_c, p_r, vp_s = compute_pairwise(pairs)
    assert (p_c, p_r, vp_s) == (1.0, 0.0, 1.0)


def test_without_implicit_context_the_evidence_is_missing(tmp_path):
    # The explicit slice alone never shows the sanitizer internals: the
    # responder would flag even the patched variant.
    from conftest import parse_and_build
    from udgscan.context.sinks import find_sensitive_invocations
    from support.slicing import explicit_context
    from udgscan.context.holistic import render_context
    from udgscan.enhance.oracle import MockResolutionOracle
    from udgscan.enhance.pipeline import enhance_graph
    from udgscan.knowledge import load_starter_kb

    repo = fixture_path("el_template_validation")
    model, g, diags = parse_and_build(repo)
    result = enhance(model, g, MockResolutionOracle(), diags)
    inv = find_sensitive_invocations(result.graph, model, load_starter_kb())[0]
    c_e = explicit_context(result.graph, result.graph.nodes[inv.statement])
    explicit_only = render_context(c_e.statements, model).shown()[0]
    assert "ESCAPE_PATTERN" not in explicit_only  # evidence lives in implicit context
    assert context_sensitive_responder(explicit_only, 0).count("true") == 1
