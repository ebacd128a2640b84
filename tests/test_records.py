"""Every record the pipeline hands on is a named tuple built with its final
values: no field of one can be assigned after construction."""

import pytest

from udgscan.harness.scan import ScanConfig, scan
from udgscan.reasoning.votes import Verdict, aggregate_votes


def _records(repo: str) -> dict:
    """One record of each type that `parse_repository` (the scan's model),
    `holistic_context` (its contexts) and `scan` return, by type name, and
    the verdict `aggregate_votes` makes."""
    result = scan(ScanConfig(repo=repo))
    model = result.model
    ctx = next(iter(result.contexts.values()))
    stmt = next(s for s in model.statements.values() if s.calls)
    found = [
        stmt,
        stmt.calls[0],
        next(iter(model.functions.values())),
        next(iter(model.classes.values())),
        model.globals[0],
        ctx,
        ctx.invocation,
        ctx.data,
        result.findings[0],
        aggregate_votes([Verdict(raw="", parse_ok=True, is_vulnerable=True)]),
    ]
    return {type(record).__name__: record for record in found}


RECORDS = [
    "StatementNode",
    "CallSite",
    "FunctionDecl",
    "ClassDecl",
    "GlobalDecl",
    "HolisticContext",
    "SensitiveInvocation",
    "ContextSlice",
    "Finding",
    "AggregatedVerdict",
]


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_of_a_record_can_be_assigned(el_repo, name):
    record = _records(el_repo)[name]
    assert isinstance(record, tuple) and record._fields
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
