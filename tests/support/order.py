"""The soundness check of a bottom-up analysis order."""

from udgscan.enhance.order import AnalysisSequence


def order_is_sound(seq: AnalysisSequence, fcg: dict[str, set[str]]) -> bool:
    """Every cross-component call edge goes from a later component to an
    earlier one (callee summarized first)."""
    for caller, callees in fcg.items():
        for callee in callees:
            ci = seq.component_of.get(caller)
            ce = seq.component_of.get(callee)
            if ci is None or ce is None:
                continue
            if ci != ce and not ce < ci:
                return False
    return True
