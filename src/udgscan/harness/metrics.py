"""Standard and pairwise evaluation metrics."""

from __future__ import annotations

from ..errors import DiagnosticSink, EmptyInput, IdMismatch


def compute_metrics(
    preds: list[tuple[str, bool]],
    labels: list[tuple[str, bool]],
    diagnostics: DiagnosticSink,
) -> tuple[float, float, float]:
    """Precision, recall, F1 over aligned (id, flag) lists; a zero
    denominator yields 0 with a warning."""
    pred_map = dict(preds)
    label_map = dict(labels)
    if set(pred_map) != set(label_map):
        missing = set(label_map) ^ set(pred_map)
        raise IdMismatch(f"prediction/label ids differ: {sorted(missing)[:5]}")
    tp = fp = fn = 0
    for sample_id, truth in label_map.items():
        guess = pred_map[sample_id]
        if guess and truth:
            tp += 1
        elif guess and not truth:
            fp += 1
        elif not guess and truth:
            fn += 1
    precision = tp / (tp + fp) if (tp + fp) else _warned(diagnostics, "precision: no positive predictions")
    recall = tp / (tp + fn) if (tp + fn) else _warned(diagnostics, "recall: no positive labels")
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall)
        else _warned(diagnostics, "f1: degenerate precision/recall")
    )
    return precision, recall, f1


def _warned(diagnostics: DiagnosticSink, message: str) -> float:
    diagnostics.add("warning", "metrics", message)
    return 0.0


def compute_pairwise(pairs: list[tuple[int, int]]) -> tuple[float, float, float]:
    """P-C = fraction of (1,0) pairs, P-R = fraction of (0,1) pairs,
    VP-S = P-C - P-R."""
    if not pairs:
        raise EmptyInput("pairwise metrics need at least one pair")
    n = len(pairs)
    p_c = sum(1 for (yv, yp) in pairs if (yv, yp) == (1, 0)) / n
    p_r = sum(1 for (yv, yp) in pairs if (yv, yp) == (0, 1)) / n
    return p_c, p_r, p_c - p_r

