"""Command-line interface: scan, eval, rename."""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..errors import ConfigError, Diagnostic, DiagnosticSink, UdgScanError
from .dataset import load_paired_dataset
from .metrics import compute_metrics, compute_pairwise
from .rename import adversarial_rename
from .scan import CONFIG_FIELDS, EXIT_CONFIG, ScanConfig, scan

# Each scan setting's default, by name: the settings a flag can give.
_DEFAULTS = {name: default for name, default, _ in CONFIG_FIELDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="udgscan", description="Repository-level vulnerability triage")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="scan one repository")
    _scan_flags(p_scan)
    p_scan.add_argument("--config", help="JSON config file merged under flags")

    p_eval = sub.add_parser("eval", help="evaluate on a paired dataset")
    p_eval.add_argument("--dataset", required=True, help="JSON-lines paired dataset")
    _scan_flags(p_eval, repo_required=False)
    p_eval.add_argument("--config", help="JSON config file merged under flags")

    p_ren = sub.add_parser("rename", help="adversarial identifier renaming")
    p_ren.add_argument("--repo", required=True)
    p_ren.add_argument("--label", required=True, choices=["vulnerable", "non_vulnerable"])
    p_ren.add_argument("--out", required=True)
    return parser


def _scan_flags(p: argparse.ArgumentParser, repo_required: bool = True) -> None:
    if repo_required:
        p.add_argument("--repo", required=True)
    p.add_argument("--kb", dest="kb_path")
    p.add_argument("--sink", dest="sink_path")
    p.add_argument("--hops", dest="hop_limit", type=int)
    p.add_argument("--rounds", dest="n_rounds", type=int)
    p.add_argument("--oracle", dest="oracle_mode", choices=["live", "mock", "replay"])
    p.add_argument("--transcript", dest="transcript_dir")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--dump-context", dest="dump_context", action="store_const", const=True)
    p.add_argument("--dump-graph", dest="dump_graph", action="store_const", const=True)
    p.add_argument("--token-budget", dest="token_budget", type=int)
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--api-key-env", dest="api_key_env")
    p.add_argument("--temperature", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, help=f"model requests in flight at once (default {_DEFAULTS['jobs']})")


def _config_from_args(args: argparse.Namespace, **overrides) -> ScanConfig:
    """The flags, with `overrides` in place of some, merged over `--config`."""
    flags = {k: getattr(args, k, None) for k in _DEFAULTS}
    flags.update(overrides)
    return ScanConfig.from_sources(flags, getattr(args, "config", None))


def _print_notes(notes) -> None:
    """Each note on stderr, as `Diagnostic.render` writes it."""
    for note in notes:
        print(note.render(), file=sys.stderr)


def cmd_scan(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = scan(config)
    _print_notes(Diagnostic(**d) for d in result.report["diagnostics"])
    print(json.dumps(result.report, indent=2, sort_keys=True))
    return result.exit_code


def cmd_eval(args: argparse.Namespace) -> int:
    dataset_notes = DiagnosticSink()
    samples = load_paired_dataset(args.dataset, dataset_notes)
    _print_notes(dataset_notes.items)
    preds: list[tuple[str, bool]] = []
    labels: list[tuple[str, bool]] = []
    pairs: list[tuple[int, int]] = []
    for sample in samples:
        verdicts = []
        for variant_dir, truth in ((sample.vulnerable_dir, True), (sample.patched_dir, False)):
            variant = "vulnerable" if truth else "patched"
            transcripts = args.transcript_dir and os.path.join(args.transcript_dir, sample.pair_id, variant)
            result = scan(_config_from_args(args, repo=variant_dir, transcript_dir=transcripts))
            flagged = any(f.verdict == "vulnerable" for f in result.findings)
            verdicts.append(flagged)
            sample_id = f"{sample.pair_id}:{'v' if truth else 'p'}"
            preds.append((sample_id, flagged))
            labels.append((sample_id, truth))
        pairs.append((int(verdicts[0]), int(verdicts[1])))
    metric_notes = DiagnosticSink()
    precision, recall, f1 = compute_metrics(preds, labels, metric_notes)
    p_c, p_r, vp_s = compute_pairwise(pairs)
    _print_notes(metric_notes.items)
    print(
        json.dumps(
            {
                "pairs": len(pairs),
                "precision": precision,
                "recall": recall,
                "f1": f1,
                "p_c": p_c,
                "p_r": p_r,
                "vp_s": vp_s,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_rename(args: argparse.Namespace) -> int:
    diagnostics = DiagnosticSink()
    mapping = adversarial_rename(args.repo, args.label, args.out, diagnostics)
    _print_notes(diagnostics.items)
    print(json.dumps({"renamed_identifiers": len(mapping), "out": args.out}, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scan":
            return cmd_scan(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "rename":
            return cmd_rename(args)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UdgScanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
