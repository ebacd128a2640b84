from .dataset import PairedSample, load_paired_dataset, normalized_hash
from .metrics import compute_metrics, compute_pairwise
from .rename import adversarial_rename, build_rename_map, collect_user_identifiers, rename_source
from .scan import EXIT_CONFIG, EXIT_OK, EXIT_ORACLE, EXIT_PARSE, Finding, ScanConfig, ScanResult, scan

__all__ = [
    "EXIT_CONFIG",
    "EXIT_OK",
    "EXIT_ORACLE",
    "EXIT_PARSE",
    "Finding",
    "PairedSample",
    "ScanConfig",
    "ScanResult",
    "adversarial_rename",
    "build_rename_map",
    "collect_user_identifiers",
    "compute_metrics",
    "compute_pairwise",
    "load_paired_dataset",
    "normalized_hash",
    "rename_source",
    "scan",
]
