from .analysis import build_type_hierarchy, resolve_label_targets
from .model import (
    RETURN_VAR,
    CallSite,
    ClassDecl,
    FunctionDecl,
    GlobalDecl,
    JumpTarget,
    RepoModel,
    SourceFile,
    StatementNode,
    TypeHierarchy,
)
from .parser import parse_repository, parse_source

__all__ = [
    "RETURN_VAR",
    "CallSite",
    "ClassDecl",
    "FunctionDecl",
    "GlobalDecl",
    "JumpTarget",
    "RepoModel",
    "SourceFile",
    "StatementNode",
    "TypeHierarchy",
    "build_type_hierarchy",
    "parse_repository",
    "parse_source",
    "resolve_label_targets",
]
