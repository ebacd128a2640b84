"""Statement-level intermediate representation of a parsed repository.

A repository is modelled as a flat collection of statement nodes plus the
structural facts (classes, functions, globals, type hierarchy) that the graph
construction and enhancement passes need.  Statements carry verbatim source
text, 1-based inclusive line spans, and purely syntactic def/use sets.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import NamedTuple

from ..record import Record

RETURN_VAR = "<ret>"


class CallSite(Record):
    """One method/constructor invocation inside a statement's expression."""

    __slots__ = ("chain", "name", "arity", "receiver", "receiver_type", "arg_vars", "is_constructor")

    def __init__(
        self,
        chain: str,
        name: str,
        arity: int,
        receiver: str | None = None,
        receiver_type: str | None = None,
        arg_vars: list[set[str]] | None = None,
        is_constructor: bool = False,
    ) -> None:
        self.chain = chain  # literal callee chain as written, e.g. "page.append"
        self.name = name  # simple method name, e.g. "append"
        self.arity = arity
        self.receiver = receiver  # receiver variable name when the base is a known variable
        self.receiver_type = receiver_type  # declared type of the receiver variable, if known
        self.arg_vars = [] if arg_vars is None else arg_vars  # known variables per argument
        self.is_constructor = is_constructor

    def qualified_candidates(self) -> list[str]:
        """Qualified names this call can be matched under (most specific first)."""
        cands = []
        if self.is_constructor:
            cands.append(f"{self.name}.{self.name}")
        if self.receiver_type:
            cands.append(f"{self.receiver_type}.{self.name}")
        if self.chain and self.chain != self.name and not self.chain.startswith("new "):
            cands.append(self.chain)
        return cands


class StatementNode(Record):
    __slots__ = (
        "id",
        "file",
        "start_line",
        "end_line",
        "kind",
        "text",
        "owner",
        "defs",
        "uses",
        "outside_uses",
        "calls",
        "allocates",
        "code",
        "synthetic",
    )

    def __init__(
        self,
        id: str,
        file: str,
        start_line: int,
        end_line: int,
        kind: str,
        text: str,
        owner: str,
        defs: set[str] | None = None,
        uses: set[str] | None = None,
        outside_uses: set[str] | None = None,
        calls: list[CallSite] | None = None,
        allocates: str = "",
        code: str = "",
        synthetic: bool = False,
    ) -> None:
        self.id = id
        self.file = file
        self.start_line = start_line
        self.end_line = end_line
        # A statement whose expression performs a method invocation is a "call"
        # unless a more specific kind (return, condition, loop_header, jump)
        # applies; such statements still carry call metadata.
        self.kind = kind
        self.text = text  # full source lines covering the span
        self.owner = owner  # function id or "global"
        self.defs = set() if defs is None else defs
        self.uses = set() if uses is None else uses
        # The uses made outside every argument list of `calls`.
        self.outside_uses = set() if outside_uses is None else outside_uses
        self.calls = [] if calls is None else calls
        # The class `T`, as written, when the value this statement assigns is
        # one `new T(...)` and nothing else.
        self.allocates = allocates
        self.code = code  # exact token slice of this statement
        self.synthetic = synthetic  # entry/exit/external nodes carry no renderable span

    def span_lines(self) -> range:
        return range(self.start_line, self.end_line + 1)

    def sort_key(self) -> tuple:
        return (self.file, self.start_line, self.id)


class FunctionDecl(Record):
    __slots__ = (
        "id",
        "class_name",
        "name",
        "param_types",
        "params",
        "body",
        "entry",
        "exit",
        "is_abstract",
        "var_types",
        "sig_line",
        "file",
    )

    def __init__(
        self,
        id: str,
        class_name: str,
        name: str,
        param_types: list[str] | None = None,
        params: list[str] | None = None,
        body: list[str] | None = None,
        entry: str = "",
        exit: str = "",
        is_abstract: bool = False,
        var_types: dict[str, str] | None = None,
        sig_line: int = 0,
        file: str = "",
    ) -> None:
        self.id = id
        self.class_name = class_name  # fully qualified owner class
        self.name = name
        self.param_types = [] if param_types is None else param_types
        self.params = [] if params is None else params
        self.body = [] if body is None else body  # statement ids, in the order the parser made them
        self.entry = entry
        self.exit = exit
        self.is_abstract = is_abstract
        self.var_types = {} if var_types is None else var_types  # declared types of params/locals
        self.sig_line = sig_line
        self.file = file

    def signature_text(self) -> str:
        return f"{self.class_name}.{self.name}({', '.join(self.param_types)})"

    @property
    def arity(self) -> int:
        return len(self.params)


class GlobalDecl(Record):
    __slots__ = ("statement", "variable", "rhs_uses", "class_name", "declared_type")

    def __init__(
        self,
        statement: str,
        variable: str | None = None,
        rhs_uses: set[str] | None = None,
        class_name: str = "",
        declared_type: str = "",
    ) -> None:
        self.statement = statement  # StatementNode id
        self.variable = variable  # present iff kind == global_def
        self.rhs_uses = set() if rhs_uses is None else rhs_uses
        self.class_name = class_name  # enclosing class for field definitions
        self.declared_type = declared_type


class ClassDecl(Record):
    __slots__ = ("name", "simple_name", "supertypes", "methods", "decl_statement", "enclosing", "file")

    def __init__(
        self,
        name: str,
        simple_name: str,
        supertypes: list[str] | None = None,
        methods: list[str] | None = None,
        decl_statement: str = "",
        enclosing: str | None = None,
        file: str = "",
    ) -> None:
        self.name = name  # fully qualified
        self.simple_name = simple_name
        self.supertypes = [] if supertypes is None else supertypes  # as written (extends + implements)
        self.methods = [] if methods is None else methods  # FunctionDecl ids
        self.decl_statement = decl_statement  # class_decl StatementNode id
        self.enclosing = enclosing
        self.file = file


class TypeHierarchy:
    __slots__ = ("edges", "external_edges", "direct_supertypes", "direct_subtypes")

    def __init__(self) -> None:
        self.edges: list[tuple[str, str]] = []  # (subtype, supertype) fqn pairs
        self.external_edges: list[tuple[str, str]] = []  # (class fqn, supertype as written)
        # The edges as adjacency, each list in edge order; kept by `add_edge`.
        self.direct_supertypes: dict[str, list[str]] = {}
        self.direct_subtypes: dict[str, list[str]] = {}

    def add_edge(self, sub: str, sup: str) -> None:
        self.edges.append((sub, sup))
        self.direct_supertypes.setdefault(sub, []).append(sup)
        self.direct_subtypes.setdefault(sup, []).append(sub)

    def supertypes_of(self, name: str) -> list[str]:
        """All transitive supertypes, breadth first."""
        return _closure(self.direct_supertypes, name)

    def subtypes_of(self, name: str) -> list[str]:
        """All transitive subtypes, breadth first."""
        return _closure(self.direct_subtypes, name)


def _closure(adjacency: dict[str, list[str]], name: str) -> list[str]:
    """Every name reachable from `name`, breadth first, each once."""
    out: list[str] = []
    seen: set[str] = set()
    work = deque(adjacency.get(name, []))
    while work:
        cur = work.popleft()
        if cur not in seen:
            seen.add(cur)
            out.append(cur)
            work.extend(adjacency.get(cur, []))
    return out


class JumpTarget(NamedTuple):
    jump: str  # StatementNode id of the labeled break/continue
    resolved_successor: str  # StatementNode id the reconstructed edge points to


class SourceFile:
    """One parsed file.  Not slotted: `numbered` and `words` are cached in
    its instance dict."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines = text.split("\n")
        self.declarations: list[str] = []  # package_decl/import_decl statement ids
        self.classes: list[str] = []  # class_decl statement ids of top-level classes
        self.trivia: list[bool] = []  # per line: no token but { } ( ) ; , starts there
        self.package = ""
        self.imports: list[str] = []  # single-type imports, e.g. "q.Dao"

    def slice_lines(self, start: int, end: int) -> str:
        return "\n".join(self.lines[start - 1 : end])

    @cached_property
    def numbered(self) -> list[str]:
        """Per line n: f"{n}| {line}", as contexts show it, built the first
        time the file is rendered."""
        return [f"{n}| {line}" for n, line in enumerate(self.lines, 1)]

    @cached_property
    def words(self) -> list[int]:
        """Per line: the words of its `numbered` text, counted the first
        time the file is rendered."""
        return [len(line.split()) for line in self.numbered]


class RepoModel:
    """The parsed repository.

    The parser fills a fresh model, a fragment, with each file; `merge` adds
    a parsed fragment and the lookups over it, and nothing else writes the
    model.  It is read-only once `parse_repository` returns, apart from the
    `hierarchy` that `build_type_hierarchy` sets.
    """

    __slots__ = (
        "root",
        "files",
        "functions",
        "classes",
        "globals",
        "statements",
        "hierarchy",
        "bodies",
        "owner_class",
        "global_defs",
        "functions_by_name",
        "_files_by_path",
        "_by_simple_name",
    )

    def __init__(self, root: str) -> None:
        self.root = root
        self.files: list[SourceFile] = []
        self.functions: dict[str, FunctionDecl] = {}
        self.classes: dict[str, ClassDecl] = {}
        self.globals: list[GlobalDecl] = []
        self.statements: dict[str, StatementNode] = {}
        self.hierarchy = TypeHierarchy()
        self.bodies: dict[str, list] = {}  # function id -> structured statements
        # Lookups kept by `merge`.
        self.owner_class: dict[str, str] = {}
        self.global_defs: dict[str, list[str]] = {}
        self.functions_by_name: dict[str, list[str]] = {}
        self._files_by_path: dict[str, SourceFile] = {}
        self._by_simple_name: dict[str, list[str]] = {}

    def merge(self, fragment: RepoModel, source: SourceFile) -> None:
        """Add one parsed file, whose nodes and declarations `fragment` holds;
        none of its classes is in the model yet.

        `owner_class` maps each global statement to the class it belongs to
        (a class declaration to its own class), `global_defs` each global
        variable to its defining statements, `functions_by_name` each method
        name to its function ids.
        """
        self.files.append(source)
        self._files_by_path[source.path] = source
        self.statements.update(fragment.statements)
        self.bodies.update(fragment.bodies)
        for fid, func in fragment.functions.items():
            self.functions[fid] = func
            self.functions_by_name.setdefault(func.name, []).append(fid)
        for name, cls in fragment.classes.items():
            self._by_simple_name.setdefault(cls.simple_name, []).append(name)
            self.classes[name] = cls
        for decl in fragment.globals:
            self.globals.append(decl)
            if decl.class_name:
                self.owner_class[decl.statement] = decl.class_name
            if decl.variable:
                self.global_defs.setdefault(decl.variable, []).append(decl.statement)

    def stmt(self, sid: str) -> StatementNode:
        return self.statements[sid]

    def file_by_path(self, path: str) -> SourceFile | None:
        return self._files_by_path.get(path)

    def class_by_simple_name(self, simple: str) -> ClassDecl | None:
        hits = self._by_simple_name.get(simple, [])
        return self.classes[hits[0]] if len(hits) == 1 else None

    def resolve_class(self, name: str, path: str | None = None) -> ClassDecl | None:
        """The repository class a type name denotes: its fully qualified
        name; else, as written in file `path`, the name in the file's own
        package, then through the file's single-type imports; else the only
        class with its simple name."""
        if name in self.classes:
            return self.classes[name]
        source = self._files_by_path.get(path) if path else None
        if source is not None:
            head, dot, rest = name.partition(".")
            qualified = [f"{source.package}.{name}"] if source.package else []
            qualified += [imp + dot + rest for imp in source.imports if imp.rsplit(".", 1)[-1] == head]
            for fqn in qualified:
                if fqn in self.classes:
                    return self.classes[fqn]
        return self.class_by_simple_name(name.split(".")[-1])

    def functions_of(self, class_name: str) -> list[FunctionDecl]:
        cls = self.classes.get(class_name)
        if not cls:
            return []
        return [self.functions[fid] for fid in cls.methods]

    def find_methods(self, class_name: str, method: str, arity: int) -> list[FunctionDecl]:
        return [
            f
            for f in self.functions_of(class_name)
            if f.name == method and f.arity == arity
        ]
