"""Statement-level intermediate representation of a parsed repository.

A repository is modelled as a flat collection of statement nodes plus the
structural facts (classes, functions, globals, type hierarchy) that the graph
construction and enhancement passes need.  Statements carry verbatim source
text, 1-based inclusive line spans, and purely syntactic def/use sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

RETURN_VAR = "<ret>"


@dataclass
class CallSite:
    """One method/constructor invocation inside a statement's expression."""

    chain: str  # literal callee chain as written, e.g. "page.append"
    name: str  # simple method name, e.g. "append"
    arity: int
    receiver: str | None = None  # receiver variable name when the base is a known variable
    receiver_type: str | None = None  # declared type of the receiver variable, if known
    arg_vars: list[set[str]] = field(default_factory=list)  # known variables per argument
    is_constructor: bool = False

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


@dataclass
class StatementNode:
    id: str
    file: str
    start_line: int
    end_line: int
    # A statement whose expression performs a method invocation is a "call"
    # unless a more specific kind (return, condition, loop_header, jump)
    # applies; such statements still carry call metadata.
    kind: str
    text: str  # full source lines covering the span
    owner: str  # function id or "global"
    defs: set[str] = field(default_factory=set)
    uses: set[str] = field(default_factory=set)
    # The uses made outside every argument list of `calls`.
    outside_uses: set[str] = field(default_factory=set)
    calls: list[CallSite] = field(default_factory=list)
    # The class `T`, as written, when the value this statement assigns is
    # one `new T(...)` and nothing else.
    allocates: str = ""
    code: str = ""  # exact token slice of this statement
    synthetic: bool = False  # entry/exit/external nodes carry no renderable span

    def span_lines(self) -> range:
        return range(self.start_line, self.end_line + 1)

    def sort_key(self) -> tuple:
        return (self.file, self.start_line, self.id)


@dataclass
class FunctionDecl:
    id: str
    class_name: str  # fully qualified owner class
    name: str
    param_types: list[str] = field(default_factory=list)
    params: list[str] = field(default_factory=list)
    body: list[str] = field(default_factory=list)  # statement ids, in the order the parser made them
    entry: str = ""
    exit: str = ""
    is_abstract: bool = False
    var_types: dict[str, str] = field(default_factory=dict)  # declared types of params/locals
    sig_line: int = 0
    file: str = ""

    def signature_text(self) -> str:
        return f"{self.class_name}.{self.name}({', '.join(self.param_types)})"

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass
class GlobalDecl:
    statement: str  # StatementNode id
    variable: str | None = None  # present iff kind == global_def
    rhs_uses: set[str] = field(default_factory=set)
    class_name: str = ""  # enclosing class for field definitions
    declared_type: str = ""


@dataclass
class ClassDecl:
    name: str  # fully qualified
    simple_name: str
    supertypes: list[str] = field(default_factory=list)  # as written (extends + implements)
    methods: list[str] = field(default_factory=list)  # FunctionDecl ids
    decl_statement: str = ""  # class_decl StatementNode id
    enclosing: str | None = None
    file: str = ""


@dataclass
class TypeHierarchy:
    edges: list[tuple[str, str]] = field(default_factory=list)  # (subtype, supertype) fqn pairs
    external_edges: list[tuple[str, str]] = field(default_factory=list)  # (class fqn, supertype as written)
    # The edges as adjacency, each list in edge order; kept by `add_edge`.
    direct_supertypes: dict[str, list[str]] = field(default_factory=dict, init=False, repr=False, compare=False)
    direct_subtypes: dict[str, list[str]] = field(default_factory=dict, init=False, repr=False, compare=False)

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


@dataclass
class JumpTarget:
    jump: str  # StatementNode id of the labeled break/continue
    resolved_successor: str  # StatementNode id the reconstructed edge points to


@dataclass
class SourceFile:
    path: str
    text: str
    lines: list[str] = field(init=False)  # the text split at "\n"
    declarations: list[str] = field(default_factory=list)  # package_decl/import_decl statement ids
    classes: list[str] = field(default_factory=list)  # class_decl statement ids of top-level classes
    trivia: list[bool] = field(default_factory=list)  # per line: no token but { } ( ) ; , starts there
    package: str = ""
    imports: list[str] = field(default_factory=list)  # single-type imports, e.g. "q.Dao"

    def __post_init__(self):
        self.lines = self.text.split("\n")

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


@dataclass
class RepoModel:
    """The parsed repository.

    The parser fills a fresh model, a fragment, with each file; `merge` adds
    a parsed fragment and the lookups over it, and nothing else writes the
    model.  It is read-only once `parse_repository` returns, apart from the
    `hierarchy` that `build_type_hierarchy` sets.
    """

    root: str
    files: list[SourceFile] = field(default_factory=list)
    functions: dict[str, FunctionDecl] = field(default_factory=dict)
    classes: dict[str, ClassDecl] = field(default_factory=dict)
    globals: list[GlobalDecl] = field(default_factory=list)
    statements: dict[str, StatementNode] = field(default_factory=dict)
    hierarchy: TypeHierarchy = field(default_factory=TypeHierarchy)
    bodies: dict[str, list] = field(default_factory=dict)  # function id -> structured statements
    # Lookups kept by `merge`.
    owner_class: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)
    global_defs: dict[str, list[str]] = field(default_factory=dict, init=False, repr=False, compare=False)
    functions_by_name: dict[str, list[str]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _files_by_path: dict[str, SourceFile] = field(default_factory=dict, init=False, repr=False, compare=False)
    _by_simple_name: dict[str, list[str]] = field(default_factory=dict, init=False, repr=False, compare=False)

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
