"""Statement-level intermediate representation of a parsed repository.

A repository is modelled as a flat collection of statement nodes plus the
structural facts (classes, functions, globals, type hierarchy) that the graph
construction and enhancement passes need.  Statements carry verbatim source
text, 1-based inclusive line spans, and purely syntactic def/use sets.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence, Set as AbstractSet
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

RETURN_VAR = "<ret>"
TRIVIA_GAP_MAX = 8  # longest all-trivia gap a context renders instead of eliding


class CallSite(NamedTuple):
    """One method/constructor invocation inside a statement's expression."""

    chain: str  # literal callee chain as written, e.g. "page.append"
    name: str  # simple method name, e.g. "append"
    arity: int
    receiver: str | None = None  # receiver variable name when the base is a known variable
    receiver_type: str | None = None  # declared type of the receiver variable, if known
    arg_vars: Sequence[set[str]] = ()  # known variables per argument
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


class StatementNode(NamedTuple):
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
    defs: AbstractSet[str] = frozenset()
    uses: AbstractSet[str] = frozenset()
    # The uses made outside every argument list of `calls`.
    outside_uses: AbstractSet[str] = frozenset()
    calls: Sequence[CallSite] = ()
    # The class `T`, as written, when the value this statement assigns is
    # one `new T(...)` and nothing else.
    allocates: str = ""
    code: str = ""  # exact token slice of this statement
    synthetic: bool = False  # entry/exit/external nodes carry no renderable span

    def span_lines(self) -> range:
        return range(self.start_line, self.end_line + 1)

    def sort_key(self) -> tuple:
        return (self.file, self.start_line, self.id)


class FunctionDecl(NamedTuple):
    id: str
    class_name: str  # fully qualified owner class
    name: str
    param_types: list[str]
    params: list[str]
    body: list[str]  # statement ids, in the order the parser made them
    entry: str
    exit: str
    is_abstract: bool
    var_types: dict[str, str]  # declared types of params/locals
    sig_line: int
    file: str

    def signature_text(self) -> str:
        return f"{self.class_name}.{self.name}({', '.join(self.param_types)})"

    @property
    def arity(self) -> int:
        return len(self.params)


class GlobalDecl(NamedTuple):
    statement: str  # StatementNode id
    variable: str | None = None  # present iff kind == global_def
    rhs_uses: AbstractSet[str] = frozenset()
    class_name: str = ""  # enclosing class for field definitions
    declared_type: str = ""


class ClassDecl(NamedTuple):
    name: str  # fully qualified
    simple_name: str
    supertypes: list[str]  # as written (extends + implements)
    methods: list[str]  # FunctionDecl ids
    decl_statement: str  # class_decl StatementNode id
    enclosing: str | None
    file: str


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
    """One parsed file.  Not slotted: `numbered`, `word_sums` and
    `trivia_after` are cached in its instance dict."""

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
    def word_sums(self) -> list[int]:
        """Per n: the words of `numbered` lines 1 to n (0 for n = 0),
        counted the first time the file is rendered."""
        return list(accumulate([len(line.split()) for line in self.numbered], initial=0))

    @cached_property
    def trivia_after(self) -> list[int]:
        """Per line n (index 0 unused): how many trivia lines follow it in a
        row, counted up to `TRIVIA_GAP_MAX` the first time the file is
        rendered: a gap after n of at most that many lines is rendered
        verbatim."""
        after = [0] * (len(self.trivia) + 1)
        run = 0
        for n in range(len(self.trivia) - 1, 0, -1):
            run = min(run + 1, TRIVIA_GAP_MAX) if self.trivia[n] else 0
            after[n] = run
        return after


class RepoModel:
    """The parsed repository.

    The parser fills a fresh model, a fragment, with each file; `merge` adds
    a parsed fragment and the lookups over it, and nothing else writes the
    model.  Its statements, functions, classes and globals are named tuples,
    each built with its final values: no field of one is assigned after
    construction, and only the parser, while it reads the record's file,
    fills in place the fresh sets, lists and dicts it gave it.  The model is
    read-only once `parse_repository` returns, apart from the `hierarchy`
    that `build_type_hierarchy` sets.
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
