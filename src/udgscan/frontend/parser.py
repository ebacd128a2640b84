"""Recursive-descent parser for the supported Java subset.

The parser produces a RepoModel: statement nodes with verbatim text, line
spans, and syntactic def/use sets, plus classes, functions, globals, and the
structured statement forms used by control-flow construction.  Each file is
parsed into a fragment of its own, which is merged into the model only when
the whole file parses.

Supported subset: package/import declarations; classes (single extends,
multiple implements), interfaces and annotation types; static and instance
fields with initializers; methods and constructors; local declarations,
assignments, expression/call statements, return, if/else, while, do-while,
for, for-each, switch, labeled statements, break/continue, blocks, and
try/catch/finally with normal-flow-only semantics.  Lambdas and method
references are rejected per file as subset violations.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass, field

from ..errors import DiagnosticSink, SubsetViolation
from . import syntax as syn
from .lexer import PRIMITIVES, Token, tokenize
from .model import (
    RETURN_VAR,
    CallSite,
    ClassDecl,
    FunctionDecl,
    GlobalDecl,
    RepoModel,
    SourceFile,
    StatementNode,
)

MODIFIERS = frozenset(
    "public private protected static final abstract native synchronized transient volatile strictfp".split()
)
# A line is trivia (blank, comment or brace punctuation) when no other token starts on it.
TRIVIA_PUNCT = frozenset("{}();,")
# How deep statements and call argument lists may nest, counted together:
# deeper code is a subset violation, which keeps the recursive parser and
# the graph walkers far from Python's recursion limit.
MAX_NESTING = 100


@dataclass
class FrontendConfig:
    extension: str = ".java"
    include: list[str] = field(default_factory=lambda: ["**"])
    exclude: list[str] = field(default_factory=list)

    def selects(self, rel_path: str) -> bool:
        norm = rel_path.replace(os.sep, "/")
        included = any(
            fnmatch.fnmatch(norm, pat) or fnmatch.fnmatch(os.path.basename(norm), pat)
            for pat in self.include
        )
        excluded = any(
            fnmatch.fnmatch(norm, pat) or fnmatch.fnmatch(os.path.basename(norm), pat)
            for pat in self.exclude
        )
        return included and not excluded


@dataclass
class _Scope:
    """Name visibility for def/use extraction inside one function body."""

    known: set[str] = field(default_factory=set)
    var_types: dict[str, str] = field(default_factory=dict)

    def declare(self, name: str, type_name: str) -> None:
        self.known.add(name)
        self.var_types[name] = type_name


@dataclass
class _PendingBody:
    function: FunctionDecl
    tokens: list[Token]
    cls: ClassDecl


class _FileParser:
    """Parses one file into `fragment`, a model that holds only this file."""

    def __init__(self, source: SourceFile, fragment: RepoModel, diagnostics: DiagnosticSink):
        self.src = source
        self.fragment = fragment
        self.diag = diagnostics
        self.tokens = tokenize(source.text, source.path)
        source.trivia = [True] * len(source.lines)
        for tok in self.tokens:
            if tok.text not in TRIVIA_PUNCT:
                source.trivia[tok.line - 1] = False
        self.pos = 0
        self.counter = 0
        self.pending: list[_PendingBody] = []
        self.pending_fields: list[tuple] = []  # (node, cls, [(GlobalDecl, init tokens)])
        self.package = ""

    # ------------------------------------------------------------------ tokens

    def peek(self, offset: int = 0) -> Token | None:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            line = tok.line if tok else self.tokens[-1].line if self.tokens else 1
            raise SubsetViolation(self.src.path, line, f"expected '{text}'")
        return self.next()

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    # ------------------------------------------------------------------ nodes

    def new_id(self) -> str:
        self.counter += 1
        return f"{self.src.path}#s{self.counter}"

    def make_node(self, kind: str, first: Token, last: Token, **kw) -> StatementNode:
        node = StatementNode(
            id=self.new_id(),
            file=self.src.path,
            start_line=first.line,
            end_line=last.line,
            kind=kind,
            text=self.src.slice_lines(first.line, last.line),
            owner=kw.pop("owner", "global"),
            code=self.src.text[first.start : last.end],
            **kw,
        )
        self.fragment.statements[node.id] = node
        return node

    # ------------------------------------------------------------- file level

    def parse_file(self) -> None:
        if self.at("package"):
            first = self.next()
            while not self.at(";"):
                self.next()
            last = self.next()
            self.package = self.src.package = self.src.text[first.end : last.start].strip()
            node = self.make_node("package_decl", first, last)
            self.fragment.globals.append(GlobalDecl(statement=node.id))
            self.src.declarations.append(node.id)
        while self.at("import"):
            first = self.next()
            names = []
            while not self.at(";"):
                names.append(self.next().text)
            last = self.next()
            if names and names[0] != "static" and names[-1] != "*":
                self.src.imports.append("".join(names))
            node = self.make_node("import_decl", first, last)
            self.fragment.globals.append(GlobalDecl(statement=node.id))
            self.src.declarations.append(node.id)
        while self.peek() is not None:
            if self.at(";"):
                self.next()
                continue
            self.parse_type_decl(enclosing=None)
        # Initializers and bodies are resolved once every class and field of
        # the file is known (fields may be referenced before declaration).
        for node, cls, declarators in self.pending_fields:
            fields = self.field_names_for(cls)
            for decl, init in declarators:
                decl.rhs_uses, calls = extract_expression(init, _Scope(), self.src.path, field_names=fields)
                node.uses |= decl.rhs_uses
                node.calls.extend(calls)
        for pend in self.pending:
            self.parse_body(pend)

    def qualify(self, simple: str, enclosing: str | None) -> str:
        if enclosing:
            return f"{enclosing}.{simple}"
        return f"{self.package}.{simple}" if self.package else simple

    def skip_annotations(self) -> None:
        while self.at("@") and (nxt := self.peek(1)) is not None and nxt.kind == "ident":
            self.next()  # @
            self.next()  # name
            if self.at("("):
                self.skip_balanced("(", ")")

    def skip_balanced(self, open_t: str, close_t: str) -> Token:
        depth = 0
        self.expect(open_t)
        depth = 1
        last = None
        while depth > 0:
            tok = self.next()
            last = tok
            if tok.text == open_t:
                depth += 1
            elif tok.text == close_t:
                depth -= 1
            elif open_t == "<" and tok.text in (">>", ">>>"):
                # Nested generics close with a single shift token.
                depth -= len(tok.text)
        return last

    def parse_type_decl(self, enclosing: str | None) -> None:
        first = self.peek()
        self.skip_annotations()
        while (tok := self.peek()) is not None and tok.text in MODIFIERS:
            self.next()
        is_annotation = False
        if self.at("@") and (nxt := self.peek(1)) is not None and nxt.text == "interface":
            self.next()
            is_annotation = True
        tok = self.peek()
        if tok is None or tok.text not in ("class", "interface", "enum"):
            raise SubsetViolation(self.src.path, tok.line if tok else 1, "expected a type declaration")
        if tok.text == "enum":
            raise SubsetViolation(self.src.path, tok.line, "enum declarations are outside the subset")
        keyword = self.next()
        name_tok = self.next()
        simple = name_tok.text
        fqn = self.qualify(simple, enclosing)
        if self.at("<"):
            self.skip_balanced("<", ">")
        supertypes: list[str] = []
        if self.at("extends"):
            self.next()
            supertypes.append(self.parse_type())
            while self.at(","):  # interface extends list
                self.next()
                supertypes.append(self.parse_type())
        if self.at("implements"):
            self.next()
            supertypes.append(self.parse_type())
            while self.at(","):
                self.next()
                supertypes.append(self.parse_type())
        brace = self.expect("{")
        decl_node = self.make_node("class_decl", first, brace)
        cls = ClassDecl(
            name=fqn,
            simple_name=simple,
            supertypes=supertypes,
            decl_statement=decl_node.id,
            is_top_level=enclosing is None,
            enclosing=enclosing,
            file=self.src.path,
        )
        self.fragment.classes[fqn] = cls
        if enclosing is None:
            self.src.classes.append(decl_node.id)
        self.fragment.globals.append(GlobalDecl(statement=decl_node.id, class_name=fqn))
        is_interface = keyword.text == "interface" or is_annotation
        while not self.at("}"):
            if self.peek() is None:
                raise SubsetViolation(self.src.path, brace.line, "unterminated class body")
            self.parse_member(cls, is_interface)
        close = self.expect("}")
        cls.body_span = (first.line, close.line)

    def parse_member(self, cls: ClassDecl, is_interface: bool) -> None:
        if self.at(";"):
            self.next()
            return
        start = self.pos
        self.skip_annotations()
        mods: list[str] = []
        while (tok := self.peek()) is not None and tok.text in MODIFIERS:
            mods.append(self.next().text)
        tok = self.peek()
        if tok is None:
            return
        if tok.text in ("class", "interface", "enum") or (
            tok.text == "@" and (n := self.peek(1)) is not None and n.text == "interface"
        ):
            self.pos = start
            self.parse_type_decl(enclosing=cls.name)
            return
        if tok.text == "{":  # static or instance initializer: outside the subset's flow model
            self.diag.add("warning", "frontend", "initializer block skipped", self.src.path, tok.line)
            self.skip_balanced("{", "}")
            return
        first = self.tokens[start]
        # Constructor: name matches the class and is directly followed by '('.
        if tok.kind == "ident" and tok.text == cls.simple_name and (n := self.peek(1)) is not None and n.text == "(":
            name_tok = self.next()
            self.parse_callable(cls, first, name_tok, cls.simple_name, "void", is_interface)
            return
        type_name = self.parse_type()
        name_tok = self.peek()
        if name_tok is None or name_tok.kind != "ident":
            raise SubsetViolation(self.src.path, tok.line, "expected a member name")
        self.next()
        if self.at("("):
            self.parse_callable(cls, first, name_tok, name_tok.text, type_name, is_interface)
        else:
            self.parse_field(cls, first, name_tok.text, type_name)

    def parse_field(self, cls: ClassDecl, first: Token, name: str, type_name: str) -> None:
        declarators: list[tuple[str, list[Token]]] = [(name, [])]
        while not self.at(";"):
            tok = self.peek()
            if tok is None:
                raise SubsetViolation(self.src.path, first.line, "unterminated field declaration")
            if tok.text == "=":
                self.next()
                init: list[Token] = []
                depth = 0
                while True:
                    t = self.peek()
                    if t is None:
                        raise SubsetViolation(self.src.path, first.line, "unterminated initializer")
                    if depth == 0 and t.text in (",", ";"):
                        break
                    if t.text in "([{":
                        depth += 1
                    elif t.text in ")]}":
                        depth -= 1
                    init.append(self.next())
                declarators[-1] = (declarators[-1][0], init)
            elif tok.text == ",":
                self.next()
                nxt = self.next()
                declarators.append((nxt.text, []))
            else:
                raise SubsetViolation(self.src.path, tok.line, "unexpected token in field declaration")
        last = self.next()  # ';'
        defs = {decl_name for decl_name, _ in declarators}
        node = self.make_node("global_def", first, last, defs=defs, owner="global")
        decls = []
        for decl_name, init in declarators:
            g = GlobalDecl(statement=node.id, variable=decl_name, class_name=cls.name, declared_type=type_name)
            self.fragment.globals.append(g)
            cls.fields.append(node.id)
            decls.append((g, init))
        self.pending_fields.append((node, cls, decls))

    def field_names_for(self, cls: ClassDecl) -> dict[str, str]:
        """Field name -> declared type over the enclosing class chain, from
        this file's own fields."""
        names: dict[str, str] = {}
        cur: ClassDecl | None = cls
        while cur is not None:
            for g in self.fragment.globals:
                if g.class_name == cur.name and g.variable:
                    names.setdefault(g.variable, g.declared_type)
            cur = self.fragment.classes.get(cur.enclosing) if cur.enclosing else None
        return names

    def parse_callable(
        self,
        cls: ClassDecl,
        first: Token,
        name_tok: Token,
        name: str,
        return_type: str,
        is_interface: bool,
    ) -> None:
        self.expect("(")
        params: list[str] = []
        param_types: list[str] = []
        while not self.at(")"):
            if self.at(","):
                self.next()
                continue
            if self.at("final"):
                self.next()
            ptype = self.parse_type()
            if self.at("..."):
                self.next()
                ptype += "[]"
            ptok = self.next()
            params.append(ptok.text)
            param_types.append(ptype)
        close = self.expect(")")
        if self.at("throws"):
            self.next()
            self.parse_type()
            while self.at(","):
                self.next()
                self.parse_type()
        fid = f"{self.src.path}#{cls.name}.{name}/{len(params)}"
        if fid in self.fragment.functions:  # same-arity overloads
            k = 2
            while f"{fid}#{k}" in self.fragment.functions:
                k += 1
            fid = f"{fid}#{k}"
        func = FunctionDecl(
            id=fid,
            class_name=cls.name,
            name=name,
            param_types=param_types,
            return_type=return_type,
            params=params,
            sig_line=first.line,
            file=self.src.path,
        )
        func.var_types = dict(zip(params, param_types))
        entry = self.make_node(
            "entry", first, close, owner=fid, defs=set(params), synthetic=True
        )
        func.entry = entry.id
        self.fragment.functions[fid] = func
        cls.methods.append(fid)
        if self.at(";"):  # abstract/interface method
            self.next()
            func.is_abstract = True
            exit_node = self.make_node("exit", close, close, owner=fid, synthetic=True)
            func.exit = exit_node.id
            return
        body_open = self.expect("{")
        depth = 1
        body: list[Token] = [body_open]
        while depth > 0:
            tok = self.next()
            body.append(tok)
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
        exit_node = self.make_node("exit", body[-1], body[-1], owner=fid, synthetic=True)
        func.exit = exit_node.id
        self.pending.append(_PendingBody(function=func, tokens=body, cls=cls))

    # ------------------------------------------------------------ method body

    def parse_body(self, pend: _PendingBody) -> None:
        func = pend.function
        scope = _Scope()
        for p, t in zip(func.params, func.param_types):
            scope.declare(p, t)
        sub = _BodyParser(self, func, scope, self.field_names_for(pend.cls))
        stmts = sub.parse_block_tokens(pend.tokens)
        self.fragment.bodies[func.id] = stmts
        func.var_types = dict(scope.var_types)
        func.body = [sid for sid in _collect_ids(stmts)]

    # ------------------------------------------------------------------ types

    def parse_type(self) -> str:
        tok = self.peek()
        if tok is None:
            raise SubsetViolation(self.src.path, 1, "expected a type")
        if tok.kind == "keyword" and tok.text in PRIMITIVES:
            self.next()
            base = tok.text
        elif tok.kind == "ident":
            self.next()
            base = tok.text
            while self.at(".") and (n := self.peek(1)) is not None and n.kind == "ident":
                self.next()
                base = self.next().text  # keep the simple name of a dotted type
        else:
            raise SubsetViolation(self.src.path, tok.line, f"expected a type, found '{tok.text}'")
        if self.at("<"):
            self.skip_balanced("<", ">")
        while self.at("[") and (n := self.peek(1)) is not None and n.text == "]":
            self.next()
            self.next()
            base += "[]"
        return base


def _collect_ids(stmts: list) -> list[str]:
    out: list[str] = []
    for s in stmts:
        if isinstance(s, syn.Simple):
            out.append(s.node)
        elif isinstance(s, (syn.Return, syn.Jump)):
            out.append(s.node)
        elif isinstance(s, syn.If):
            out.append(s.cond)
            out.extend(_collect_ids(s.then))
            out.extend(_collect_ids(s.orelse))
        elif isinstance(s, syn.While):
            out.append(s.cond)
            out.extend(_collect_ids(s.body))
        elif isinstance(s, syn.DoWhile):
            out.extend(_collect_ids(s.body))
            out.append(s.cond)
        elif isinstance(s, syn.For):
            for x in (s.init, s.cond, s.update):
                if x:
                    out.append(x)
            out.extend(_collect_ids(s.body))
        elif isinstance(s, syn.ForEach):
            out.append(s.header)
            out.append(s.update)
            out.extend(_collect_ids(s.body))
        elif isinstance(s, syn.Switch):
            out.append(s.selector)
            for _, stmts2 in s.cases:
                out.extend(_collect_ids(stmts2))
        elif isinstance(s, syn.Labeled):
            out.append(s.label_node)
            out.extend(_collect_ids([s.inner]))
        elif isinstance(s, syn.Try):
            out.extend(_collect_ids(s.body))
            for c in s.catches:
                out.extend(_collect_ids(c))
            out.extend(_collect_ids(s.finally_))
        elif isinstance(s, syn.Block):
            out.extend(_collect_ids(s.stmts))
    return out


class _BodyParser:
    """Parses one method body's token slice into statement nodes and shapes."""

    def __init__(
        self, fp: _FileParser, func: FunctionDecl, scope: _Scope, fields: dict[str, str], depth: int = 0
    ):
        self.fp = fp
        self.func = func
        self.scope = scope
        self.fields = fields
        self.tokens: list[Token] = []
        self.pos = 0
        self.depth = depth  # statements enclosing the next one parsed

    # Token helpers over the local slice.
    def peek(self, offset: int = 0) -> Token | None:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            line = tok.line if tok else self.func.sig_line
            raise SubsetViolation(self.fp.src.path, line, f"expected '{text}' in method body")
        return self.next()

    def known(self) -> dict[str, str]:
        merged = dict(self.fields)
        merged.update(self.scope.var_types)
        return merged

    def extract(self, tokens: list[Token]) -> tuple[set[str], list[CallSite]]:
        return extract_expression(
            tokens, self.scope, self.fp.src.path, field_names=self.fields, depth=self.depth
        )

    def parse_block_tokens(self, tokens: list[Token]) -> list:
        assert tokens[0].text == "{" and tokens[-1].text == "}"
        self.tokens = tokens[1:-1]
        self.pos = 0
        stmts = []
        while self.peek() is not None:
            stmts.append(self.parse_statement())
        return stmts

    def consume_until_semicolon(self) -> list[Token]:
        out: list[Token] = []
        depth = 0
        while True:
            tok = self.peek()
            if tok is None:
                raise SubsetViolation(self.fp.src.path, self.func.sig_line, "missing ';'")
            if depth == 0 and tok.text == ";":
                break
            if tok.text in "([":
                depth += 1
            elif tok.text in ")]":
                depth -= 1
            out.append(self.next())
        return out

    def balanced_group(self, open_t: str, close_t: str) -> list[Token]:
        """Consume a balanced group and return the tokens inside it."""
        self.expect(open_t)
        depth = 1
        inner: list[Token] = []
        while True:
            tok = self.next()
            if tok.text == open_t:
                depth += 1
            elif tok.text == close_t:
                depth -= 1
                if depth == 0:
                    return inner
            inner.append(tok)

    # --------------------------------------------------------------- statements

    def parse_statement(self):
        tok = self.peek()
        if tok is None:
            raise SubsetViolation(self.fp.src.path, self.func.sig_line, "unexpected end of body")
        if self.depth == MAX_NESTING:
            raise SubsetViolation(self.fp.src.path, tok.line, f"nesting deeper than {MAX_NESTING}")
        self.depth += 1
        stmt = self.parse_statement_at(tok)
        self.depth -= 1
        return stmt

    def parse_statement_at(self, tok: Token):
        if tok.text == ";":
            self.next()
            return syn.Block([])
        if tok.text == "{":
            return self.parse_nested_block()
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "while":
            return self.parse_while()
        if tok.text == "do":
            return self.parse_do_while()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "switch":
            return self.parse_switch()
        if tok.text == "try":
            return self.parse_try()
        if tok.text == "return":
            return self.parse_return()
        if tok.text in ("break", "continue"):
            return self.parse_jump()
        if tok.text == "throw":
            first = self.next()
            expr = self.consume_until_semicolon()
            last = self.expect(";")
            uses, calls = self.extract(expr)
            node = self.fp.make_node(
                "jump", first, last, owner=self.func.id, uses=uses, calls=calls, jump_kind="throw"
            )
            return syn.Jump(node.id, "throw")
        # Labeled statement: IDENT ':' <statement>
        if (
            tok.kind == "ident"
            and (n := self.peek(1)) is not None
            and n.text == ":"
            and ((m := self.peek(2)) is None or m.text != ":")
        ):
            return self.parse_labeled()
        return self.parse_simple()

    def parse_nested_block(self) -> syn.Block:
        open_tok = self.expect("{")
        depth = 1
        body = [open_tok]
        while depth > 0:
            t = self.next()
            body.append(t)
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
        sub = _BodyParser(self.fp, self.func, self.scope, self.fields, self.depth)
        return syn.Block(sub.parse_block_tokens(body))

    def parse_if(self) -> syn.If:
        first = self.expect("if")
        cond = self.balanced_group("(", ")")
        last = self.tokens[self.pos - 1]
        uses, calls = self.extract(cond)
        node = self.fp.make_node("condition", first, last, owner=self.func.id, uses=uses, calls=calls)
        then = [self.parse_statement()]
        orelse = []
        if self.at("else"):
            self.next()
            orelse = [self.parse_statement()]
        return syn.If(node.id, then, orelse)

    def parse_while(self) -> syn.While:
        first = self.expect("while")
        cond = self.balanced_group("(", ")")
        last = self.tokens[self.pos - 1]
        uses, calls = self.extract(cond)
        node = self.fp.make_node("loop_header", first, last, owner=self.func.id, uses=uses, calls=calls)
        body = [self.parse_statement()]
        return syn.While(node.id, body)

    def parse_do_while(self) -> syn.DoWhile:
        self.expect("do")
        body = [self.parse_statement()]
        first = self.expect("while")
        cond = self.balanced_group("(", ")")
        semi = self.expect(";")
        uses, calls = self.extract(cond)
        node = self.fp.make_node("loop_header", first, semi, owner=self.func.id, uses=uses, calls=calls)
        return syn.DoWhile(node.id, body)

    def parse_for(self):
        first = self.expect("for")
        header = self.balanced_group("(", ")")
        close = self.tokens[self.pos - 1]
        colon = _top_level_index(header, ":")
        if colon is not None:
            return self.parse_for_each(first, header, close, colon)
        semis = [i for i in range(len(header)) if header[i].text == ";" and _depth_at(header, i) == 0]
        if len(semis) != 2:
            raise SubsetViolation(self.fp.src.path, first.line, "malformed for header")
        init_toks = header[: semis[0]]
        cond_toks = header[semis[0] + 1 : semis[1]]
        update_toks = header[semis[1] + 1 :]
        init_id = cond_id = update_id = None
        if init_toks:
            init_id = self.simple_from_tokens(init_toks, first, close).node
        if cond_toks:
            uses, calls = self.extract(cond_toks)
            cond_id = self.fp.make_node(
                "loop_header", first, close, owner=self.func.id, uses=uses, calls=calls
            ).id
        if update_toks:
            update_id = self.simple_from_tokens(update_toks, first, close).node
        body = [self.parse_statement()]
        return syn.For(init_id, cond_id, update_id, body)

    def parse_for_each(self, first: Token, header: list[Token], close: Token, colon: int):
        decl = header[:colon]
        iterable = header[colon + 1 :]
        var_tok = decl[-1]
        type_toks = decl[:-1]
        type_name = _type_from_tokens(type_toks)
        self.scope.declare(var_tok.text, type_name)
        uses, calls = self.extract(iterable)
        head = self.fp.make_node("loop_header", first, close, owner=self.func.id, uses=set(uses), calls=calls)
        update = self.fp.make_node(
            "assignment", first, close, owner=self.func.id, defs={var_tok.text}, uses=set(uses)
        )
        body = [self.parse_statement()]
        return syn.ForEach(head.id, update.id, body)

    def parse_switch(self) -> syn.Switch:
        first = self.expect("switch")
        sel = self.balanced_group("(", ")")
        last = self.tokens[self.pos - 1]
        uses, calls = self.extract(sel)
        node = self.fp.make_node("condition", first, last, owner=self.func.id, uses=uses, calls=calls)
        self.expect("{")
        cases: list[tuple[bool, list]] = []
        current: list | None = None
        while not self.at("}"):
            tok = self.peek()
            if tok is None:
                raise SubsetViolation(self.fp.src.path, first.line, "unterminated switch")
            if tok.text == "case":
                self.next()
                while not self.at(":"):
                    self.next()
                self.expect(":")
                current = []
                cases.append((False, current))
            elif tok.text == "default":
                self.next()
                self.expect(":")
                current = []
                cases.append((True, current))
            else:
                if current is None:
                    raise SubsetViolation(self.fp.src.path, tok.line, "statement before first case label")
                current.append(self.parse_statement())
        self.expect("}")
        return syn.Switch(node.id, cases)

    def parse_try(self) -> syn.Try:
        self.expect("try")
        body = self.parse_nested_block().stmts
        catches = []
        while self.at("catch"):
            self.next()
            group = self.balanced_group("(", ")")
            if len(group) >= 2:
                self.scope.declare(group[-1].text, _type_from_tokens(group[:-1]))
            catches.append(self.parse_nested_block().stmts)
        finally_ = []
        if self.at("finally"):
            self.next()
            finally_ = self.parse_nested_block().stmts
        return syn.Try(body, catches, finally_)

    def parse_return(self) -> syn.Return:
        first = self.expect("return")
        expr = self.consume_until_semicolon()
        last = self.expect(";")
        uses, calls = self.extract(expr)
        defs = {RETURN_VAR} if expr else set()
        node = self.fp.make_node(
            "return", first, last, owner=self.func.id, defs=defs, uses=uses, calls=calls
        )
        return syn.Return(node.id)

    def parse_jump(self) -> syn.Jump:
        first = self.next()
        label = ""
        if (tok := self.peek()) is not None and tok.kind == "ident":
            label = self.next().text
        last = self.expect(";")
        node = self.fp.make_node(
            "jump", first, last, owner=self.func.id, jump_kind=first.text, jump_label=label
        )
        return syn.Jump(node.id, first.text, label)

    def parse_labeled(self) -> syn.Labeled:
        name_tok = self.next()
        colon = self.expect(":")
        node = self.fp.make_node("label", name_tok, colon, owner=self.func.id)
        inner = self.parse_statement()
        return syn.Labeled(name_tok.text, node.id, inner)

    def parse_simple(self) -> syn.Simple:
        first = self.peek()
        expr = self.consume_until_semicolon()
        last = self.expect(";")
        return self.simple_from_tokens(expr, first, last)

    def simple_from_tokens(self, expr: list[Token], first: Token, last: Token) -> syn.Simple:
        """Lower a declaration, assignment, or call expression statement."""
        decl = _match_declaration(expr)
        if decl is not None:
            type_toks, name_tok, init = decl
            type_name = _type_from_tokens(type_toks)
            self.scope.declare(name_tok.text, type_name)
            uses, calls = self.extract(init)
            kind = "call" if calls else "declaration"
            node = self.fp.make_node(
                kind, first, last, owner=self.func.id, defs={name_tok.text}, uses=uses, calls=calls
            )
            node.code = self.fp.src.text[expr[0].start : expr[-1].end] if expr else node.code
            return syn.Simple(node.id)
        eq = _top_level_assign_index(expr)
        if eq is not None:
            lhs, op, rhs = expr[:eq], expr[eq], expr[eq + 1 :]
            target = _dotted_name(lhs)
            defs = {target} if target else set()
            uses, calls = self.extract(rhs)
            if op.text != "=":  # compound assignment reads the target
                uses |= defs
            lhs_uses, lhs_calls = self.extract([t for t in lhs if t.text not in ("[", "]")][1:])
            uses |= lhs_uses
            calls.extend(lhs_calls)
            kind = "call" if calls else "assignment"
            node = self.fp.make_node(kind, first, last, owner=self.func.id, defs=defs, uses=uses, calls=calls)
            return syn.Simple(node.id)
        if expr and expr[-1].text in ("++", "--") or (expr and expr[0].text in ("++", "--")):
            core = [t for t in expr if t.text not in ("++", "--")]
            target = _dotted_name(core)
            uses, calls = self.extract(core)
            defs = {target} if target else set()
            uses |= defs
            node = self.fp.make_node("assignment", first, last, owner=self.func.id, defs=defs, uses=uses, calls=calls)
            return syn.Simple(node.id)
        uses, calls = self.extract(expr)
        kind = "call" if calls else "assignment"
        node = self.fp.make_node(kind, first, last, owner=self.func.id, uses=uses, calls=calls)
        return syn.Simple(node.id)


# ---------------------------------------------------------------- token utils


def _depth_at(tokens: list[Token], idx: int) -> int:
    depth = 0
    for t in tokens[:idx]:
        if t.text in "([":
            depth += 1
        elif t.text in ")]":
            depth -= 1
    return depth


def _top_level_index(tokens: list[Token], text: str) -> int | None:
    depth = 0
    for i, t in enumerate(tokens):
        if t.text in "([":
            depth += 1
        elif t.text in ")]":
            depth -= 1
        elif depth == 0 and t.text == text:
            return i
    return None


_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=")


def _top_level_assign_index(tokens: list[Token]) -> int | None:
    depth = 0
    for i, t in enumerate(tokens):
        if t.text in "([":
            depth += 1
        elif t.text in ")]":
            depth -= 1
        elif depth == 0 and t.kind == "punct" and t.text in _ASSIGN_OPS:
            # '==' is lexed as one token, so a bare '=' here is an assignment.
            return i
    return None


def _dotted_name(tokens: list[Token]) -> str | None:
    """LHS tokens -> dotted target name; array subscripts are dropped."""
    parts: list[str] = []
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.kind == "ident" or t.is_kw("this"):
            parts.append(t.text)
            i += 1
        elif t.text == ".":
            i += 1
        elif t.text == "[":
            depth = 1
            i += 1
            while i < len(tokens) and depth > 0:
                if tokens[i].text == "[":
                    depth += 1
                elif tokens[i].text == "]":
                    depth -= 1
                i += 1
            break
        else:
            return None
    return ".".join(parts) if parts else None


def _match_declaration(tokens: list[Token]) -> tuple[list[Token], Token, list[Token]] | None:
    """Match `Type name [= init]`; returns (type tokens, name token, init tokens)."""
    i = 0
    if i < len(tokens) and tokens[i].is_kw("final"):
        i += 1
    start = i
    if i >= len(tokens):
        return None
    t = tokens[i]
    if t.kind == "keyword" and t.text in PRIMITIVES:
        i += 1
    elif t.kind == "ident":
        i += 1
        while i + 1 < len(tokens) and tokens[i].text == "." and tokens[i + 1].kind == "ident":
            i += 2
        if i < len(tokens) and tokens[i].text == "<":
            depth = 1
            i += 1
            while i < len(tokens) and depth > 0:
                if tokens[i].text == "<":
                    depth += 1
                elif tokens[i].text == ">":
                    depth -= 1
                elif tokens[i].text in (">>", ">>>"):
                    depth -= len(tokens[i].text)
                i += 1
    else:
        return None
    while i + 1 < len(tokens) and tokens[i].text == "[" and tokens[i + 1].text == "]":
        i += 2
    if i >= len(tokens) or tokens[i].kind != "ident":
        return None
    name_tok = tokens[i]
    i += 1
    if i == len(tokens):
        return (tokens[start : i - 1], name_tok, [])
    if tokens[i].text == "=":
        return (tokens[start : i - 1], name_tok, tokens[i + 1 :])
    return None


def _type_from_tokens(tokens: list[Token]) -> str:
    base = ""
    for t in tokens:
        if t.kind in ("ident", "keyword") and t.text != "final":
            base = t.text
        elif t.text == "<":
            break
    suffix = "[]" if any(t.text == "[" for t in tokens) else ""
    return base + suffix


# --------------------------------------------------------- def/use extraction


def extract_expression(
    tokens: list[Token],
    scope: _Scope,
    path: str,
    field_names: dict[str, str] | None = None,
    depth: int = 0,
) -> tuple[set[str], list[CallSite]]:
    """Syntactic use/call extraction over an expression token stream.

    Uses contain only names resolvable to declared variables (params, locals,
    fields of the enclosing class chain); the base of a dotted access
    contributes the use.  Callee names never count as uses, type names and
    class literals are skipped, and `this.x` chains use the dotted name.
    `depth` counts the statements and argument lists enclosing `tokens`.
    """
    known: dict[str, str] = dict(field_names or {})
    known.update(scope.var_types)
    uses: set[str] = set()
    calls: list[CallSite] = []

    def walk(toks: list[Token]) -> None:
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.text == "->" or t.text == "::":
                raise SubsetViolation(path, t.line, "lambdas and method references are outside the subset")
            if t.is_kw("new"):
                i = handle_new(toks, i)
                continue
            if t.kind == "ident" or t.is_kw("this"):
                i = handle_chain(toks, i)
                continue
            if t.text == "(" and _looks_like_cast(toks, i, known):
                # skip the cast type entirely
                j = i + 1
                while j < len(toks) and toks[j].text != ")":
                    j += 1
                i = j + 1
                continue
            i += 1

    def handle_new(toks: list[Token], i: int) -> int:
        j = i + 1
        type_parts = []
        while j < len(toks) and (toks[j].kind == "ident" or toks[j].text == "."):
            if toks[j].kind == "ident":
                type_parts.append(toks[j].text)
            j += 1
        if j < len(toks) and toks[j].text == "<":
            depth = 1
            j += 1
            while j < len(toks) and depth > 0:
                if toks[j].text == "<":
                    depth += 1
                elif toks[j].text in (">", ">>"):
                    depth -= 2 if toks[j].text == ">>" else 1
                j += 1
        if j < len(toks) and toks[j].text == "(":
            args, end = _split_args(toks, j)
            arg_sets = walk_args(args, toks[j])
            simple = type_parts[-1] if type_parts else "?"
            calls.append(
                CallSite(
                    chain=f"new {'.'.join(type_parts)}",
                    name=simple,
                    arity=len(args),
                    arg_vars=arg_sets,
                    is_constructor=True,
                )
            )
            return end + 1
        if j < len(toks) and toks[j].text == "[":
            return j  # array creation: dimensions walk as ordinary tokens
        return j

    def handle_chain(toks: list[Token], i: int) -> int:
        segs = [toks[i].text]
        j = i + 1
        while j + 1 < len(toks) and toks[j].text == "." and (
            toks[j + 1].kind == "ident" or toks[j + 1].is_kw("class", "this")
        ):
            nxt = toks[j + 1]
            if nxt.is_kw("class"):  # class literal: no variable involved
                return j + 2
            segs.append(nxt.text)
            j += 2
            if j < len(toks) and toks[j].text == "(":
                break
        if j < len(toks) and toks[j].text == "(":
            return handle_call(toks, i, segs, j)
        register_access(segs)
        return j

    def handle_call(toks: list[Token], start: int, segs: list[str], paren: int) -> int:
        base = segs[0]
        name = segs[-1]
        receiver = None
        receiver_type = None
        if len(segs) > 1:
            if base in known:
                receiver = base
                receiver_type = known[base]
                uses.add(base)
            elif base == "this":
                receiver = "this"
                if len(segs) > 2:  # this.field.m() uses this.field
                    uses.add(f"this.{segs[1]}")
        args, end = _split_args(toks, paren)
        arg_sets = walk_args(args, toks[paren])
        chain = ".".join(segs)
        site = CallSite(
            chain=chain,
            name=name,
            arity=len(args),
            receiver=receiver,
            receiver_type=receiver_type,
            arg_vars=arg_sets,
        )
        calls.append(site)
        # Chained invocations on the result: `a.b(x).c(y)`
        j = end + 1
        while j + 2 < len(toks) and toks[j].text == "." and toks[j + 1].kind == "ident" and toks[j + 2].text == "(":
            cname = toks[j + 1].text
            args2, end2 = _split_args(toks, j + 2)
            arg_sets2 = walk_args(args2, toks[j + 2])
            chain = f"{chain}().{cname}"
            calls.append(CallSite(chain=chain, name=cname, arity=len(args2), arg_vars=arg_sets2))
            j = end2 + 1
        return j

    def walk_args(args: list[list[Token]], paren: Token) -> list[set[str]]:
        """Each argument's uses; its uses and calls also count for the whole."""
        if args and depth == MAX_NESTING:
            raise SubsetViolation(path, paren.line, f"nesting deeper than {MAX_NESTING}")
        arg_sets = []
        for a in args:
            sub_scope = _Scope(known=set(known), var_types=dict(known))
            u, c = extract_expression(a, sub_scope, path, depth=depth + 1)
            arg_sets.append(u)
            uses.update(u)
            calls.extend(c)
        return arg_sets

    def register_access(segs: list[str]) -> None:
        base = segs[0]
        if base == "this":
            if len(segs) > 1:
                uses.add(f"this.{segs[1]}")
            return
        if base in known:
            uses.add(base)
        # Unknown bases (class names, external statics) contribute nothing.

    def _looks_like_cast(toks: list[Token], i: int, known_vars: dict[str, str]) -> bool:
        if i + 2 >= len(toks):
            return False
        j = i + 1
        if toks[j].kind == "keyword" and toks[j].text in PRIMITIVES:
            j += 1
        elif toks[j].kind == "ident" and toks[j].text not in known_vars:
            j += 1
            while j + 1 < len(toks) and toks[j].text == "." and toks[j + 1].kind == "ident":
                j += 2
        else:
            return False
        while j + 1 < len(toks) and toks[j].text == "[" and toks[j + 1].text == "]":
            j += 2
        if j >= len(toks) or toks[j].text != ")":
            return False
        k = j + 1
        if k >= len(toks):
            return False
        nxt = toks[k]
        return nxt.kind in ("ident", "string", "char", "number") or nxt.is_kw("this", "new") or nxt.text == "("

    walk(tokens)
    return uses, calls


def _split_args(tokens: list[Token], paren: int) -> tuple[list[list[Token]], int]:
    """Split the argument list starting at tokens[paren] == '('.

    Returns (argument token lists, index of the closing ')').
    """
    assert tokens[paren].text == "("
    depth = 1
    args: list[list[Token]] = []
    current: list[Token] = []
    i = paren + 1
    while i < len(tokens):
        t = tokens[i]
        if t.text in "([":
            depth += 1
        elif t.text in ")]":
            depth -= 1
            if depth == 0:
                if current:
                    args.append(current)
                return args, i
        if depth == 1 and t.text == ",":
            args.append(current)
            current = []
        else:
            current.append(t)
        i += 1
    raise SubsetViolation("<expr>", tokens[paren].line, "unbalanced argument list")


# ------------------------------------------------------------------ repo walk


def parse_source(path: str, text: str, model: RepoModel, diagnostics: DiagnosticSink) -> bool:
    """Parse one file into the model; returns False when the file is skipped.

    The file is parsed into a fragment and a diagnostic sink of its own, and
    both are merged only on success: a skipped file leaves nothing but its
    error behind.
    """
    source = SourceFile(path=path, text=text)
    fragment = RepoModel(root=model.root)
    local = DiagnosticSink()
    try:
        _FileParser(source, fragment, local).parse_file()
    except SubsetViolation as exc:
        diagnostics.add("error", "frontend", f"subset violation: {exc.message}", exc.path, exc.line)
        return False
    except IndexError:
        diagnostics.add("error", "frontend", "subset violation: truncated construct", path)
        return False
    model.merge(fragment, source)
    diagnostics.extend(local)
    return True


def parse_repository(
    root: str,
    config: FrontendConfig | None = None,
    diagnostics: DiagnosticSink | None = None,
) -> RepoModel:
    """Parse every selected source file under `root` into a RepoModel.

    Files violating the subset, unreadable files and files that are not valid
    UTF-8 are reported and skipped; the remaining files still produce a
    usable model.
    """
    config = config or FrontendConfig()
    diagnostics = diagnostics if diagnostics is not None else DiagnosticSink()
    if not os.path.isdir(root):
        raise IOError(f"repository root does not exist: {root}")
    model = RepoModel(root=root)
    paths: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            if not fn.endswith(config.extension):
                continue
            rel = os.path.relpath(os.path.join(dirpath, fn), root)
            if config.selects(rel):
                paths.append(rel)
    for rel in sorted(paths):
        full = os.path.join(root, rel)
        path = rel.replace(os.sep, "/")
        try:
            with open(full, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            diagnostics.add("error", "frontend", f"source file is not valid UTF-8: {exc.reason}", path)
            continue
        except OSError as exc:
            diagnostics.add("error", "frontend", f"unreadable source file: {exc.strerror or exc}", path)
            continue
        parse_source(path, text, model, diagnostics)
    return model
