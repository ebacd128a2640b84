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
references are rejected per file as subset violations, as are brackets
that do not nest; every reader jumps by the file's bracket pairs.

Fields, locals, for-inits, for-each variables, catch parameters and
parameters share one grammar (JLS 8.3, 14.4): annotations and modifiers in
any order, a type, then declarators `name [] ... [= init]` split, as
argument lists are, at commas outside brackets and `new` type arguments.
A for header's init and update may be expression lists, each lowered to
one node; a multi-catch parameter takes the type of its last alternative.
"""

from __future__ import annotations

import os
from typing import NamedTuple

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
# Each closing bracket mapped to the opener it closes.
_OPENER_OF = {")": "(", "]": "[", "}": "{"}
# How deep statements and call argument lists may nest, counted together:
# deeper code is a subset violation, which keeps the recursive parser and
# the graph walkers far from Python's recursion limit.
MAX_NESTING = 100


SOURCE_EXTENSION = ".java"


class _PendingBody(NamedTuple):
    function: FunctionDecl
    cls: ClassDecl
    start: int  # index of the body's first token, after its '{'
    end: int  # index of the body's closing '}'


class _Cursor:
    """A read position in a file's tokens that stops at `end`.

    At `end`, peek() returns None and next() reports a truncated construct
    at `eof_line`; `expect` reports a missing token at the same line and
    names what was being parsed with `where`.  `closers[i]` is the index of
    the closer of the `(`, `[` or `{` at i, and i for any other token.  A
    cursor's range is always a group's inside or the whole file, so each
    group that opens in it closes in it.
    """

    def __init__(self, path: str, tokens: list[Token], closers: list[int], end: int, eof_line: int, where: str = ""):
        self.path = path
        self.tokens = tokens
        self.closers = closers
        self.pos = 0
        self.end = end
        self.eof_line = eof_line
        self.where = where

    def peek(self, offset: int = 0) -> Token | None:
        idx = self.pos + offset
        return self.tokens[idx] if idx < self.end else None

    def next(self) -> Token:
        if self.pos >= self.end:
            raise SubsetViolation(self.path, self.eof_line, "truncated construct")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            line = tok.line if tok else self.eof_line
            raise SubsetViolation(self.path, line, f"expected '{text}'{self.where}")
        return self.next()

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def skip_balanced(self, open_t: str) -> Token:
        """Consume a group from `open_t` to its closer; returns the closer."""
        self.expect(open_t)
        self.pos = self.closers[self.pos - 1] + 1
        return self.tokens[self.pos - 1]

    def semicolon(self) -> int:
        """Index of the first top-level `;` from the cursor; `end` when there is none."""
        return _top_index(self.tokens, self.closers, self.pos, self.end, (";",))

    def skip_type_args(self) -> None:
        """Consume the type arguments `<...>` at the cursor."""
        close = _type_args_close(self.tokens, self.closers, self.pos, self.end)
        if close == self.end:
            raise self.unclosed_type_args(self.pos)
        self.pos = close + 1

    def unclosed_type_args(self, start: int) -> SubsetViolation:
        """The error for the type at tokens[start] whose type arguments do
        not close: at its first `<`."""
        lt = next(i for i in range(start, self.end) if self.tokens[i].text == "<")
        return SubsetViolation(self.path, self.tokens[lt].line, "unclosed '<'")


class _FileParser(_Cursor):
    """Parses one file into `fragment`, a model that holds only this file."""

    def __init__(self, source: SourceFile, fragment: RepoModel, diagnostics: DiagnosticSink):
        tokens = tokenize(source.text, source.path)
        # One pass marks the lines that hold only trivia and pairs each
        # bracket with its closer on one stack.  A closer of a type no open
        # group has is unmatched; any other that does not nest, like the end
        # of the file, leaves the innermost open group unclosed.
        trivia = source.trivia = [True] * len(source.lines)
        closers = list(range(len(tokens)))
        opened: list[int] = []
        for i, tok in enumerate(tokens):
            text = tok.text
            if text not in TRIVIA_PUNCT:
                trivia[tok.line - 1] = False
            if text in "([{":
                opened.append(i)
            elif text in _OPENER_OF:
                if opened and tokens[opened[-1]].text == _OPENER_OF[text]:
                    closers[opened.pop()] = i
                elif any(tokens[j].text == _OPENER_OF[text] for j in opened):
                    break  # the innermost open group never closes
                else:
                    raise SubsetViolation(source.path, tok.line, f"unmatched '{text}'")
        if opened:
            unclosed = tokens[opened[-1]]
            raise SubsetViolation(source.path, unclosed.line, f"unclosed '{unclosed.text}'")
        super().__init__(source.path, tokens, closers, len(tokens), tokens[-1].line if tokens else 1)
        self.src = source
        self.fragment = fragment
        self.diag = diagnostics
        self.field_scopes: dict[str, dict[str, str]] = {}
        self.counter = 0
        self.pending: list[_PendingBody] = []
        self.pending_fields: list[tuple] = []  # (node, cls, [(GlobalDecl, init start, init end)])
        self.package = ""

    # ------------------------------------------------------------------ nodes

    def make_node(
        self,
        kind: str,
        first: Token,
        last: Token,
        owner: str = "global",
        defs: set[str] | None = None,
        expr: _Expr | None = None,
        allocates: str = "",
        synthetic: bool = False,
    ) -> StatementNode:
        """The file's next statement node, from `first` to `last`, with the
        uses and calls of `expr`."""
        self.counter += 1
        src, path = self.src, self.path
        sid = f"{path}#s{self.counter}"
        uses = outside = calls = None
        if expr is not None:
            uses, outside, calls = expr.outside | expr.inside, expr.outside, expr.calls
        text, code = src.slice_lines(first.line, last.line), src.text[first.start : last.end]
        node = StatementNode(
            sid, path, first.line, last.line, kind, text, owner, defs, uses, outside, calls, allocates, code, synthetic
        )
        self.fragment.statements[sid] = node
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
            self.parse_member(None)
        # Initializers and bodies are resolved once every class and field of
        # the file is known (fields may be referenced before declaration).
        for node, cls, declarators in self.pending_fields:
            fields = self.field_names_for(cls)
            for decl, start, end in declarators:
                init = _Expr(self, {}, fields).walk(start, end)
                decl.rhs_uses = init.uses
                node.uses |= decl.rhs_uses
                node.outside_uses |= init.outside
                node.calls.extend(init.calls)
        for pend in self.pending:
            self.parse_body(pend)

    def qualify(self, simple: str, enclosing: str | None) -> str:
        if enclosing:
            return f"{enclosing}.{simple}"
        return f"{self.package}.{simple}" if self.package else simple

    def parse_type_decl(self, first: Token, enclosing: str | None) -> None:
        """Read the type declaration whose keyword is at the cursor and whose modifiers start at `first`."""
        tok = self.next()
        if tok.text == "enum":
            raise SubsetViolation(self.src.path, tok.line, "enum declarations are outside the subset")
        simple = self.next().text
        fqn = self.qualify(simple, enclosing)
        if self.at("<"):
            self.skip_type_args()
        supertypes: list[str] = []
        for keyword in ("extends", "implements"):  # an interface extends a list
            if self.at(keyword):
                supertypes += self.parse_type_list()
        brace = self.expect("{")
        decl_node = self.make_node("class_decl", first, brace)
        cls = ClassDecl(
            name=fqn,
            simple_name=simple,
            supertypes=supertypes,
            decl_statement=decl_node.id,
            enclosing=enclosing,
            file=self.src.path,
        )
        self.fragment.classes[fqn] = cls
        if enclosing is None:
            self.src.classes.append(decl_node.id)
        self.fragment.globals.append(GlobalDecl(statement=decl_node.id, class_name=fqn))
        while not self.at("}"):
            if self.peek() is None:
                raise SubsetViolation(self.src.path, brace.line, "unterminated class body")
            self.parse_member(cls)
        self.expect("}")

    def parse_member(self, cls: ClassDecl | None) -> None:
        """Read the member of `cls` at the cursor, or at file level (`cls` None) a type declaration."""
        if self.at(";"):
            self.next()
            return
        first = self.peek()
        self.pos = _modifiers_end(self.tokens, self.closers, self.pos, self.end)
        if self.at("@") and (n := self.peek(1)) is not None and n.text == "interface":
            self.next()  # an annotation type is read as an interface
        if self.at("<"):  # a generic method's or constructor's type parameters
            self.skip_type_args()
        tok = self.peek()
        if tok is not None and tok.text in ("class", "interface", "enum"):
            self.parse_type_decl(first, cls.name if cls else None)
            return
        if cls is None:
            raise SubsetViolation(self.src.path, tok.line if tok else self.eof_line, "expected a type declaration")
        if tok is None:
            return
        if tok.text == "{":  # static or instance initializer: outside the subset's flow model
            self.diag.add("warning", "frontend", "initializer block skipped", self.src.path, tok.line)
            self.skip_balanced("{")
            return
        # Constructor: name matches the class and is directly followed by '('.
        if tok.kind == "ident" and tok.text == cls.simple_name and (n := self.peek(1)) is not None and n.text == "(":
            self.parse_callable(cls, first)
            return
        type_name = self.parse_type()
        name_tok = self.peek()
        if name_tok is None or name_tok.kind != "ident":
            raise SubsetViolation(self.src.path, tok.line, "expected a member name")
        if (n := self.peek(1)) is not None and n.text == "(":
            self.parse_callable(cls, first)
        else:
            self.parse_field(cls, first, type_name)

    def parse_field(self, cls: ClassDecl, first: Token, type_name: str) -> None:
        semi = self.semicolon()
        declarators, bad = _declarators(self.tokens, self.closers, self.pos, semi, type_name)
        if bad is not None:  # without a `;`, the class's `}` is one...
            raise SubsetViolation(self.src.path, self.tokens[bad].line, "unexpected token in field declaration")
        if semi == self.end:  # ...unless the last initializer runs into it
            raise SubsetViolation(self.src.path, first.line, "unterminated initializer")
        self.pos = semi
        last = self.next()
        node = self.make_node("global_def", first, last, defs={d[0] for d in declarators})
        decls = []
        for decl_name, declared_type, start, end in declarators:
            g = GlobalDecl(statement=node.id, variable=decl_name, class_name=cls.name, declared_type=declared_type)
            self.fragment.globals.append(g)
            decls.append((g, start, end))
        self.pending_fields.append((node, cls, decls))

    def field_names_for(self, cls: ClassDecl) -> dict[str, str]:
        """Field name -> declared type over the enclosing class chain, from
        this file's own fields.  Computed once per class, after the whole
        file is read, and shared read-only by its initializers and bodies."""
        names = self.field_scopes.get(cls.name)
        if names is not None:
            return names
        names = self.field_scopes[cls.name] = {}
        cur: ClassDecl | None = cls
        while cur is not None:
            for g in self.fragment.globals:
                if g.class_name == cur.name and g.variable:
                    names.setdefault(g.variable, g.declared_type)
            cur = self.fragment.classes.get(cur.enclosing) if cur.enclosing else None
        return names

    def parse_callable(self, cls: ClassDecl, first: Token) -> None:
        """Read the method or constructor whose name is at the cursor."""
        name = self.next().text
        start = self.pos + 1
        close = self.skip_balanced("(")
        params: list[str] = []
        param_types: list[str] = []
        end = self.pos - 1  # the list's ')'
        while start < end:  # modifiers, a type, then one declarator without an initializer
            type_start = _modifiers_end(self.tokens, self.closers, start, end)
            i, type_name = _read_type(self.tokens, self.closers, type_start, end) or (type_start, "")
            stop = _part_end(self.tokens, self.closers, i, end)
            decls, bad = _declarators(self.tokens, self.closers, i, stop, type_name)
            if bad is not None or decls[0][2] <= decls[0][3]:
                raise SubsetViolation(self.src.path, self.tokens[start].line, "malformed parameter")
            params.append(decls[0][0])
            param_types.append(decls[0][1])
            start = stop + 1
        if self.at("throws"):
            self.parse_type_list()
        if self.at("default"):  # an annotation element's default value
            self.pos = self.semicolon()
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
            params=params,
            sig_line=first.line,
            file=self.src.path,
        )
        func.var_types = dict(zip(params, param_types))
        entry = self.make_node("entry", first, close, fid, set(params), synthetic=True)
        func.entry = entry.id
        self.fragment.functions[fid] = func
        cls.methods.append(fid)
        if self.at(";"):  # abstract/interface method
            self.next()
            func.is_abstract = True
            exit_node = self.make_node("exit", close, close, fid, synthetic=True)
            func.exit = exit_node.id
            return
        start = self.pos + 1
        body_close = self.skip_balanced("{")
        exit_node = self.make_node("exit", body_close, body_close, fid, synthetic=True)
        func.exit = exit_node.id
        self.pending.append(_PendingBody(func, cls, start, self.pos - 1))

    # ------------------------------------------------------------ method body

    def parse_body(self, pend: _PendingBody) -> None:
        body = _BodyParser(self, pend.function, self.field_names_for(pend.cls))
        self.fragment.bodies[pend.function.id] = body.parse_statements(pend.start, pend.end)

    # ------------------------------------------------------------------ types

    def parse_type_list(self) -> list[str]:
        """Read the keyword at the cursor and the types its commas separate."""
        self.next()
        types = [self.parse_type()]
        while self.at(","):
            self.next()
            types.append(self.parse_type())
        return types

    def parse_type(self) -> str:
        start = self.pos
        read = _read_type(self.tokens, self.closers, start, self.end)
        if read is None:
            tok = self.peek()
            if tok is None:
                raise SubsetViolation(self.src.path, self.eof_line, "expected a type")
            raise SubsetViolation(self.src.path, tok.line, f"expected a type, found '{tok.text}'")
        self.pos, name = read
        if self.pos > self.end:  # type arguments that never close
            raise self.unclosed_type_args(start)
        return name


class _BodyParser(_Cursor):
    """Parses one method body, in place in its file's tokens, into statement
    nodes and shapes.  The function's `var_types` is the scope: parameters
    and the locals declared so far."""

    def __init__(self, fp: _FileParser, func: FunctionDecl, fields: dict[str, str]):
        super().__init__(fp.src.path, fp.tokens, fp.closers, 0, func.sig_line, " in method body")
        self.fp = fp
        self.func = func
        self.var_types = func.var_types
        self.fields = fields
        self.depth = 0  # statements enclosing the next one parsed

    def node(self, kind: str, first: Token, last: Token, expr=None, defs=None, allocates="") -> StatementNode:
        """A statement node of this body, with the uses and calls of `expr`;
        `func.body` lists them as made."""
        node = self.fp.make_node(kind, first, last, self.func.id, defs, expr, allocates)
        self.func.body.append(node.id)
        return node

    def extract(self, start: int, end: int) -> _Expr:
        """The uses and calls of tokens[start:end]."""
        return _Expr(self, self.var_types, self.fields, self.depth).walk(start, end)

    def parse_statements(self, start: int, end: int) -> list:
        """Parse tokens[start:end] as a statement list; the cursor is left at `end`."""
        outer_end = self.end
        self.pos, self.end = start, end
        stmts = []
        while self.pos < end:
            stmts.append(self.parse_statement())
        self.end = outer_end
        return stmts

    def consume_until_semicolon(self, first: Token) -> tuple[int, int]:
        """Consume up to and including the next top-level ';'; returns the
        range before it.  A missing ';' is reported at `first`, the
        statement's first token."""
        start, semi = self.pos, self.semicolon()
        if semi == self.end:
            raise SubsetViolation(self.path, first.line, "missing ';'")
        self.pos = semi + 1
        return start, semi

    def parenthesized(self) -> tuple[int, int]:
        """Consume a parenthesized group; returns the range inside it."""
        start = self.pos + 1
        self.skip_balanced("(")
        return start, self.pos - 1

    # --------------------------------------------------------------- statements

    def parse_statement(self):
        if self.pos >= self.end:
            raise SubsetViolation(self.path, self.func.sig_line, "unexpected end of body")
        tok = self.tokens[self.pos]
        if self.depth == MAX_NESTING:
            raise SubsetViolation(self.path, tok.line, f"nesting deeper than {MAX_NESTING}")
        self.depth += 1
        # The statement its first token's text starts; else a labeled
        # statement, IDENT ':' <statement>; else a simple one.
        parse = _STATEMENT_PARSERS.get(tok.text)
        if parse is not None:
            stmt = parse(self)
        elif (
            tok.kind == "ident"
            and (n := self.peek(1)) is not None
            and n.text == ":"
            and ((m := self.peek(2)) is None or m.text != ":")
        ):
            stmt = self.parse_labeled()
        else:
            stmt = self.parse_simple()
        self.depth -= 1
        return stmt

    def parse_empty(self) -> syn.Block:
        self.next()
        return syn.Block([])

    def parse_nested_block(self) -> syn.Block:
        start = self.pos + 1
        self.skip_balanced("{")
        after = self.pos
        stmts = self.parse_statements(start, after - 1)
        self.pos = after
        return syn.Block(stmts)

    def parse_if(self) -> syn.If:
        first = self.expect("if")
        cond = self.extract(*self.parenthesized())
        last = self.tokens[self.pos - 1]
        node = self.node("condition", first, last, cond)
        then = [self.parse_statement()]
        orelse = []
        if self.at("else"):
            self.next()
            orelse = [self.parse_statement()]
        return syn.If(node.id, then, orelse)

    def parse_while(self) -> syn.While:
        first = self.expect("while")
        cond = self.extract(*self.parenthesized())
        last = self.tokens[self.pos - 1]
        node = self.node("loop_header", first, last, cond)
        body = [self.parse_statement()]
        return syn.While(node.id, body)

    def parse_do_while(self) -> syn.DoWhile:
        self.expect("do")
        body = [self.parse_statement()]
        first = self.expect("while")
        cond = self.parenthesized()
        semi = self.expect(";")
        node = self.node("loop_header", first, semi, self.extract(*cond))
        return syn.DoWhile(node.id, body)

    def parse_for(self):
        first = self.expect("for")
        start, end = self.parenthesized()
        close = self.tokens[self.pos - 1]
        # A top-level ':' after a variable makes a for-each header only where
        # no top-level ';' makes a classic one: `i = c ? 1 : 2;` is a classic init.
        semi = _top_index(self.tokens, self.closers, start, end, (";",))
        colon = _top_index(self.tokens, self.closers, start, end, (":",))
        if semi == end and start < colon < end:
            return self.parse_for_each(first, start, end, close, colon)
        semi2 = _top_index(self.tokens, self.closers, semi + 1, end, (";",))
        if semi2 == end or _top_index(self.tokens, self.closers, semi2 + 1, end, (";",)) < end:
            raise SubsetViolation(self.path, first.line, "malformed for header")
        init_id = cond_id = update_id = None
        if semi > start:
            init_id = self.simple_from_tokens(start, semi, first, close).node
        if semi2 > semi + 1:
            cond = self.extract(semi + 1, semi2)
            cond_id = self.node("loop_header", first, close, cond).id
        if end > semi2 + 1:
            update_id = self.simple_from_tokens(semi2 + 1, end, first, close).node
        body = [self.parse_statement()]
        return syn.For(init_id, cond_id, update_id, body)

    def parse_for_each(self, first: Token, start: int, end: int, close: Token, colon: int):
        decls = self.declaration(start, colon)
        if decls is None or len(decls) != 1:
            raise SubsetViolation(self.path, first.line, "malformed for header")
        var, type_name, _, _ = decls[0]
        self.var_types[var] = type_name
        iterable = self.extract(colon + 1, end)
        head = self.node("loop_header", first, close, iterable)
        # The update has no calls of its own, so all its uses are outside.
        assign = _Expr(self, self.var_types, self.fields)
        assign.outside = iterable.uses
        update = self.node("assignment", first, close, assign, {var})
        body = [self.parse_statement()]
        return syn.ForEach(head.id, update.id, body)

    def parse_switch(self) -> syn.Switch:
        first = self.expect("switch")
        sel = self.extract(*self.parenthesized())
        last = self.tokens[self.pos - 1]
        node = self.node("condition", first, last, sel)
        self.expect("{")
        cases: list[tuple[bool, list]] = []
        current: list | None = None
        while not self.at("}"):
            tok = self.peek()
            if tok is None:
                raise SubsetViolation(self.path, first.line, "unterminated switch")
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
                    raise SubsetViolation(self.path, tok.line, "statement before first case label")
                current.append(self.parse_statement())
        self.expect("}")
        return syn.Switch(node.id, cases)

    def parse_try(self) -> syn.Try:
        self.expect("try")
        body = self.parse_nested_block().stmts
        catches = []
        while self.at("catch"):
            self.next()
            start, end = self.parenthesized()
            # A multi-catch parameter takes the type of its last alternative.
            while (bar := _top_index(self.tokens, self.closers, start, end, ("|",))) < end:
                start = bar + 1
            for name, type_name, _, _ in self.declaration(start, end) or ():
                self.var_types[name] = type_name
            catches.append(self.parse_nested_block().stmts)
        finally_ = []
        if self.at("finally"):
            self.next()
            finally_ = self.parse_nested_block().stmts
        return syn.Try(body, catches, finally_)

    def parse_return(self) -> syn.Return:
        first = self.expect("return")
        start, end = self.consume_until_semicolon(first)
        defs = {RETURN_VAR} if end > start else set()
        node = self.node("return", first, self.tokens[end], self.extract(start, end), defs)
        return syn.Return(node.id)

    def parse_throw(self) -> syn.Jump:
        first = self.next()
        start, semi = self.consume_until_semicolon(first)
        node = self.node("jump", first, self.tokens[semi], self.extract(start, semi))
        return syn.Jump(node.id, "throw")

    def parse_jump(self) -> syn.Jump:
        first = self.next()
        label = ""
        if (tok := self.peek()) is not None and tok.kind == "ident":
            label = self.next().text
        last = self.expect(";")
        node = self.node("jump", first, last)
        return syn.Jump(node.id, first.text, label)

    def parse_labeled(self) -> syn.Labeled:
        name_tok = self.next()
        colon = self.expect(":")
        node = self.node("label", name_tok, colon)
        inner = self.parse_statement()
        return syn.Labeled(name_tok.text, node.id, inner)

    def parse_simple(self) -> syn.Simple:
        first = self.tokens[self.pos]
        start, end = self.consume_until_semicolon(first)
        return self.simple_from_tokens(start, end, first, self.tokens[end])

    def declaration(self, start: int, end: int) -> list | None:
        """The declarators of the declaration `modifiers Type declarators`
        that tokens[start:end] are, as `_declarators` reads them; None when
        they are not one.  A type whose type arguments do not close before
        `end` is an error: no statement expression starts with one."""
        i = _modifiers_end(self.tokens, self.closers, start, end)
        read = _read_type(self.tokens, self.closers, i, end)
        if read is None:
            return None
        if read[0] > end:
            raise self.unclosed_type_args(i)
        decls, bad = _declarators(self.tokens, self.closers, read[0], end, read[1])
        return decls if bad is None else None

    def simple_from_tokens(self, start: int, end: int, first: Token, last: Token) -> syn.Simple:
        """Lower the declaration in tokens[start:end], or the assignment,
        step and call expressions its commas separate (one but in a for
        header), to one node with the defs, uses and calls of them all."""
        toks = self.tokens
        expr = _Expr(self, self.var_types, self.fields, self.depth)
        decls = self.declaration(start, end)
        if decls is not None:
            # Each name is in scope from its own initializer on (JLS 6.3).
            for name, type_name, init_start, init_end in decls:
                self.var_types[name] = type_name
                expr.walk(init_start, init_end)
            kind = "call" if expr.calls else "declaration"
            allocates = _allocated_class(toks, self.closers, init_start, init_end) if len(decls) == 1 else ""
            node = self.node(kind, first, last, expr, {d[0] for d in decls}, allocates)
            node.code = self.fp.src.text[toks[start].start : toks[end - 1].end]
            return syn.Simple(node.id)
        stop = _part_end(toks, self.closers, start, end)
        defs, allocates = self.lower_expression(start, stop, expr)
        while stop < end:  # the next expression of a for header's list
            start = stop + 1
            stop = _part_end(toks, self.closers, start, end)
            defs |= self.lower_expression(start, stop, expr)[0]
            allocates = ""
        node = self.node("call" if expr.calls else "assignment", first, last, expr, defs, allocates)
        return syn.Simple(node.id)

    def lower_expression(self, start: int, end: int, expr: _Expr) -> tuple[set[str], str]:
        """Walk the assignment, step or call expression tokens[start:end]
        into `expr`; returns the names it defines and the class it allocates."""
        toks, closers = self.tokens, self.closers
        eq = _top_index(toks, closers, start, end, _ASSIGN_OPS)
        if eq < end:
            target = _dotted_name(toks, start, eq)
            defs = {target} if target else set()
            expr.walk(eq + 1, end)
            if toks[eq].text != "=":  # compound assignment reads the target
                expr.outside |= defs
            # The left side reads its subscripts and what holds its target:
            # the `a` of `a.f = x`, the `new T()` of `new T().f = x`.
            sub = _top_index(toks, closers, start, eq, ("[",))
            named = sub - start > 2 and toks[sub - 2].text == "." and toks[sub - 1].kind == "ident"
            expr.walk(start, sub - 2 if named else start).walk(sub, eq)
            return defs, _allocated_class(toks, closers, eq + 1, end) if toks[eq].text == "=" else ""
        if end > start and (toks[end - 1].text in _STEP_OPS or toks[start].text in _STEP_OPS):
            start += toks[start].text in _STEP_OPS  # the operand of a prefix or postfix step
            end -= toks[end - 1].text in _STEP_OPS
            target = _dotted_name(toks, start, end)
            defs = {target} if target else set()
            expr.walk(start, end).outside |= defs
            return defs, ""
        expr.walk(start, end)
        return set(), ""


# Each statement that its first token's text starts, and its reader.
_STATEMENT_PARSERS = {
    ";": _BodyParser.parse_empty,
    "{": _BodyParser.parse_nested_block,
    "if": _BodyParser.parse_if,
    "while": _BodyParser.parse_while,
    "do": _BodyParser.parse_do_while,
    "for": _BodyParser.parse_for,
    "switch": _BodyParser.parse_switch,
    "try": _BodyParser.parse_try,
    "return": _BodyParser.parse_return,
    "break": _BodyParser.parse_jump,
    "continue": _BodyParser.parse_jump,
    "throw": _BodyParser.parse_throw,
}

# ---------------------------------------------------------------- token utils


def _top_index(tokens: list[Token], closers: list[int], start: int, end: int, texts: tuple[str, ...]) -> int:
    """Index of the first token of tokens[start:end] outside the groups that
    open there whose text is one of `texts`; `end` when there is none before
    `end` or the closer of a group that opened before `start`."""
    i = start
    while i < end:
        text = tokens[i].text
        if text in texts:
            return i
        if text in _OPENER_OF:
            break
        i = closers[i] + 1
    return end


def _part_end(tokens: list[Token], closers: list[int], start: int, end: int) -> int:
    """Index of the first comma of tokens[start:end] outside brackets and
    outside the type arguments of a `new`; `end` when there is none before
    `end` or the closer of a group that opened before `start`."""
    i = start
    while i < end:
        text = tokens[i].text
        if text == ",":
            return i
        if text in _OPENER_OF:
            break
        i = _new_type(tokens, closers, i, end)[0] if text == "new" else closers[i] + 1
    return end


# '==' is lexed as one token, so a bare '=' among these is an assignment.
_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=")
_STEP_OPS = ("++", "--")
# How each token changes the depth of nested type arguments.
_ANGLE_DEPTH = {"<": 1, ">": -1, ">>": -2, ">>>": -3}
_NOT_IN_TYPE_ARGS = frozenset((";", "{", *_OPENER_OF))


def _chained_call(tokens: list[Token], j: int, end: int) -> bool:
    """Whether tokens[j:end] open with a call on the value before them,
    `.m(`."""
    return j + 2 < end and tokens[j].text == "." and tokens[j + 1].kind == "ident" and tokens[j + 2].text == "("


def _type_args_close(tokens: list[Token], closers: list[int], i: int, end: int) -> int:
    """Index of the token that closes the type arguments opening at
    tokens[i] == '<', where `>>` and `>>>` close two and three levels; `end`
    when none does before `end`, a `;`, a `{` or the closer of the group
    they are in, none of which type arguments hold."""
    depth = 0
    while i < end:
        text = tokens[i].text
        if text in _NOT_IN_TYPE_ARGS:
            break
        depth += _ANGLE_DEPTH.get(text, 0)
        if depth <= 0:
            return i
        i = closers[i] + 1
    return end


def _dotted_name(tokens: list[Token], i: int, end: int) -> str | None:
    """The dotted target name that tokens[i:end] assign; a subscript and
    what follows it are dropped."""
    parts: list[str] = []
    while i < end:
        t = tokens[i]
        if t.kind == "ident" or t.text == "this":
            parts.append(t.text)
        elif t.text == "[":
            break
        elif t.text != ".":
            return None
        i += 1
    return ".".join(parts) if parts else None


def _modifiers_end(tokens: list[Token], closers: list[int], i: int, end: int) -> int:
    """Index after the annotations (`@A`, `@a.b.C`, `@A(...)`) and modifiers
    that tokens[i:end] open with, in any order."""
    while i < end:
        if tokens[i].text in MODIFIERS:
            i += 1
        elif tokens[i].text == "@" and i + 1 < end and tokens[i + 1].kind == "ident":
            i += 2
            while i + 1 < end and tokens[i].text == "." and tokens[i + 1].kind == "ident":
                i += 2
            if i < end and tokens[i].text == "(":
                i = closers[i] + 1
        else:
            break
    return i


def _new_type(tokens: list[Token], closers: list[int], i: int, end: int) -> tuple[int, str]:
    """Read the class of the `new` at tokens[i]: a dotted name, then its type
    arguments.  Returns the index after them, past `end` when the type
    arguments do not close, and the name as written ('' when there is none)."""
    parts = []
    i += 1
    while i < end and (tokens[i].kind == "ident" or tokens[i].text == "."):
        if tokens[i].kind == "ident":
            parts.append(tokens[i].text)
        i += 1
    if i < end and tokens[i].text == "<":
        i = _type_args_close(tokens, closers, i, end) + 1
    return i, ".".join(parts)


def _read_type(tokens: list[Token], closers: list[int], i: int, end: int) -> tuple[int, str] | None:
    """Read the type at tokens[i:end]: a primitive or a dotted name, its type
    arguments, then `[]` pairs and a varargs `...` (one more pair).  Returns
    the index after it, past `end` when the type arguments do not close, and
    its simple name with one `[]` per dimension; None when no type starts."""
    if i >= end:
        return None
    t = tokens[i]
    if t.kind != "ident" and not (t.kind == "keyword" and t.text in PRIMITIVES):
        return None
    name = t.text
    i += 1
    while i + 1 < end and tokens[i].text == "." and tokens[i + 1].kind == "ident":
        name = tokens[i + 1].text  # keep the simple name of a dotted type
        i += 2
    if i < end and tokens[i].text == "<":
        i = _type_args_close(tokens, closers, i, end) + 1
    while i + 1 < end and tokens[i].text == "[" and tokens[i + 1].text == "]":
        name += "[]"
        i += 2
    if i < end and tokens[i].text == "...":
        name += "[]"
        i += 1
    return i, name


def _declarators(
    tokens: list[Token], closers: list[int], i: int, end: int, type_name: str
) -> tuple[list, int | None]:
    """Read the declarators `name ([])* [= init]` that tokens[i:end] list.
    Returns each one's (name, type with its own `[]`s, initializer range),
    the range starting past its end when there is no `=`; and the index of
    the first token that fits no declarator, or None when all of them fit."""
    decls = []
    while True:
        if i >= end or tokens[i].kind != "ident":
            return decls, i
        j, dims = i + 1, ""
        while j + 1 < end and tokens[j].text == "[" and tokens[j + 1].text == "]":
            j, dims = j + 2, dims + "[]"
        stop = _part_end(tokens, closers, j + 1, end) if j < end and tokens[j].text == "=" else j
        if stop < end and tokens[stop].text != ",":
            return decls, stop
        decls.append((tokens[i].text, type_name + dims, j + 1, stop))
        if stop == end:
            return decls, None
        i = stop + 1


def _allocated_class(tokens: list[Token], closers: list[int], start: int, end: int) -> str:
    """The class `T` as written when tokens[start:end] are one `new T(...)`
    and nothing else, with any type arguments dropped; '' otherwise."""
    if start >= end or tokens[start].text != "new":
        return ""
    paren, written = _new_type(tokens, closers, start, end)
    return written if paren < end and tokens[paren].text == "(" and closers[paren] == end - 1 else ""


# --------------------------------------------------------- def/use extraction


class _Expr:
    """The uses and calls of one statement, walked in place over index
    ranges of the token list of `cursor`'s file, by its bracket pairs.

    Uses contain only names of declared variables, looked up in `var_types`
    first and in `fields` (of the enclosing class chain) second, so a local
    shadows a field; the base of a dotted access contributes the use.
    Callee names never count as uses, type names and class literals are
    skipped, and `this.x` chains use the dotted name.  Each open argument
    list collects one use set per argument, its `arg_vars`, and merges it
    into the enclosing list, or into `inside` at the top; `outside` holds
    the uses made outside every argument list.  The calls inside a call's
    arguments come before that call.  `depth` counts the statements
    enclosing the expression; with the open argument lists it may not pass
    MAX_NESTING.
    """

    def __init__(self, cursor: _Cursor, var_types: dict[str, str], fields: dict[str, str], depth: int = 0):
        self.path = cursor.path
        self.toks = cursor.tokens
        self.closers = cursor.closers
        self.var_types = var_types
        self.fields = fields
        self.depth = depth
        self.level = 0  # argument lists open at the walk's position
        self.outside: set[str] = set()
        self.inside: set[str] = set()
        self.calls: list[CallSite] = []

    @property
    def uses(self) -> set[str]:
        return self.outside | self.inside

    def walk(self, start: int, end: int) -> _Expr:
        """Add the uses and calls of tokens[start:end]."""
        self._walk(start, end, self.outside)
        return self

    def type_of(self, name: str) -> str | None:
        """The declared type of a known variable; None for any other name."""
        declared = self.var_types.get(name)
        return self.fields.get(name) if declared is None else declared

    def _walk(self, i: int, end: int, uses: set[str]) -> None:
        toks = self.toks
        while i < end:
            t = toks[i]
            text = t.text
            if t.kind == "ident" or text == "this":
                i = self._chain(i, end, uses)
            elif text == "new":
                i = self._new(i, end, uses)
            elif text == "(" and self._is_cast(i, end):
                i = self.closers[i] + 1  # skip the cast type
            elif text == "->" or text == "::":
                raise SubsetViolation(self.path, t.line, "lambdas and method references are outside the subset")
            else:
                i += 1

    def _new(self, i: int, end: int, uses: set[str]) -> int:
        toks = self.toks
        j, written = _new_type(toks, self.closers, i, end)
        if j < end and toks[j].text == "(":
            arg_vars, close = self._arguments(j, uses)
            self.calls.append(
                CallSite(
                    chain=f"new {written}",
                    name=written.rpartition(".")[2] or "?",
                    arity=len(arg_vars),
                    arg_vars=arg_vars,
                    is_constructor=True,
                )
            )
            j = close + 1
            if written and _chained_call(toks, j, end):
                # `new T(...).m(...)`: the receiver, unnamed, is exactly a `T`.
                name = toks[j + 1].text
                return self._chained(f"new {written}().{name}", name, None, written, j + 2, end, uses)
            return j
        return j  # array creation: dimensions walk as ordinary tokens

    def _chain(self, i: int, end: int, uses: set[str]) -> int:
        toks = self.toks
        segs = [toks[i].text]
        j = i + 1
        while j + 1 < end and toks[j].text == "." and (
            toks[j + 1].kind == "ident" or toks[j + 1].text in ("class", "this")
        ):
            if toks[j + 1].text == "class":  # class literal: no variable involved
                if not (j + 3 < end and toks[j + 2].text == "." and toks[j + 3].kind == "ident"):
                    return j + 2
                segs[-1] += ".class"  # `T.class` stays the base of a chain on it
                j += 2
                continue
            segs.append(toks[j + 1].text)
            j += 2
            if j < end and toks[j].text == "(":
                break
        if j < end and toks[j].text == "(":
            return self._call(segs, j, end, uses)
        if segs[0] == "this":
            if len(segs) > 1:
                uses.add(f"this.{segs[1]}")
        elif self.type_of(segs[0]) is not None:
            uses.add(segs[0])
        # Unknown bases (class names, external statics) contribute nothing.
        return j

    def _call(self, segs: list[str], paren: int, end: int, uses: set[str]) -> int:
        """Record the call `segs(...)` and those chained on its result,
        `a.b(x).c(y)`; returns the index after the last one."""
        receiver = receiver_type = None
        if len(segs) > 1:
            receiver_type = self.type_of(segs[0])
            if receiver_type is not None:
                receiver = segs[0]
                uses.add(receiver)
            elif segs[0] == "this":
                receiver = "this"
                if len(segs) > 2:  # this.field.m() uses this.field
                    uses.add(f"this.{segs[1]}")
        return self._chained(".".join(segs), segs[-1], receiver, receiver_type, paren, end, uses)

    def _chained(
        self, chain: str, name: str, receiver: str | None, receiver_type: str | None, paren: int, end: int, uses: set[str]
    ) -> int:
        """Record the call `chain(...)` whose argument list opens at
        toks[paren], and those chained on its result, whose receiver is
        unknown; returns the index after the last one."""
        toks = self.toks
        while True:
            arg_vars, close = self._arguments(paren, uses)
            site = CallSite(chain, name, len(arg_vars), receiver, receiver_type, arg_vars)
            self.calls.append(site)
            j = close + 1
            if not _chained_call(toks, j, end):
                return j
            name = toks[j + 1].text
            chain = f"{chain}().{name}"
            receiver = receiver_type = None
            paren = j + 2

    def _arguments(self, paren: int, uses: set[str]) -> tuple[list[set[str]], int]:
        """Walk the argument list opening at toks[paren], split as declarators
        are (`_part_end`); returns each argument's uses and the index of the
        `)` that closes the list."""
        toks = self.toks
        close = self.closers[paren]
        bounds = []
        start = paren + 1
        while start < close:  # a comma ends an argument, even an empty one
            stop = _part_end(toks, self.closers, start, close)
            bounds.append((start, stop))
            start = stop + 1
        if bounds and self.depth + self.level == MAX_NESTING:
            raise SubsetViolation(self.path, toks[paren].line, f"nesting deeper than {MAX_NESTING}")
        parent = uses if self.level else self.inside
        self.level += 1
        arg_vars = []
        for a, b in bounds:
            arg: set[str] = set()
            self._walk(a, b, arg)
            parent |= arg
            arg_vars.append(arg)
        self.level -= 1
        return arg_vars, close

    def _is_cast(self, i: int, end: int) -> bool:
        toks = self.toks
        if i + 2 >= end:
            return False
        j = i + 1
        if toks[j].kind == "keyword" and toks[j].text in PRIMITIVES:
            j += 1
        elif toks[j].kind == "ident" and self.type_of(toks[j].text) is None:
            j += 1
            while j + 1 < end and toks[j].text == "." and toks[j + 1].kind == "ident":
                j += 2
        else:
            return False
        while j + 1 < end and toks[j].text == "[" and toks[j + 1].text == "]":
            j += 2
        if j + 1 >= end or toks[j].text != ")":
            return False
        nxt = toks[j + 1]
        return nxt.kind in ("ident", "string", "char", "number") or nxt.text in ("this", "new", "(")


# ------------------------------------------------------------------ repo walk


def parse_source(path: str, text: str, model: RepoModel, diagnostics: DiagnosticSink) -> bool:
    """Parse one file into the model; returns False when the file is skipped.

    The file is parsed into a fragment and a diagnostic sink of its own, and
    both are merged only on success: a skipped file leaves nothing but its
    error behind.  A file that declares a class an earlier file declared,
    by its fully qualified name, is skipped too.
    """
    source = SourceFile(path=path, text=text)
    fragment = RepoModel(root=model.root)
    local = DiagnosticSink()
    try:
        _FileParser(source, fragment, local).parse_file()
    except SubsetViolation as exc:
        diagnostics.add("error", "frontend", f"subset violation: {exc.message}", exc.path, exc.line)
        return False
    except Exception as exc:  # a parser bug skips the file; it never aborts the scan
        diagnostics.add("error", "frontend", f"internal error: {type(exc).__name__}", path)
        return False
    for name, cls in fragment.classes.items():
        first = model.classes.get(name)
        if first is not None:
            line = fragment.statements[cls.decl_statement].start_line
            diagnostics.add("error", "frontend", f"duplicate class {name}: first declared in {first.file}", path, line)
            return False
    model.merge(fragment, source)
    diagnostics.extend(local)
    return True


def parse_repository(root: str, diagnostics: DiagnosticSink) -> RepoModel:
    """Parse every Java source file under `root` into a RepoModel.

    Files violating the subset, unreadable files and files that are not valid
    UTF-8 are reported and skipped; the remaining files still produce a
    usable model.
    """
    if not os.path.isdir(root):
        raise IOError(f"repository root does not exist: {root}")
    model = RepoModel(root=root)
    paths: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(SOURCE_EXTENSION):
                paths.append(os.path.relpath(os.path.join(dirpath, fn), root))
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
