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

import os
from dataclasses import dataclass

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


SOURCE_EXTENSION = ".java"


@dataclass
class _PendingBody:
    function: FunctionDecl
    cls: ClassDecl
    start: int  # index of the body's first token, after its '{'
    end: int  # index of the body's closing '}'


class _Cursor:
    """A read position in a file's tokens that stops at `end`.

    At `end`, peek() returns None and next() reports a truncated construct
    at `eof_line`; `expect` reports a missing token at the same line and
    names what was being parsed with `where`.
    """

    def __init__(self, path: str, tokens: list[Token], end: int, eof_line: int, where: str = ""):
        self.path = path
        self.tokens = tokens
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

    def skip_balanced(self, open_t: str, close_t: str) -> Token:
        """Consume a group from `open_t` to its matching `close_t`; returns the close."""
        self.expect(open_t)
        depth = 1
        while depth > 0:
            tok = self.next()
            if tok.text == open_t:
                depth += 1
            elif tok.text == close_t:
                depth -= 1
        return tok

    def skip_type_args(self) -> None:
        """Consume the type arguments `<...>` at the cursor."""
        self.pos = _type_args_close(self.tokens, self.pos, self.end)
        self.next()


class _FileParser(_Cursor):
    """Parses one file into `fragment`, a model that holds only this file."""

    def __init__(self, source: SourceFile, fragment: RepoModel, diagnostics: DiagnosticSink):
        tokens = tokenize(source.text, source.path)
        super().__init__(source.path, tokens, len(tokens), tokens[-1].line if tokens else 1)
        self.src = source
        self.fragment = fragment
        self.diag = diagnostics
        source.trivia = [True] * len(source.lines)
        for tok in self.tokens:
            if tok.text not in TRIVIA_PUNCT:
                source.trivia[tok.line - 1] = False
        self.counter = 0
        self.pending: list[_PendingBody] = []
        self.pending_fields: list[tuple] = []  # (node, cls, [(GlobalDecl, init tokens)])
        self.package = ""

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
                decl.rhs_uses, calls = extract_expression(init, {}, self.src.path, field_names=fields)
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
            self.skip_type_args()
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
        self.expect("}")

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
        start = self.pos + 1
        body_close = self.skip_balanced("{", "}")
        exit_node = self.make_node("exit", body_close, body_close, owner=fid, synthetic=True)
        func.exit = exit_node.id
        self.pending.append(_PendingBody(func, cls, start, self.pos - 1))

    # ------------------------------------------------------------ method body

    def parse_body(self, pend: _PendingBody) -> None:
        body = _BodyParser(self, pend.function, self.field_names_for(pend.cls))
        self.fragment.bodies[pend.function.id] = body.parse_statements(pend.start, pend.end)

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
            self.skip_type_args()
        while self.at("[") and (n := self.peek(1)) is not None and n.text == "]":
            self.next()
            self.next()
            base += "[]"
        return base


class _BodyParser(_Cursor):
    """Parses one method body, in place in its file's tokens, into statement
    nodes and shapes.  The function's `var_types` is the scope: parameters
    and the locals declared so far."""

    def __init__(self, fp: _FileParser, func: FunctionDecl, fields: dict[str, str]):
        super().__init__(fp.src.path, fp.tokens, 0, func.sig_line, " in method body")
        self.fp = fp
        self.func = func
        self.var_types = func.var_types
        self.fields = fields
        self.depth = 0  # statements enclosing the next one parsed

    def node(self, kind: str, first: Token, last: Token, **kw) -> StatementNode:
        """A statement node of this body; `func.body` lists them as made."""
        node = self.fp.make_node(kind, first, last, owner=self.func.id, **kw)
        self.func.body.append(node.id)
        return node

    def extract(self, tokens: list[Token]) -> tuple[set[str], list[CallSite]]:
        return extract_expression(
            tokens, self.var_types, self.path, field_names=self.fields, depth=self.depth
        )

    def parse_statements(self, start: int, end: int) -> list:
        """Parse tokens[start:end] as a statement list; the cursor is left at `end`."""
        outer_end = self.end
        self.pos, self.end = start, end
        stmts = []
        while self.peek() is not None:
            stmts.append(self.parse_statement())
        self.end = outer_end
        return stmts

    def consume_until_semicolon(self) -> list[Token]:
        start = self.pos
        for i, tok in _top_level(self.tokens, start, self.end):
            if tok.text == ";":
                self.pos = i
                return self.tokens[start:i]
        raise SubsetViolation(self.path, self.func.sig_line, "missing ';'")

    def parenthesized(self) -> list[Token]:
        """Consume a parenthesized group and return the tokens inside it."""
        start = self.pos + 1
        self.skip_balanced("(", ")")
        return self.tokens[start : self.pos - 1]

    # --------------------------------------------------------------- statements

    def parse_statement(self):
        tok = self.peek()
        if tok is None:
            raise SubsetViolation(self.path, self.func.sig_line, "unexpected end of body")
        if self.depth == MAX_NESTING:
            raise SubsetViolation(self.path, tok.line, f"nesting deeper than {MAX_NESTING}")
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
            node = self.node("jump", first, last, uses=uses, calls=calls, jump_kind="throw")
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
        start = self.pos + 1
        self.skip_balanced("{", "}")
        after = self.pos
        stmts = self.parse_statements(start, after - 1)
        self.pos = after
        return syn.Block(stmts)

    def parse_if(self) -> syn.If:
        first = self.expect("if")
        cond = self.parenthesized()
        last = self.tokens[self.pos - 1]
        uses, calls = self.extract(cond)
        node = self.node("condition", first, last, uses=uses, calls=calls)
        then = [self.parse_statement()]
        orelse = []
        if self.at("else"):
            self.next()
            orelse = [self.parse_statement()]
        return syn.If(node.id, then, orelse)

    def parse_while(self) -> syn.While:
        first = self.expect("while")
        cond = self.parenthesized()
        last = self.tokens[self.pos - 1]
        uses, calls = self.extract(cond)
        node = self.node("loop_header", first, last, uses=uses, calls=calls)
        body = [self.parse_statement()]
        return syn.While(node.id, body)

    def parse_do_while(self) -> syn.DoWhile:
        self.expect("do")
        body = [self.parse_statement()]
        first = self.expect("while")
        cond = self.parenthesized()
        semi = self.expect(";")
        uses, calls = self.extract(cond)
        node = self.node("loop_header", first, semi, uses=uses, calls=calls)
        return syn.DoWhile(node.id, body)

    def parse_for(self):
        first = self.expect("for")
        header = self.parenthesized()
        close = self.tokens[self.pos - 1]
        # A top-level ':' makes a for-each header only where no top-level
        # ';' makes a classic one: `i = c ? 1 : 2;` is a classic init.
        marks = [i for i, t in _top_level(header) if t.text in (";", ":")]
        semis = [i for i in marks if header[i].text == ";"]
        if marks and not semis:
            return self.parse_for_each(first, header, close, marks[0])
        if len(semis) != 2:
            raise SubsetViolation(self.path, first.line, "malformed for header")
        init_toks = header[: semis[0]]
        cond_toks = header[semis[0] + 1 : semis[1]]
        update_toks = header[semis[1] + 1 :]
        init_id = cond_id = update_id = None
        if init_toks:
            init_id = self.simple_from_tokens(init_toks, first, close).node
        if cond_toks:
            uses, calls = self.extract(cond_toks)
            cond_id = self.node("loop_header", first, close, uses=uses, calls=calls).id
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
        self.var_types[var_tok.text] = type_name
        uses, calls = self.extract(iterable)
        head = self.node("loop_header", first, close, uses=set(uses), calls=calls)
        update = self.node("assignment", first, close, defs={var_tok.text}, uses=set(uses))
        body = [self.parse_statement()]
        return syn.ForEach(head.id, update.id, body)

    def parse_switch(self) -> syn.Switch:
        first = self.expect("switch")
        sel = self.parenthesized()
        last = self.tokens[self.pos - 1]
        uses, calls = self.extract(sel)
        node = self.node("condition", first, last, uses=uses, calls=calls)
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
            group = self.parenthesized()
            if len(group) >= 2:
                self.var_types[group[-1].text] = _type_from_tokens(group[:-1])
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
        node = self.node("return", first, last, defs=defs, uses=uses, calls=calls)
        return syn.Return(node.id)

    def parse_jump(self) -> syn.Jump:
        first = self.next()
        label = ""
        if (tok := self.peek()) is not None and tok.kind == "ident":
            label = self.next().text
        last = self.expect(";")
        node = self.node("jump", first, last, jump_kind=first.text, jump_label=label)
        return syn.Jump(node.id, first.text, label)

    def parse_labeled(self) -> syn.Labeled:
        name_tok = self.next()
        colon = self.expect(":")
        node = self.node("label", name_tok, colon)
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
            self.var_types[name_tok.text] = type_name
            uses, calls = self.extract(init)
            kind = "call" if calls else "declaration"
            node = self.node(kind, first, last, defs={name_tok.text}, uses=uses, calls=calls)
            node.code = self.fp.src.text[expr[0].start : expr[-1].end] if expr else node.code
            return syn.Simple(node.id)
        eq = next((i for i, t in _top_level(expr) if t.text in _ASSIGN_OPS), None)
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
            node = self.node(kind, first, last, defs=defs, uses=uses, calls=calls)
            return syn.Simple(node.id)
        if expr and expr[-1].text in ("++", "--") or (expr and expr[0].text in ("++", "--")):
            core = [t for t in expr if t.text not in ("++", "--")]
            target = _dotted_name(core)
            uses, calls = self.extract(core)
            defs = {target} if target else set()
            uses |= defs
            node = self.node("assignment", first, last, defs=defs, uses=uses, calls=calls)
            return syn.Simple(node.id)
        uses, calls = self.extract(expr)
        kind = "call" if calls else "assignment"
        node = self.node(kind, first, last, uses=uses, calls=calls)
        return syn.Simple(node.id)


# ---------------------------------------------------------------- token utils


def _top_level(tokens: list[Token], start: int = 0, end: int | None = None):
    """Yield (index, token) for each token of tokens[start:end] at depth 0,
    where ( and [ open and ) and ] close a group from `start` on.  A bracket
    counts at the depth before it, so the closer of a group that opened
    before `start` is yielded."""
    depth = 0
    for i in range(start, len(tokens) if end is None else end):
        t = tokens[i]
        if depth == 0:
            yield i, t
        if t.text in "([":
            depth += 1
        elif t.text in ")]":
            depth -= 1


# '==' is lexed as one token, so a bare '=' among these is an assignment.
_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=")
# How each token changes the depth of nested type arguments.
_ANGLE_DEPTH = {"<": 1, ">": -1, ">>": -2, ">>>": -3}


def _type_args_close(tokens: list[Token], i: int, end: int) -> int:
    """Index of the token that closes the type arguments opening at
    tokens[i] == '<', where `>>` and `>>>` close two and three levels; `end`
    when none does before it."""
    depth = 0
    for j in range(i, end):
        depth += _ANGLE_DEPTH.get(tokens[j].text, 0)
        if depth <= 0:
            return j
    return end


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
            i = _type_args_close(tokens, i, len(tokens)) + 1
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
    var_types: dict[str, str],
    path: str,
    field_names: dict[str, str] | None = None,
    depth: int = 0,
) -> tuple[set[str], list[CallSite]]:
    """Syntactic use/call extraction over an expression token stream.

    Uses contain only names resolvable to declared variables (`var_types`,
    then `field_names` of the enclosing class chain); the base of a dotted access
    contributes the use.  Callee names never count as uses, type names and
    class literals are skipped, and `this.x` chains use the dotted name.
    `depth` counts the statements and argument lists enclosing `tokens`.
    """
    known = {**field_names, **var_types} if field_names else var_types
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
            j = _type_args_close(toks, j, len(toks)) + 1
        if j < len(toks) and toks[j].text == "(":
            args, end = _split_args(toks, j, path)
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
        args, end = _split_args(toks, paren, path)
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
            args2, end2 = _split_args(toks, j + 2, path)
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
            u, c = extract_expression(a, known, path, depth=depth + 1)
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


def _split_args(tokens: list[Token], paren: int, path: str) -> tuple[list[list[Token]], int]:
    """Split the argument list starting at tokens[paren] == '('.

    Returns (argument token lists, index of the closing ')').
    """
    assert tokens[paren].text == "("
    args: list[list[Token]] = []
    start = paren + 1
    for i, t in _top_level(tokens, start):
        if t.text == ",":
            args.append(tokens[start:i])
            start = i + 1
        elif t.text in ")]":
            if i > start:
                args.append(tokens[start:i])
            return args, i
    raise SubsetViolation(path, tokens[paren].line, "unbalanced argument list")


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


def parse_repository(root: str, diagnostics: DiagnosticSink | None = None) -> RepoModel:
    """Parse every Java source file under `root` into a RepoModel.

    Files violating the subset, unreadable files and files that are not valid
    UTF-8 are reported and skipped; the remaining files still produce a
    usable model.
    """
    diagnostics = diagnostics if diagnostics is not None else DiagnosticSink()
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
