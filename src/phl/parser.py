"""Recursive-descent parser for the theory description language.

    theory Name {
      sorts s, t;
      functions f : s * t -> s, c : -> t;
      relations r : s * s;
      axioms
        [x : s, y : t] top |- def(f(x, y));
        [x : s] r(x, x) -||- f(x, c()) = x;
      flags one, two;
    }

`#` starts a line comment.  `&` is conjunction, `top` the empty conjunction,
`def(t)` sugar for t = t, and `-||-` a bisequent that unfolds into the two
one-way sequents.  A bare constant name is accepted as shorthand for `c()`.
Every list is one or more items with a separator between each two: `,` in
sections, contexts and argument lists, `*` between argument sorts, `&`
between atoms; a separator is never left dangling.  Contexts and function
argument lists may also be empty.  Each axiom ends in `;`.
Relation symbols must be declared before the axioms that use them.
Diagnostics carry file:line:col positions.
"""

from __future__ import annotations

import re

from .syntax import (
    App,
    Eq,
    ParseError,
    RESERVED,
    RelAtom,
    Sequent,
    Signature,
    Theory,
    TOP,
    ValidationError,
    Var,
    bisequent,
    conj,
    validate_sequent,
    validate_theory,
)

_TOKEN_RE = re.compile(
    r"""[ \t\r]+
      | \#[^\n]*
      | (?P<nl>\n)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>-\|\|-|\|-|->|[{}()\[\],;:*&=])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def tokenize(text: str, filename: str = "<input>") -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", filename, line, col)
        if m.lastgroup == "nl":
            line += 1
            col = 1
        else:
            if m.lastgroup == "ident":
                tokens.append(_Token("ident", m.group(), line, col))
            elif m.lastgroup == "op":
                tokens.append(_Token("op", m.group(), line, col))
            col += m.end() - m.start()
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, filename):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind, value=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, self.filename, tok.line, tok.col)

    def expect(self, kind, value=None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = tok.value if tok.value else tok.kind
            self.fail(f"expected '{want}', found '{got}'")
        return self.next()

    def ident(self, what="identifier") -> _Token:
        tok = self.expect("ident")
        if tok.value in RESERVED:
            self.fail(f"keyword '{tok.value}' cannot be used as {what}", tok)
        return tok

    def items(self, sep, item, *args) -> list:
        """One or more `item(*args)`, with the operator `sep` between each two."""
        out = [item(*args)]
        while self.at("op", sep):
            self.next()
            out.append(item(*args))
        return out

    def names(self, sep, what) -> list:
        return [tok.value for tok in self.items(sep, self.ident, what)]

    # -- theory ------------------------------------------------------------

    def theory(self) -> Theory:
        self.expect("ident", "theory")
        name = self.ident("theory name").value
        self.expect("op", "{")
        sorts, flags, functions, relations, axioms = [], [], {}, {}, []
        while not self.at("op", "}"):
            tok = self.next()
            if tok.value in ("sorts", "flags"):
                what, out = ("sort name", sorts) if tok.value == "sorts" else ("flag", flags)
                out.extend(self.names(",", what))
            elif tok.value in ("functions", "relations"):
                self.items(",", self.declaration, functions, relations, tok.value == "functions")
            elif tok.value == "axioms":
                sig = Signature(tuple(sorts), functions, relations)
                while self.at("op", "["):
                    axioms.extend(self.sequent(sig))
                    self.expect("op", ";")
                continue
            else:
                self.fail(f"expected a section keyword, found '{tok.value or tok.kind}'", tok)
            self.expect("op", ";")
        self.expect("op", "}")
        return Theory(name, Signature(tuple(sorts), functions, relations),
                      tuple(axioms), frozenset(flags))

    def declaration(self, functions, relations, is_function) -> None:
        """`name : s1 * ... * sn`, then `-> s` for a function, whose
        argument sorts may also be none."""
        tok = self.ident("function symbol" if is_function else "relation symbol")
        if tok.value in functions or tok.value in relations:
            self.fail(f"symbol '{tok.value}' declared twice", tok)
        self.expect("op", ":")
        argsorts = () if is_function and self.at("op", "->") else tuple(self.names("*", "sort name"))
        if is_function:
            self.expect("op", "->")
            functions[tok.value] = (argsorts, self.ident("sort name").value)
        else:
            relations[tok.value] = argsorts

    # -- sequents and formulas ----------------------------------------------

    def sequent(self, sig: Signature) -> tuple:
        """One `[ctx] lhs |- rhs` (or bisequent); returns the unfolded sequents."""
        start = self.expect("op", "[")
        env = {}

        def entry():
            v = self.ident("variable")
            if v.value in env:
                self.fail(f"repeated context variable '{v.value}'", v)
            self.expect("op", ":")
            env[v.value] = self.ident("sort name").value

        if not self.at("op", "]"):
            self.items(",", entry)
        self.expect("op", "]")
        ctx = tuple(env.items())
        lhs = self.formula(sig, env)
        tok = self.next()
        if tok.value == "|-":
            out = (Sequent(ctx, lhs, self.formula(sig, env)),)
        elif tok.value == "-||-":
            out = bisequent(ctx, lhs, self.formula(sig, env))
        else:
            self.fail(f"expected '|-' or '-||-', found '{tok.value or tok.kind}'", tok)
        for seq in out:
            try:
                validate_sequent(seq, sig)
            except ValidationError as e:
                raise ParseError(str(e), self.filename, start.line, start.col) from None
        return out

    def formula(self, sig, env):
        return conj(*self.items("&", self.atom, sig, env))

    def atom(self, sig, env):
        tok = self.peek()
        if self.at("ident", "top"):
            self.next()
            return TOP
        if self.at("ident", "def"):
            self.next()
            self.expect("op", "(")
            t = self.term(sig, env)
            self.expect("op", ")")
            return Eq(t, t)
        if tok.kind == "ident" and tok.value in sig.relations:
            rel = self.next().value
            self.expect("op", "(")
            args = self.items(",", self.term, sig, env)
            self.expect("op", ")")
            return RelAtom(rel, tuple(args))
        lhs = self.term(sig, env)
        self.expect("op", "=")
        rhs = self.term(sig, env)
        return Eq(lhs, rhs)

    def term(self, sig, env):
        tok = self.ident("term")
        name = tok.value
        if self.at("op", "("):
            if name not in sig.functions:
                hint = ("relation symbols cannot appear inside terms"
                        if name in sig.relations else "not declared")
                self.fail(f"unknown function symbol '{name}' ({hint})", tok)
            self.next()
            args = () if self.at("op", ")") else tuple(self.items(",", self.term, sig, env))
            self.expect("op", ")")
            return App(name, args)
        if name not in env and name in sig.functions and not sig.functions[name][0]:
            return App(name, ())
        return Var(name)


def parse_theory(text: str, filename: str = "<input>") -> Theory:
    parser = _Parser(tokenize(text, filename), filename)
    theory = parser.theory()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input after theory: '{tok.value}'")
    try:
        validate_theory(theory)
    except ValidationError as e:
        raise ParseError(str(e), filename, 1, 1) from None
    return theory


def parse_sequents(text: str, signature: Signature, filename: str = "<input>") -> tuple:
    """Parse sequents against an existing signature, with `;` between each
    two and optionally after the last."""
    parser = _Parser(tokenize(text, filename), filename)
    out = []
    while parser.at("op", "["):
        out.extend(parser.sequent(signature))
        if parser.at("op", ";"):
            parser.next()
        elif not parser.at("eof"):
            tok = parser.peek()
            parser.fail(f"expected ';' between sequents, found '{tok.value}'")
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"expected a sequent starting with '[', found '{tok.value or tok.kind}'")
    return tuple(out)
