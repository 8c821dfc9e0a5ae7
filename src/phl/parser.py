"""Recursive-descent parser for the theory description language.

    theory Name {
      sorts s, t;
      functions f : s * t -> s, c : -> s;
      relations r : s * s;
      axioms
        [x : s, y : t] top |- def(f(x, y));
        [x : s] r(x, x) -||- f(x, c()) = x;
      flags one, two;
    }

`#` starts a line comment.  `&` is conjunction, `top` the empty conjunction,
`def(t)` sugar for t = t, and `-||-` a bisequent that unfolds into the two
one-way sequents.  A bare constant name is accepted as shorthand for `c()`.
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

    # -- theory ------------------------------------------------------------

    def theory(self) -> Theory:
        self.expect("ident", "theory")
        name = self.ident("theory name").value
        self.expect("op", "{")
        sorts = []
        functions = {}
        relations = {}
        axioms = []
        flags = []
        while not self.at("op", "}"):
            tok = self.peek()
            if self.at("ident", "sorts"):
                self.next()
                sorts.extend(self.ident_list("sort name"))
                self.expect("op", ";")
            elif self.at("ident", "functions"):
                self.next()
                while True:
                    fn = self.ident("function symbol")
                    if fn.value in functions or fn.value in relations:
                        self.fail(f"symbol '{fn.value}' declared twice", fn)
                    self.expect("op", ":")
                    argsorts = []
                    if not self.at("op", "->"):
                        argsorts.append(self.ident("sort name").value)
                        while self.at("op", "*"):
                            self.next()
                            argsorts.append(self.ident("sort name").value)
                    self.expect("op", "->")
                    result = self.ident("sort name").value
                    functions[fn.value] = (tuple(argsorts), result)
                    if self.at("op", ","):
                        self.next()
                        continue
                    break
                self.expect("op", ";")
            elif self.at("ident", "relations"):
                self.next()
                while True:
                    rel = self.ident("relation symbol")
                    if rel.value in functions or rel.value in relations:
                        self.fail(f"symbol '{rel.value}' declared twice", rel)
                    self.expect("op", ":")
                    argsorts = [self.ident("sort name").value]
                    while self.at("op", "*"):
                        self.next()
                        argsorts.append(self.ident("sort name").value)
                    relations[rel.value] = tuple(argsorts)
                    if self.at("op", ","):
                        self.next()
                        continue
                    break
                self.expect("op", ";")
            elif self.at("ident", "axioms"):
                self.next()
                sig = Signature(tuple(sorts), functions, relations)
                while self.at("op", "["):
                    axioms.extend(self.sequent(sig))
                    self.expect("op", ";")
            elif self.at("ident", "flags"):
                self.next()
                flags.extend(self.ident_list("flag"))
                self.expect("op", ";")
            else:
                self.fail(f"expected a section keyword, found '{tok.value or tok.kind}'")
        self.expect("op", "}")
        theory = Theory(name, Signature(tuple(sorts), functions, relations),
                        tuple(axioms), frozenset(flags))
        return theory

    def ident_list(self, what) -> list:
        out = [self.ident(what).value]
        while self.at("op", ","):
            self.next()
            out.append(self.ident(what).value)
        return out

    # -- sequents and formulas ----------------------------------------------

    def sequent(self, sig: Signature) -> tuple:
        """One `[ctx] lhs |- rhs` (or bisequent); returns the unfolded sequents."""
        start = self.expect("op", "[")
        context = []
        seen = set()
        while not self.at("op", "]"):
            v = self.ident("variable")
            if v.value in seen:
                self.fail(f"repeated context variable '{v.value}'", v)
            seen.add(v.value)
            self.expect("op", ":")
            s = self.ident("sort name")
            context.append((v.value, s.value))
            if self.at("op", ","):
                self.next()
        self.expect("op", "]")
        ctx = tuple(context)
        env = dict(ctx)
        lhs = self.formula(sig, env)
        tok = self.peek()
        if self.at("op", "|-"):
            self.next()
            rhs = self.formula(sig, env)
            out = (Sequent(ctx, lhs, rhs),)
        elif self.at("op", "-||-"):
            self.next()
            rhs = self.formula(sig, env)
            out = bisequent(ctx, lhs, rhs)
        else:
            self.fail(f"expected '|-' or '-||-', found '{tok.value or tok.kind}'")
        for seq in out:
            try:
                validate_sequent(seq, sig)
            except ValidationError as e:
                raise ParseError(str(e), self.filename, start.line, start.col) from None
        return out

    def formula(self, sig, env):
        atoms = [self.atom(sig, env)]
        while self.at("op", "&"):
            self.next()
            atoms.append(self.atom(sig, env))
        return conj(*atoms)

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
            args = [self.term(sig, env)]
            while self.at("op", ","):
                self.next()
                args.append(self.term(sig, env))
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
                raise ParseError(f"unknown function symbol '{name}' ({hint})",
                                 self.filename, tok.line, tok.col)
            self.next()
            args = []
            if not self.at("op", ")"):
                args.append(self.term(sig, env))
                while self.at("op", ","):
                    self.next()
                    args.append(self.term(sig, env))
            self.expect("op", ")")
            return App(name, tuple(args))
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
    """Parse a `;`-separated run of sequents against an existing signature."""
    parser = _Parser(tokenize(text, filename), filename)
    out = []
    while parser.at("op", "["):
        out.extend(parser.sequent(signature))
        if parser.at("op", ";"):
            parser.next()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"expected a sequent starting with '[', found '{tok.value or tok.kind}'")
    return tuple(out)
