"""Multi-sorted partial Horn syntax.

Signatures declare sorts, partial function symbols and relation symbols.
Formulas are built from relation atoms, equations and conjunction; `def(t)`
is sugar for the self-equation t = t.  Axioms are sequents in an explicit
context of distinct sorted variables.  Equality is never a declared symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class PhlError(Exception):
    pass


class ParseError(PhlError):
    def __init__(self, message: str, filename: str = "<input>", line: int = 0, col: int = 0):
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__(f"{filename}:{line}:{col}: {message}")


class ValidationError(PhlError):
    pass


class BudgetError(PhlError):
    pass


# ---------------------------------------------------------------------------
# terms and formulas


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    func: str
    args: tuple = ()


Term = Var | App


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class RelAtom:
    rel: str
    args: tuple


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


Formula = Top | RelAtom | Eq | And

TOP = Top()


def def_of(term: Term) -> Eq:
    """Definedness t| as the self-equation t = t."""
    return Eq(term, term)


def conj(*formulas: Formula) -> Formula:
    """Right-nested conjunction; empty conjunction is top."""
    parts = [f for f in formulas if not isinstance(f, Top)]
    if not parts:
        return TOP
    out = parts[-1]
    for f in reversed(parts[:-1]):
        out = And(f, out)
    return out


def and_parts(formula: Formula) -> list:
    if isinstance(formula, And):
        return and_parts(formula.lhs) + and_parts(formula.rhs)
    if isinstance(formula, Top):
        return []
    return [formula]


@dataclass(frozen=True)
class Sequent:
    """phi |-_{ctx} psi with ctx a tuple of (variable, sort) pairs."""

    context: tuple
    premise: Formula
    conclusion: Formula


def bisequent(context: tuple, lhs: Formula, rhs: Formula) -> tuple:
    """phi -||- psi unfolds to the two one-way sequents."""
    return (Sequent(context, lhs, rhs), Sequent(context, rhs, lhs))


# ---------------------------------------------------------------------------
# signatures and theories


@dataclass
class Signature:
    sorts: tuple = ()
    # name -> (arg sorts, result sort); constants have empty arg tuple
    functions: dict = field(default_factory=dict)
    # name -> arg sorts
    relations: dict = field(default_factory=dict)

    def symbols(self) -> list:
        """(name, sorts, is_function) per symbol: the functions, then the
        relations, in declaration order.  A function is read as its graph,
        so its sorts are its argument sorts followed by its result sort."""
        out = []
        for f, (argsorts, result) in self.functions.items():
            out.append((f, argsorts + (result,), True))
        for r, argsorts in self.relations.items():
            out.append((r, argsorts, False))
        return out


@dataclass
class Theory:
    name: str
    signature: Signature
    axioms: tuple = ()
    flags: frozenset = frozenset()


# ---------------------------------------------------------------------------
# well-formedness

RESERVED = {"theory", "sorts", "functions", "relations", "axioms", "flags", "top", "def"}


def formula_symbols(*formulas: Formula) -> set:
    """Names of the function and relation symbols the formulas mention."""
    out = set()
    todo = list(formulas)
    while todo:
        node = todo.pop()
        if isinstance(node, (And, Eq)):
            todo += (node.lhs, node.rhs)
        elif isinstance(node, (App, RelAtom)):
            out.add(node.func if isinstance(node, App) else node.rel)
            todo += node.args
    return out


def term_sort(term: Term, signature: Signature, env: dict) -> str:
    """Sort of a term in a variable environment; raises on ill-typed input."""
    if isinstance(term, Var):
        if term.name not in env:
            raise ValidationError(f"unbound variable '{term.name}'")
        return env[term.name]
    if term.func not in signature.functions:
        raise ValidationError(f"unknown function symbol '{term.func}'")
    argsorts, result = signature.functions[term.func]
    if len(term.args) != len(argsorts):
        raise ValidationError(
            f"function '{term.func}' expects {len(argsorts)} arguments, got {len(term.args)}"
        )
    for a, want in zip(term.args, argsorts):
        got = term_sort(a, signature, env)
        if got != want:
            raise ValidationError(
                f"argument of '{term.func}' has sort '{got}', expected '{want}'"
            )
    return result


def validate_formula(formula: Formula, signature: Signature, env: dict) -> None:
    for atom in and_parts(formula):
        if isinstance(atom, RelAtom):
            if atom.rel not in signature.relations:
                raise ValidationError(f"unknown relation symbol '{atom.rel}'")
            argsorts = signature.relations[atom.rel]
            if len(atom.args) != len(argsorts):
                raise ValidationError(
                    f"relation '{atom.rel}' expects {len(argsorts)} arguments, got {len(atom.args)}"
                )
            for a, want in zip(atom.args, argsorts):
                got = term_sort(a, signature, env)
                if got != want:
                    raise ValidationError(
                        f"argument of '{atom.rel}' has sort '{got}', expected '{want}'"
                    )
        elif isinstance(atom, Eq):
            ls = term_sort(atom.lhs, signature, env)
            rs = term_sort(atom.rhs, signature, env)
            if ls != rs:
                raise ValidationError(f"equation between sorts '{ls}' and '{rs}'")


def validate_sequent(seq: Sequent, signature: Signature) -> None:
    names = [v for v, _ in seq.context]
    if len(set(names)) != len(names):
        raise ValidationError("repeated variable in context")
    for v, s in seq.context:
        if s not in signature.sorts:
            raise ValidationError(f"context variable '{v}' has unknown sort '{s}'")
    env = dict(seq.context)
    validate_formula(seq.premise, signature, env)
    validate_formula(seq.conclusion, signature, env)


def validate_theory(theory: Theory) -> None:
    sig = theory.signature
    if len(set(sig.sorts)) != len(sig.sorts):
        raise ValidationError("repeated sort name")
    seen = set(sig.sorts)
    for name, sorts, is_function in sig.symbols():
        kind = "function" if is_function else "relation"
        if name in RESERVED or name == "=":
            raise ValidationError(f"reserved word '{name}' used as {kind} symbol")
        if name in seen:
            raise ValidationError(f"symbol '{name}' declared twice")
        seen.add(name)
        for s in sorts:
            if s not in sig.sorts:
                raise ValidationError(f"{kind} '{name}' mentions unknown sort '{s}'")
    for seq in theory.axioms:
        validate_sequent(seq, sig)


# ---------------------------------------------------------------------------
# printing (round-trips through the parser)


def print_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    return f"{term.func}({', '.join(print_term(a) for a in term.args)})"


def print_formula(formula: Formula) -> str:
    if isinstance(formula, Top):
        return "top"
    if isinstance(formula, And):
        return " & ".join(print_formula(p) for p in and_parts(formula))
    if isinstance(formula, RelAtom):
        return f"{formula.rel}({', '.join(print_term(a) for a in formula.args)})"
    if formula.lhs == formula.rhs:
        return f"def({print_term(formula.lhs)})"
    return f"{print_term(formula.lhs)} = {print_term(formula.rhs)}"


def print_sequent(seq: Sequent) -> str:
    ctx = ", ".join(f"{v} : {s}" for v, s in seq.context)
    return f"[{ctx}] {print_formula(seq.premise)} |- {print_formula(seq.conclusion)}"


def print_theory(theory: Theory) -> str:
    sig = theory.signature
    lines = [f"theory {theory.name} {{"]
    if sig.sorts:
        lines.append(f"  sorts {', '.join(sig.sorts)};")
    if sig.functions:
        decls = []
        for name, (argsorts, result) in sig.functions.items():
            decls.append(f"{name} : {' * '.join(argsorts)} -> {result}")
        lines.append(f"  functions {', '.join(decls)};")
    if sig.relations:
        decls = [f"{name} : {' * '.join(argsorts)}" for name, argsorts in sig.relations.items()]
        lines.append(f"  relations {', '.join(decls)};")
    if theory.axioms:
        lines.append("  axioms")
        for seq in theory.axioms:
            lines.append(f"    {print_sequent(seq)};")
    if theory.flags:
        lines.append(f"  flags {', '.join(sorted(theory.flags))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# theory morphisms


@dataclass
class TheoryMorphism:
    """Signature-level map; semantic soundness is checked separately."""

    name: str
    source: Theory
    target: Theory
    sort_map: dict
    fn_map: dict
    rel_map: dict


def validate_morphism(m: TheoryMorphism) -> None:
    src, tgt = m.source.signature, m.target.signature
    for s in src.sorts:
        if s not in m.sort_map:
            raise ValidationError(f"morphism '{m.name}' misses sort '{s}'")
        if m.sort_map[s] not in tgt.sorts:
            raise ValidationError(f"morphism '{m.name}' sends '{s}' to unknown sort")
    target_sorts = {(g, is_function): sorts for g, sorts, is_function in tgt.symbols()}
    for f, sorts, is_function in src.symbols():
        kind, symbol_map = ("function", m.fn_map) if is_function else ("relation", m.rel_map)
        if f not in symbol_map:
            raise ValidationError(f"morphism '{m.name}' misses {kind} '{f}'")
        image_sorts = target_sorts.get((symbol_map[f], is_function))
        if image_sorts is None:
            raise ValidationError(f"morphism '{m.name}' sends '{f}' to unknown {kind}")
        if image_sorts != tuple(m.sort_map[s] for s in sorts):
            raise ValidationError(f"morphism '{m.name}' breaks arity of '{f}'")


def _rename(node, fn_map: dict, rel_map: dict):
    """The term or formula with every symbol renamed, or None when a symbol
    has no image."""
    if isinstance(node, (Var, Top)):
        return node
    if isinstance(node, (And, Eq)):
        parts = (_rename(node.lhs, fn_map, rel_map), _rename(node.rhs, fn_map, rel_map))
    else:
        image = fn_map.get(node.func) if isinstance(node, App) else rel_map.get(node.rel)
        args = tuple(_rename(a, fn_map, rel_map) for a in node.args)
        parts = (image, None if None in args else args)
    return None if None in parts else type(node)(*parts)


def translate_formula(m: TheoryMorphism, formula: Formula) -> Formula:
    """None when m misses a symbol of the formula; validate_morphism rules
    that out for formulas over m's source signature."""
    return _rename(formula, m.fn_map, m.rel_map)


def translate_sequent(m: TheoryMorphism, seq: Sequent) -> Sequent:
    ctx = tuple((v, m.sort_map[s]) for v, s in seq.context)
    return Sequent(ctx, translate_formula(m, seq.premise), translate_formula(m, seq.conclusion))


def morphism_obligations(m: TheoryMorphism) -> tuple:
    """Translated source axioms; these must hold in every target model for the
    morphism to be semantically sound."""
    return tuple(translate_sequent(m, seq) for seq in m.source.axioms)


# ---------------------------------------------------------------------------
# relative partial operations over a base theory


@dataclass(frozen=True)
class RelOp:
    """Partial operation with a definedness condition over the base theory."""

    name: str
    context: tuple  # ((var, sort), ...)
    definedness: Formula
    result: str


@dataclass
class RelativeTheory:
    name: str
    base: Theory
    ops: tuple = ()
    judgments: tuple = ()


def extended_signature(rt: RelativeTheory) -> Signature:
    base = rt.base.signature
    fns = dict(base.functions)
    for op in rt.ops:
        if op.name in fns or op.name in base.relations:
            raise ValidationError(f"relative operation '{op.name}' clashes with base symbol")
        fns[op.name] = (tuple(s for _, s in op.context), op.result)
    return Signature(base.sorts, fns, dict(base.relations))


def is_base_formula(formula: Formula, base: Signature) -> bool:
    """True when every symbol in the formula comes from the base signature.
    One set of names is enough: extended_signature refuses an operation
    named like a base symbol, and validate_theory a name declared twice."""
    return formula_symbols(formula) <= base.functions.keys() | base.relations.keys()


def reconstruct_source_formula(m: TheoryMorphism, formula: Formula) -> Optional[Formula]:
    """Preimage of a formula under symbol-wise translation, if one exists;
    a symbol with several preimages takes the first one declared."""
    inv_fn, inv_rel = {}, {}
    for f, g in m.fn_map.items():
        inv_fn.setdefault(g, f)
    for r, g in m.rel_map.items():
        inv_rel.setdefault(g, r)
    return _rename(formula, inv_fn, inv_rel)


def check_relative_judgment(rt: RelativeTheory, seq: Sequent,
                            rho: Optional[TheoryMorphism] = None) -> bool:
    """Whether a judgment is admissible relative to the base (or to rho).

    The premise must be a plain base-theory formula; with rho it must be the
    translation of a formula from rho's source theory.  The conclusion may use
    the relative operations freely.
    """
    ext = extended_signature(rt)
    validate_sequent(seq, ext)
    if rho is None:
        return is_base_formula(seq.premise, rt.base.signature)
    src = reconstruct_source_formula(rho, seq.premise)
    if src is None:
        return False
    env = {v: s for v, s in seq.context}
    # context sorts must come from rho too, with the premise typed at the source
    inv_sort = {}
    for s, t in rho.sort_map.items():
        inv_sort.setdefault(t, s)
    try:
        src_env = {v: inv_sort[s] for v, s in env.items()}
        validate_formula(src, rho.source.signature, src_env)
    except (KeyError, ValidationError):
        return False
    return True


def compile_relative_theory(rt: RelativeTheory) -> Theory:
    """Flatten relative operations into partial function symbols.

    Each operation contributes its arity as the pair of sequents unfolding
    def(f(xs)) -||- definedness, then the judgments follow as axioms.
    """
    validate_theory(rt.base)
    sig = extended_signature(rt)
    axioms = list(rt.base.axioms)
    for op in rt.ops:
        call = App(op.name, tuple(Var(v) for v, _ in op.context))
        axioms.extend(bisequent(op.context, def_of(call), op.definedness))
    for seq in rt.judgments:
        axioms.append(seq)
    theory = Theory(rt.name, sig, tuple(axioms), rt.base.flags)
    validate_theory(theory)
    return theory
