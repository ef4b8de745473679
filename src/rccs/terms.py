"""CCS terms: labels, abstract syntax, parsing, printing and forward semantics.

Terms are immutable. Sums are n-ary and guarded: every summand is a
(prefix label, continuation) pair, so plain prefixing ``a.P`` is a
singleton sum. The tau action never appears as a prefix; it only arises
from synchronisation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from typing import Iterator


class ParseError(ValueError):
    """Syntax error; carries the 0-based offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# ---------------------------------------------------------------------------
# Labels

_IN = "in"
_OUT = "out"
_TAU = "tau"

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
_TAU_NAME = "'tau' is the silent action, not a channel name"


@dataclass(frozen=True)
class Label:
    kind: str  # "in", "out" or "tau"
    name: str | None = None

    def __post_init__(self) -> None:
        if self.kind == _TAU:
            if self.name is not None:
                raise ValueError("tau carries no name")
        elif self.kind in (_IN, _OUT):
            if self.name is None or not _NAME_RE.fullmatch(self.name):
                raise ValueError(f"bad name {self.name!r}")
            if self.name == _TAU:
                raise ValueError(_TAU_NAME)
        else:
            raise ValueError(f"bad label kind {self.kind!r}")

    @property
    def is_tau(self) -> bool:
        return self.kind == _TAU

    def __str__(self) -> str:
        if self.kind == _TAU:
            return "tau"
        return self.name if self.kind == _IN else "!" + self.name


TAU = Label(_TAU)


def inp(name: str) -> Label:
    return Label(_IN, name)


def out(name: str) -> Label:
    return Label(_OUT, name)


def complement(label: Label) -> Label:
    """Swap input and output; undefined on tau."""
    if label.is_tau:
        raise ValueError("tau has no complement")
    return Label(_OUT if label.kind == _IN else _IN, label.name)


def parse_label(text: str) -> Label:
    text = text.strip()
    if text == "tau":
        return TAU
    if text.startswith("!"):
        return out(text[1:])
    return inp(text)


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Nil(Term):
    __slots__ = ()


@dataclass(frozen=True)
class Sum(Term):
    """Guarded n-ary sum; a single branch is plain prefixing."""

    branches: tuple[tuple[Label, Term], ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("sum needs at least one branch")
        for label, _ in self.branches:
            if label.is_tau:
                raise ValueError("tau is not a legal prefix")


@dataclass(frozen=True)
class Par(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Res(Term):
    body: Term
    name: str


NIL = Nil()


def prefix_term(label: Label, cont: Term = NIL) -> Term:
    return Sum(((label, cont),))


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<name>[a-z][a-z0-9_]*)|(?P<sym>[!.+|()\\]|0)"
)


def _tokenize(
    text: str, pattern: re.Pattern = _TOKEN_RE
) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _TermParser:
    """Recursive descent over the grammar.

    par := sum ('|' sum)*          (left associative)
    sum := res ('+' res)*          (operands of '+' must be guarded)
    res := prefix ('\\' name)*
    prefix := '0' | '(' par ')' | label ('.' prefix)?

    A bare name abbreviates name.0. Restriction binds looser than
    prefixing: ``a.P \\ b`` reads ``(a.P) \\ b``.
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        kind, text, pos = self.peek()
        if text != value:
            raise ParseError(f"expected {value!r}", pos)
        self.next()

    def parse_par(self) -> Term:
        term = self.parse_sum()
        while self.peek()[1] == "|":
            self.next()
            term = Par(term, self.parse_sum())
        return term

    def parse_sum(self) -> Term:
        first = self.parse_res()
        if self.peek()[1] != "+":
            return first
        operands = [first]
        positions = [self.peek()[2]]
        while self.peek()[1] == "+":
            positions.append(self.peek()[2])
            self.next()
            operands.append(self.parse_res())
        branches: list[tuple[Label, Term]] = []
        for operand, pos in zip(operands, positions):
            if not isinstance(operand, Sum):
                raise ParseError("unguarded summand", pos)
            branches.extend(operand.branches)
        return Sum(tuple(branches))

    def parse_res(self) -> Term:
        term = self.parse_prefix()
        while self.peek()[1] == "\\":
            self.next()
            term = Res(term, self.parse_name("expected a name after '\\'"))
        return term

    def parse_prefix(self) -> Term:
        kind, text, pos = self.peek()
        if text == "0":
            self.next()
            return NIL
        if text == "(":
            self.next()
            term = self.parse_par()
            self.expect(")")
            return term
        if text == "!" or kind == "name":
            label = self.parse_action()
            if self.peek()[1] == ".":
                self.next()
                return Sum(((label, self.parse_prefix()),))
            return Sum(((label, NIL),))
        raise ParseError("expected a term", pos)

    def parse_action(self) -> Label:
        if self.peek()[1] == "!":
            self.next()
            return out(self.parse_name("expected a name after '!'"))
        return inp(self.parse_name("expected an action"))

    def parse_name(self, expected: str) -> str:
        kind, text, pos = self.next()
        if kind != "name":
            raise ParseError(expected, pos)
        if text == _TAU:
            raise ParseError(_TAU_NAME, pos)
        return text


def parse_term(text: str) -> Term:
    parser = _TermParser(_tokenize(text))
    term = parser.parse_par()
    kind, _, pos = parser.peek()
    if kind != "eof":
        raise ParseError("trailing input", pos)
    return term


# ---------------------------------------------------------------------------
# Printing


def format_term(term: Term) -> str:
    return _fmt(term, top=True)


def _fmt(term: Term, top: bool = False) -> str:
    if isinstance(term, Nil):
        return "0"
    if isinstance(term, Sum):
        parts = [_fmt_branch(label, cont) for label, cont in term.branches]
        return " + ".join(parts)
    if isinstance(term, Par):
        left = _fmt(term.left)
        right = term.right
        rtext = _fmt(right)
        if isinstance(right, Par):
            rtext = f"({rtext})"
        return f"{left} | {rtext}"
    if isinstance(term, Res):
        body = _fmt(term.body)
        if isinstance(term.body, Par) or (
            isinstance(term.body, Sum) and len(term.body.branches) > 1
        ):
            body = f"({body})"
        return f"{body} \\ {term.name}"
    raise TypeError(f"not a term: {term!r}")


def _fmt_branch(label: Label, cont: Term) -> str:
    if isinstance(cont, Nil):
        return str(label)
    text = _fmt(cont)
    if isinstance(cont, Par) or isinstance(cont, Res) or (
        isinstance(cont, Sum) and len(cont.branches) > 1
    ):
        text = f"({text})"
    return f"{label}.{text}"


# ---------------------------------------------------------------------------
# Names


def free_names(term: Term) -> frozenset[str]:
    if isinstance(term, Nil):
        return frozenset()
    if isinstance(term, Sum):
        acc: set[str] = set()
        for label, cont in term.branches:
            acc.add(label.name)
            acc.update(free_names(cont))
        return frozenset(acc)
    if isinstance(term, Par):
        return free_names(term.left) | free_names(term.right)
    if isinstance(term, Res):
        return free_names(term.body) - {term.name}
    raise TypeError(f"not a term: {term!r}")


def all_names(term: Term) -> frozenset[str]:
    """Free and bound names together."""
    if isinstance(term, Res):
        return all_names(term.body) | {term.name}
    if isinstance(term, Par):
        return all_names(term.left) | all_names(term.right)
    if isinstance(term, Sum):
        acc: set[str] = set()
        for label, cont in term.branches:
            acc.add(label.name)
            acc.update(all_names(cont))
        return frozenset(acc)
    return frozenset()


def fresh_names(avoid: frozenset[str] | set[str], stem: str = "n") -> Iterator[str]:
    """Yield distinct names outside `avoid`, never repeating."""
    used = set(avoid)
    for i in count():
        candidate = f"{stem}{i}"
        if candidate not in used:
            used.add(candidate)
            yield candidate


def rename_free(term: Term, old: str, new: str) -> Term:
    """Substitute the free name `old` by `new`; stops under a binder for old."""
    return rename_names(term, {old: new})


def rename_names(term: Term, subst: dict[str, str]) -> Term:
    """Substitute free names simultaneously, avoiding capture."""
    if not subst or isinstance(term, Nil):
        return term
    if isinstance(term, Sum):
        branches = []
        for label, cont in term.branches:
            if label.name in subst:
                label = Label(label.kind, subst[label.name])
            branches.append((label, rename_names(cont, subst)))
        return Sum(tuple(branches))
    if isinstance(term, Par):
        return Par(rename_names(term.left, subst), rename_names(term.right, subst))
    if isinstance(term, Res):
        inner = {old: new for old, new in subst.items() if old != term.name}
        if not inner:
            return term
        name, body = term.name, term.body
        if name in inner.values():
            # rename the binder out of the way to avoid capture
            avoid = all_names(term) | inner.keys() | set(inner.values())
            fresh = next(fresh_names(avoid, name))
            name, body = fresh, rename_names(body, {term.name: fresh})
        return Res(rename_names(body, inner), name)
    raise TypeError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# Forward semantics


def ccs_step(term: Term) -> frozenset[tuple[Label, Term]]:
    """All one-step derivatives under the standard CCS rules."""
    if isinstance(term, Nil):
        return frozenset()
    if isinstance(term, Sum):
        return frozenset((label, cont) for label, cont in term.branches)
    if isinstance(term, Par):
        steps: set[tuple[Label, Term]] = set()
        left_steps = ccs_step(term.left)
        right_steps = ccs_step(term.right)
        for label, cont in left_steps:
            steps.add((label, Par(cont, term.right)))
        for label, cont in right_steps:
            steps.add((label, Par(term.left, cont)))
        for llabel, lcont in left_steps:
            if llabel.is_tau:
                continue
            dual = complement(llabel)
            for rlabel, rcont in right_steps:
                if rlabel == dual:
                    steps.add((TAU, Par(lcont, rcont)))
        return frozenset(steps)
    if isinstance(term, Res):
        return frozenset(
            (label, Res(cont, term.name))
            for label, cont in ccs_step(term.body)
            if label.is_tau or label.name != term.name
        )
    raise TypeError(f"not a term: {term!r}")


def barbs(term: Term) -> frozenset[Label]:
    return frozenset(label for label, _ in ccs_step(term) if not label.is_tau)


# ---------------------------------------------------------------------------
# Contexts


class CcsContext:
    __slots__ = ()


@dataclass(frozen=True)
class Hole(CcsContext):
    __slots__ = ()


@dataclass(frozen=True)
class CPrefix(CcsContext):
    label: Label
    inner: CcsContext


@dataclass(frozen=True)
class CPar(CcsContext):
    term: Term
    inner: CcsContext


@dataclass(frozen=True)
class CRes(CcsContext):
    inner: CcsContext
    name: str


HOLE = Hole()


def fill_context(context: CcsContext, term: Term) -> Term:
    """Plug the hole verbatim; restriction in the context may capture."""
    if isinstance(context, Hole):
        return term
    if isinstance(context, CPrefix):
        return Sum(((context.label, fill_context(context.inner, term)),))
    if isinstance(context, CPar):
        return Par(context.term, fill_context(context.inner, term))
    if isinstance(context, CRes):
        return Res(fill_context(context.inner, term), context.name)
    raise TypeError(f"not a context: {context!r}")


def format_context(context: CcsContext) -> str:
    if isinstance(context, Hole):
        return "[.]"
    if isinstance(context, CPrefix):
        return f"{context.label}.({format_context(context.inner)})"
    if isinstance(context, CPar):
        return f"{format_term(context.term)} | {format_context(context.inner)}"
    if isinstance(context, CRes):
        return f"({format_context(context.inner)}) \\ {context.name}"
    raise TypeError(f"not a context: {context!r}")


# ---------------------------------------------------------------------------
# Structural congruence on terms

_CANON_STEM = "bn"


def _label_key(label: Label, env: dict[str, int]) -> tuple:
    if label.name in env:
        return (label.kind, 0, env[label.name])
    return (label.kind, 1, label.name)


def _term_key(term: Term, env: dict[str, int], depth: int) -> tuple:
    """Name-insensitive structural key used to sort summands."""
    if isinstance(term, Nil):
        return ("0",)
    if isinstance(term, Sum):
        keys = sorted(
            (_label_key(label, env), _term_key(cont, env, depth))
            for label, cont in term.branches
        )
        return ("+", tuple(keys))
    if isinstance(term, Par):
        return ("|", _term_key(term.left, env, depth), _term_key(term.right, env, depth))
    if isinstance(term, Res):
        inner = dict(env)
        inner[term.name] = depth
        return ("r", _term_key(term.body, inner, depth + 1))
    raise TypeError(f"not a term: {term!r}")


def _push_res(term: Term, name: str) -> Term:
    """Canonical form of ``term \\ name`` with the scope minimised.

    Dead restrictions vanish, branches prefixed on the restricted name
    are pruned, and the restriction slides under prefixes and one-sided
    parallels. It sticks only on a parallel where both sides use the name.
    """
    if name not in free_names(term):
        return term
    if isinstance(term, Sum):
        branches = []
        for label, cont in term.branches:
            if label.name == name:
                continue
            branches.append((label, _push_res(cont, name)))
        return Sum(tuple(branches)) if branches else NIL
    if isinstance(term, Par):
        if name not in free_names(term.right):
            return Par(_push_res(term.left, name), term.right)
        if name not in free_names(term.left):
            return Par(term.left, _push_res(term.right, name))
        return Res(term, name)
    if isinstance(term, Res):
        return Res(_push_res(term.body, name), term.name)
    raise TypeError(f"not a term: {term!r}")


def _push_all(term: Term) -> Term:
    if isinstance(term, Nil):
        return term
    if isinstance(term, Sum):
        return Sum(tuple((label, _push_all(cont)) for label, cont in term.branches))
    if isinstance(term, Par):
        return Par(_push_all(term.left), _push_all(term.right))
    if isinstance(term, Res):
        return _push_res(_push_all(term.body), term.name)
    raise TypeError(f"not a term: {term!r}")


def canonical_term(term: Term, avoid: frozenset[str] | None = None) -> Term:
    """Normal form under sum reordering, scope mobility and renaming of
    bound names.

    Restrictions are pushed maximally inward first; then bound names
    are renamed to a canonical stream avoiding the term's free names
    (plus `avoid`) and summands are sorted by a fixed total order on
    the name-insensitive structure.
    """
    if avoid is None:
        avoid = frozenset()
    term = _push_all(term)
    names = fresh_names(free_names(term) | avoid, _CANON_STEM)
    return _canon(term, {}, {}, 0, names)


def _canon(
    term: Term,
    subst: dict[str, str],
    env: dict[str, int],
    depth: int,
    names: Iterator[str],
) -> Term:
    if isinstance(term, Nil):
        return term
    if isinstance(term, Sum):
        decorated = sorted(
            term.branches,
            key=lambda br: (_label_key(br[0], env), _term_key(br[1], env, depth)),
        )
        branches = []
        for label, cont in decorated:
            if label.name in subst:
                label = Label(label.kind, subst[label.name])
            branches.append((label, _canon(cont, subst, env, depth, names)))
        return Sum(tuple(branches))
    if isinstance(term, Par):
        return Par(
            _canon(term.left, subst, env, depth, names),
            _canon(term.right, subst, env, depth, names),
        )
    if isinstance(term, Res):
        fresh = next(names)
        inner = dict(subst)
        inner[term.name] = fresh
        inner_env = dict(env)
        inner_env[term.name] = depth
        return Res(_canon(term.body, inner, inner_env, depth + 1, names), fresh)
    raise TypeError(f"not a term: {term!r}")


def term_congruent(t1: Term, t2: Term) -> bool:
    return canonical_term(t1) == canonical_term(t2)
