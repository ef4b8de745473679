"""Random term/process generators shared by the test modules.

Deterministic: every suite seeds its own random.Random so failures
reproduce. Generators for replay-sensitive suites use each name at most
once per polarity so that forward steps are unambiguous.
"""

from __future__ import annotations

import random

from rccs.terms import Label, NIL, Par, Res, Sum, Term, inp, out
from rccs.machine import Process, Thread, bwd_steps, format_process, fwd_steps
from rccs.encoding import is_singly_labelled
from rccs.structures import EventCapExceeded

ALPHABET = ["a", "b", "c", "d", "e", "f", "g", "h"]


def random_term(
    rng: random.Random,
    max_prefixes: int = 6,
    alphabet=ALPHABET,
    distinct: bool = False,
) -> Term:
    """A random finite term with at most max_prefixes prefixes.

    With distinct=True each (name, polarity) pair guards at most one
    prefix in the whole term, which keeps label-directed replay
    unambiguous and most terms singly labelled.
    """
    pool = [inp(n) for n in alphabet] + [out(n) for n in alphabet]
    rng.shuffle(pool)

    def draw_label() -> Label:
        if distinct:
            return pool.pop()
        name = rng.choice(alphabet)
        return out(name) if rng.random() < 0.5 else inp(name)

    def build(budget: int, depth: int) -> tuple[Term, int]:
        if budget <= 0 or (depth > 2 and rng.random() < 0.4):
            return NIL, budget
        roll = rng.random()
        if roll < 0.45 or budget == 1 or (distinct and len(pool) < 2):
            if distinct and not pool:
                return NIL, budget
            label = draw_label()
            cont, budget = build(budget - 1, depth + 1)
            return Sum(((label, cont),)), budget
        if roll < 0.65:
            left, budget = build(budget // 2, depth + 1)
            right, budget2 = build(budget - budget // 2, depth + 1)
            if isinstance(left, type(NIL)) or isinstance(right, type(NIL)):
                return (right if isinstance(left, type(NIL)) else left), budget2
            return Par(left, right), budget2
        if roll < 0.85:
            branches = []
            want = rng.randint(2, 3)
            while want and budget > 0 and (not distinct or pool):
                label = draw_label()
                cont, budget = build(min(budget - 1, 2), depth + 1)
                branches.append((label, cont))
                want -= 1
            if not branches:
                return NIL, budget
            if len(branches) == 1:
                return Sum(tuple(branches)), budget
            return Sum(tuple(branches)), budget
        body, budget = build(budget - 1, depth + 1)
        if isinstance(body, type(NIL)):
            return NIL, budget
        return Res(body, rng.choice(alphabet[:4])), budget

    term, _ = build(max_prefixes, 0)
    return term


def random_singly_term(
    rng: random.Random, max_prefixes: int = 6, alphabet=ALPHABET
) -> Term:
    """A random term whose encoding is singly labelled."""
    while True:
        term = random_term(rng, max_prefixes, alphabet, distinct=True)
        try:
            if is_singly_labelled(term):
                return term
        except EventCapExceeded:
            continue


def random_walk(
    rng: random.Random, process: Process, steps: int, forward_bias: float = 0.7
) -> Process:
    """Follow a random mixed trace of at most the given length.

    Steps are drawn from lists sorted on label, identifier and printed
    target, so the walk does not depend on the string hash seed."""

    def key(step):
        return (str(step[1]), step[0], format_process(step[2]))

    current = process
    for _ in range(steps):
        forward = sorted(fwd_steps(current), key=key)
        backward = sorted(bwd_steps(current), key=key)
        pool = forward if (rng.random() < forward_bias and forward) else backward
        if not pool:
            pool = forward or backward
        if not pool:
            return current
        _, _, current = rng.choice(pool)
    return current


def random_coherent(
    rng: random.Random,
    max_prefixes: int = 6,
    steps: int = 5,
    singly: bool = False,
) -> Process:
    """A coherent process: a monitored random term after a random walk."""
    term = (
        random_singly_term(rng, max_prefixes)
        if singly
        else random_term(rng, max_prefixes)
    )
    return random_walk(rng, Thread((), term), rng.randint(0, steps))


def expanded(term: Term, guarded: bool = False) -> Term:
    """The expansion law on every parallel pair of prefixes below a
    prefix: ``x.P | y.Q`` becomes ``x.(P | y.Q) + y.(x.P | Q)``. Once a
    synchronisation has forked into the pair, only the reversible game
    tells the two apart."""
    if isinstance(term, Sum):
        return Sum(tuple((l, expanded(c, True)) for l, c in term.branches))
    if isinstance(term, Res):
        return Res(expanded(term.body, guarded), term.name)
    if not isinstance(term, Par):
        return term
    left, right = expanded(term.left, guarded), expanded(term.right, guarded)
    if guarded and isinstance(left, Sum) and isinstance(right, Sum):
        if len(left.branches) == len(right.branches) == 1:
            ((x, p),), ((y, q),) = left.branches, right.branches
            return Sum(((x, Par(p, right)), (y, Par(left, q))))
    return Par(left, right)
