"""Equivalence checkers: hereditary history preserving bisimulation,
its level-indexed approximations, and the barbed back-and-forth family.

All deciders are exhaustive fixpoint refinements over finite state
spaces, returning a Verdict that carries either a witness relation or
replayable evidence for the distinction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from math import comb
from typing import Callable, Iterable

from .terms import (
    CcsContext,
    CPar,
    HOLE,
    Label,
    NIL,
    Sum,
    Term,
    all_names,
    barbs,
    canonical_term,
    ccs_step,
    complement,
    format_context,
    format_term,
    fresh_names,
    inp,
    out,
    prefix_term,
)
from .machine import (
    Process,
    Thread,
    format_process,
    instantiate_context,
    normal_form,
    observe,
    origin,
)
from .structures import (
    ConfStruct,
    _ekey,
    _lkey,
    barbs_at,
    causes,
    config_backsteps,
    config_steps,
    event_names,
    is_maximal,
)
from .encoding import encode_ccs, is_singly_labelled


class TauEventInConfig(ValueError):
    """tau events have no complement and cannot be observed by a guard."""


# The most contexts congruence_contexts returns. `check congruence a|b
# b|a` runs 213 contexts at depth 6 in 3.6 s and 333 at depth 7 in 21 s
# (one core of a 2-vCPU Xeon); a context costs more the more prefixes
# it has, so the count bounds the work only roughly.
MAX_CONTEXTS = 256


# ---------------------------------------------------------------------------
# Verdicts


@dataclass
class Verdict:
    outcome: str  # "equivalent" | "distinguished" | "bounded-equivalent"
    witness: object = None
    evidence: object = None

    @property
    def equivalent(self) -> bool:
        return self.outcome in ("equivalent", "bounded-equivalent")

    def to_jsonable(self) -> dict:
        payload: dict = {"verdict": self.outcome}
        if self.evidence is not None:
            payload["evidence"] = self.evidence
        if self.witness is not None:
            payload["witness"] = _jsonable(self.witness)
        return payload


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(v) for v in value), key=str)
    return str(value)


@dataclass(frozen=True)
class TripleRelation:
    triples: frozenset  # of (config, config, frozenset of event pairs)

    def __contains__(self, triple) -> bool:
        return triple in self.triples

    def __len__(self) -> int:
        return len(self.triples)


# ---------------------------------------------------------------------------
# The refinement game shared by every bisimulation checker


def _refine(pairs: Iterable, challenges: Callable, refuted: Iterable = ()):
    """Greatest fixpoint of a back-and-forth game by round-wise refinement.

    ``challenges(pair)`` yields ``(move, answers)`` and is called again in
    every round, so no challenge table is stored. A live pair falls in
    round r when, at the start of round r, one of its challenges has no
    live answer; pairs in ``refuted`` fall in round 0. Returns the live
    set and, per fallen pair, ``(round, move, answers)`` of its first
    unanswered challenge, keeping only the answers that are fallen pairs
    (``move`` is None in round 0).
    """
    live = set(pairs)
    live.difference_update(refuted)
    removed = {pair: (0, None, []) for pair in refuted}
    rounds = 0
    while True:
        rounds += 1
        stale = []
        for pair in live:
            for move, answers in challenges(pair):
                if not any(answer in live for answer in answers):
                    fallen = [answer for answer in answers if answer in removed]
                    stale.append((pair, move, fallen))
                    break
        if not stale:
            return live, removed
        for pair, move, answers in stale:
            live.discard(pair)
            removed[pair] = (rounds, move, answers)


def _losing_line(removed: dict, start) -> list:
    """The attacker's winning play from a fallen pair, as
    ``(pair, move, answer)`` steps: each recorded challenge is answered by
    the answer that fell earliest, the first in list order on ties, and
    ``answer`` is None when the challenge had no answer among the pairs."""
    line = []
    pair = start
    while pair is not None:
        _, move, answers = removed[pair]
        answer = min(answers, key=lambda p: removed[p][0], default=None)
        line.append((pair, move, answer))
        pair = answer
    return line


# ---------------------------------------------------------------------------
# Matchings

_EMPTY = frozenset()
_ROOT = (_EMPTY, _EMPTY, _EMPTY)


def _strict_order(c: ConfStruct, x: frozenset) -> frozenset:
    """All pairs (e1, e2) with e1 strictly below e2 in x."""
    return frozenset(
        (e1, e2) for e1 in x for e2 in x if e1 != e2 and causes(c, x, e1, e2)
    )


def _is_matching(
    order1: frozenset, order2: frozenset, pairs: Iterable, both_ways: bool
) -> bool:
    f = dict(pairs)
    for e1, e2 in order1:
        if e1 in f and e2 in f and (f[e1], f[e2]) not in order2:
            return False
    if both_ways:
        inv = {v: k for k, v in f.items()}
        for e1, e2 in order2:
            if e1 in inv and e2 in inv and (inv[e1], inv[e2]) not in order1:
                return False
    return True


def matchings(
    a: ConfStruct,
    x1: frozenset,
    b: ConfStruct,
    x2: frozenset,
    both_ways: bool = True,
    orders: tuple | None = None,
) -> list[frozenset]:
    """Label-preserving, order-preserving bijections between x1 and x2.

    ``orders`` may hold the ``_strict_order`` of x1 and of x2."""
    if len(x1) != len(x2):
        return []
    groups1: dict = {}
    for e in x1:
        groups1.setdefault(_lkey(a.labels[e]), []).append(e)
    groups2: dict = {}
    for e in x2:
        groups2.setdefault(_lkey(b.labels[e]), []).append(e)
    if set(groups1) != set(groups2):
        return []
    if any(len(groups1[k]) != len(groups2[k]) for k in groups1):
        return []
    order1, order2 = orders or (_strict_order(a, x1), _strict_order(b, x2))
    keys = sorted(groups1)
    chunks = [sorted(groups1[k], key=_ekey) for k in keys]
    results = []

    def assemble(index: int, pairs: tuple):
        if index == len(keys):
            if _is_matching(order1, order2, pairs, both_ways):
                results.append(frozenset(pairs))
            return
        left = chunks[index]
        for perm in permutations(sorted(groups2[keys[index]], key=_ekey)):
            assemble(index + 1, pairs + tuple(zip(left, perm)))

    assemble(0, ())
    return results


# ---------------------------------------------------------------------------
# HHPB


def _all_triples(a: ConfStruct, b: ConfStruct, both_ways: bool) -> set:
    orders1 = {x: _strict_order(a, x) for x in a.configs}
    orders2 = {x: _strict_order(b, x) for x in b.configs}
    triples = set()
    for x1 in a.configs:
        for x2 in b.configs:
            orders = (orders1[x1], orders2[x2])
            for f in matchings(a, x1, b, x2, both_ways, orders):
                triples.add((x1, x2, f))
    return triples


def _step_key(c: ConfStruct) -> Callable:
    """Sort key on the ``(event, config)`` steps of c: the event's place in
    the ``_ekey`` order, ranked once per structure."""
    rank = {e: k for k, e in enumerate(sorted(c.events, key=_ekey))}
    return lambda step: rank[step[0]]


def _hhpb_moves(a: ConfStruct, b: ConfStruct) -> Callable:
    """The HHPB challenges at a triple ``(x1, x2, f)``: a generator of
    ``((side, direction, event), answers)``, forward before backward,
    side 1 before side 2, events in ``_ekey`` order."""
    # One key per side: a and b may share event identities.
    key1, key2 = _step_key(a), _step_key(b)

    def moves(triple):
        x1, x2, f = triple
        # Answers in _ekey order too: which of several tied answers a
        # play reports must not depend on the iteration order of sets.
        steps1 = sorted(config_steps(a, x1), key=key1)
        steps2 = sorted(config_steps(b, x2), key=key2)
        for e1, y1 in steps1:
            yield (1, "forward", e1), [(y1, y2, f | {(e1, e2)}) for e2, y2 in steps2]
        for e2, y2 in steps2:
            yield (2, "forward", e2), [(y1, y2, f | {(e1, e2)}) for e1, y1 in steps1]
        image = dict(f)
        for e1, y1 in sorted(config_backsteps(a, x1), key=key1):
            e2 = image[e1]
            yield (1, "backward", e1), [(y1, x2 - {e2}, f - {(e1, e2)})]
        preimage = {e2: e1 for e1, e2 in f}
        for e2, y2 in sorted(config_backsteps(b, x2), key=key2):
            e1 = preimage[e2]
            yield (2, "backward", e2), [(x1 - {e1}, y2, f - {(e1, e2)})]

    return moves


def hhpb(a: ConfStruct, b: ConfStruct) -> Verdict:
    """Hereditary history preserving bisimilarity by fixpoint refinement."""
    candidates = _all_triples(a, b, both_ways=False)
    live, removed = _refine(candidates, _hhpb_moves(a, b))
    if _ROOT in live:
        return Verdict("equivalent", witness=TripleRelation(frozenset(live)))
    if _ROOT not in candidates:
        return Verdict(
            "distinguished", evidence={"reason": "no root triple", "play": []}
        )
    structs = (a, b)
    names = (event_names(a), event_names(b))
    play = []
    for (_, _, f), (side, direction, event), answer in _losing_line(removed, _ROOT):
        move = {
            "side": side,
            "direction": direction,
            "event": names[side - 1][event],
            "label": str(structs[side - 1].labels[event]),
            "answer": None,
        }
        if answer is not None:
            # The answer adds or drops exactly one matched pair; its
            # other-side event is the defender's move.
            (matched,) = answer[2] ^ f
            move["answer"] = names[2 - side][matched[2 - side]]
        play.append(move)
    return Verdict("distinguished", evidence={"play": play})


# ---------------------------------------------------------------------------
# Level-indexed approximations


@dataclass(frozen=True)
class LevelFamilies:
    forward: dict = field(hash=False)
    backward: dict = field(hash=False)
    forward_sym: dict = field(hash=False)
    backward_sym: dict = field(hash=False)


def forw_backw_levels(a: ConfStruct, b: ConfStruct) -> LevelFamilies:
    """Card-indexed forward/backward families, literal one-sided form
    plus a symmetrised variant.

    A triple is in forward[i] when every forward HHPB challenge at it has
    an answer in forward[i + 1], and a maximal configuration is matched
    only by a maximal one; it is in backward[i] when it is in forward[i]
    and every backward challenge has an answer in forward[i - 1] and
    backward[i - 1]. The one-sided form reads only side 1's challenges.
    """
    depth = max(
        [len(x) for x in a.configs] + [len(x) for x in b.configs]
    )
    by_card: dict[int, list] = {i: [] for i in range(depth + 1)}
    for triple in _all_triples(a, b, both_ways=False):
        by_card[len(triple[0])].append(triple)
    moves = _hhpb_moves(a, b)

    def answered(triple, direction: str, level: frozenset, symmetric: bool):
        return all(
            any(answer in level for answer in answers)
            for (side, kind, _), answers in moves(triple)
            if kind == direction and (symmetric or side == 1)
        )

    def forward_member(triple, upper: frozenset, symmetric: bool) -> bool:
        max1, max2 = is_maximal(a, triple[0]), is_maximal(b, triple[1])
        if max1 or max2:
            return max1 and max2
        return answered(triple, "forward", upper, symmetric)

    families: dict[bool, tuple[dict, dict]] = {}
    for symmetric in (False, True):
        forward: dict[int, frozenset] = {}
        upper: frozenset = frozenset()
        for i in range(depth, -1, -1):
            forward[i] = frozenset(
                t for t in by_card[i] if forward_member(t, upper, symmetric)
            )
            upper = forward[i]
        backward: dict[int, frozenset] = {0: forward[0]}
        for i in range(1, depth + 1):
            lower = forward[i - 1] & backward[i - 1]
            backward[i] = frozenset(
                t for t in forward[i] if answered(t, "backward", lower, symmetric)
            )
        families[symmetric] = (forward, backward)
    return LevelFamilies(
        forward=families[False][0],
        backward=families[False][1],
        forward_sym=families[True][0],
        backward_sym=families[True][1],
    )


# ---------------------------------------------------------------------------
# Barbed bisimulations


def _barbed_bisim(side1: tuple, side2: tuple) -> Verdict:
    """Greatest symmetric relation matching observations and, per move
    kind, simulating moves in both directions.

    Each side is ``(states, observe, render)``: the game starts from the
    first of ``states`` and runs on every state reachable from them;
    ``observe(state)`` returns what an observer sees and a map from each
    move kind to the successor states; ``render(state)`` prints a state.
    """
    names, seen, succ = zip(*(_explore(*side) for side in (side1, side2)))
    pairs = [(i, j) for i in range(len(names[0])) for j in range(len(names[1]))]

    def challenges(pair):
        i, j = pair
        for kind in succ[0][i]:
            for i2 in succ[0][i][kind]:
                yield (1, kind, i2), [(i2, j2) for j2 in succ[1][j][kind]]
            for j2 in succ[1][j][kind]:
                yield (2, kind, j2), [(i2, j2) for i2 in succ[0][i][kind]]

    live, removed = _refine(
        pairs, challenges, [(i, j) for i, j in pairs if seen[0][i] != seen[1][j]]
    )
    if (0, 0) in live:
        witness = sorted((names[0][i], names[1][j]) for i, j in live)
        return Verdict("equivalent", witness=witness)
    play = []
    for (i, j), move, answer in _losing_line(removed, (0, 0)):
        if move is None:
            play.append(
                {
                    "barbs_left": sorted(map(str, seen[0][i])),
                    "barbs_right": sorted(map(str, seen[1][j])),
                }
            )
        else:
            side, kind, successor = move
            play.append(
                {
                    "side": side,
                    "move": kind,
                    "to": names[side - 1][successor],
                    "answer": None
                    if answer is None
                    else names[2 - side][answer[2 - side]],
                }
            )
    return Verdict("distinguished", evidence={"play": play})


def _explore(states: Iterable, observe: Callable, render: Callable) -> tuple:
    """Every state reachable from ``states``, numbered in order of
    discovery and observed once: per number, the printed state, the
    observation and the successors by move kind. Terms and processes
    recompute their hashes on every lookup, so the game runs on the
    numbers. Successors are listed in the order of their printed forms,
    so evidence does not depend on hash order."""
    order = list(dict.fromkeys(states))
    number = {s: i for i, s in enumerate(order)}
    names = [render(s) for s in order]
    seen, succ = [], []

    def position(state) -> int:
        i = number.get(state)
        if i is None:
            i = number[state] = len(order)
            order.append(state)
            names.append(render(state))
        return i

    for state in order:  # grows while new successors turn up
        barbs, moves = observe(state)
        seen.append(barbs)
        succ.append(
            {
                kind: sorted(map(position, targets), key=names.__getitem__)
                for kind, targets in moves.items()
            }
        )
    return names, seen, succ


def ccs_barbed_bisim(p: Term, q: Term) -> Verdict:
    """Reduction-closed, barb-preserving bisimulation on CCS terms."""

    def observe_term(t: Term) -> tuple:
        tau = frozenset(canonical_term(d) for label, d in ccs_step(t) if label.is_tau)
        return barbs(t), {"tau": tau}

    return _barbed_bisim(
        ([canonical_term(p)], observe_term, format_term),
        ([canonical_term(q)], observe_term, format_term),
    )


def rccs_bfb_bisim(r: Process, s: Process) -> Verdict:
    """Back-and-forth barbed bisimulation on reversible processes."""

    def observe_state(state: Process) -> tuple:
        barbs, fwd, bwd = observe(state)
        return barbs, {"tau+": fwd, "tau-": bwd}

    return _barbed_bisim(
        ([normal_form(r)], observe_state, format_process),
        ([normal_form(s)], observe_state, format_process),
    )


def cs_bfb_barbed_bisim(a: ConfStruct, b: ConfStruct) -> Verdict:
    """Back-and-forth barbed bisimulation on configurations."""

    def side(struct: ConfStruct) -> tuple:
        names = event_names(struct)

        def tau(steps) -> frozenset:
            return frozenset(
                y
                for e, y in steps
                if isinstance(struct.labels[e], Label) and struct.labels[e].is_tau
            )

        return (
            [_EMPTY, *struct.configs],
            lambda x: (
                barbs_at(struct, x),
                {
                    "tau+": tau(config_steps(struct, x)),
                    "tau-": tau(config_backsteps(struct, x)),
                },
            ),
            lambda x: "{" + ",".join(sorted(names[e] for e in x)) + "}",
        )

    return _barbed_bisim(side(a), side(b))


# ---------------------------------------------------------------------------
# Discriminating contexts and bounded congruence


def discriminating_context(
    x: frozenset, labels: dict, avoid: Iterable
) -> CcsContext:
    """A parallel guard per event: the label's complement summed with a
    fresh observer name."""
    order = sorted(x, key=lambda e: (_lkey(labels[e]), _ekey(e)))
    for event in order:
        label = labels[event]
        if not isinstance(label, Label) or label.is_tau:
            raise TauEventInConfig(f"event {event!r} carries {label!r}")
    stream = fresh_names(frozenset(avoid), "c")
    fresh = {event: name for event, name in zip(order, stream)}
    context: CcsContext = HOLE
    for event in reversed(order):
        guard = Sum(
            ((complement(labels[event]), NIL), (inp(fresh[event]), NIL))
        )
        context = CPar(guard, context)
    return context


def bounded_congruence(
    r: Process, s: Process, contexts: list[CcsContext]
) -> Verdict:
    """Back-and-forth barbed equivalence under each supplied context.

    A positive verdict is explicitly bounded: only the given contexts
    are checked.
    """
    orig_r = origin(r)
    orig_s = origin(s)
    checked = []
    for context in contexts:
        rr = instantiate_context(context, orig_r)
        ss = instantiate_context(context, orig_s)
        verdict = rccs_bfb_bisim(rr, ss)
        if verdict.outcome == "distinguished":
            return Verdict(
                "distinguished",
                evidence={
                    "context": format_context(context),
                    "inner": verdict.evidence,
                },
            )
        checked.append(format_context(context))
    return Verdict("bounded-equivalent", witness={"contexts": checked})


def _enumerated_parallel_contexts(names: Iterable[str], depth: int) -> list:
    """One parallel composition of up to ``depth`` observer prefixes per
    multiset, since ``|`` is commutative and associative: the components
    are added in nondecreasing order, depth first."""
    components = []
    for name in sorted(names):
        components.append(prefix_term(inp(name)))
        components.append(prefix_term(out(name)))
    contexts = []

    def build(context: CcsContext, remaining: int, start: int):
        if remaining == 0:
            return
        for k in range(start, len(components)):
            extended = CPar(components[k], context)
            contexts.append(extended)
            build(extended, remaining - 1, k)

    build(HOLE, depth, 0)
    return contexts


def congruence_contexts(p: Term, q: Term, depth: int) -> list[CcsContext]:
    """The contexts a bounded congruence check of p and q runs under: the
    hole, a discriminating context per non-empty configuration without
    tau events in either encoding, then a parallel composition of up to
    ``depth`` observer prefixes per multiset of them, without repeats.

    Counts them first and raises ValueError past MAX_CONTEXTS."""
    if depth < 0:
        raise ValueError(f"context depth must be at least 0, got {depth}")
    avoid = all_names(p) | all_names(q)
    contexts = {format_context(HOLE): HOLE}
    for struct in (encode_ccs(p), encode_ccs(q)):
        for x in struct.sorted_configs():
            if x and all(
                isinstance(struct.labels[e], Label) and not struct.labels[e].is_tau
                for e in x
            ):
                context = discriminating_context(x, struct.labels, avoid)
                contexts.setdefault(format_context(context), context)
    # Multisets of 1..depth of the 2 * len(avoid) prefixes; none prints
    # like the hole or a guard.
    count = len(contexts) + comb(2 * len(avoid) + depth, depth) - 1
    if count > MAX_CONTEXTS:
        raise ValueError(f"{count} contexts exceed the limit of {MAX_CONTEXTS}")
    for context in _enumerated_parallel_contexts(avoid, depth):
        contexts.setdefault(format_context(context), context)
    return list(contexts.values())


@dataclass
class MainTheoremReport:
    hhpb: Verdict
    congruence: Verdict
    agree: bool
    context_count: int
    singly_labelled: bool = True

    def to_jsonable(self) -> dict:
        return {
            "hhpb": self.hhpb.to_jsonable(),
            "congruence": self.congruence.to_jsonable(),
            "agree": self.agree,
            "contexts": self.context_count,
            "singly_labelled": self.singly_labelled,
        }


def main_theorem_check(p: Term, q: Term, depth_bound: int = 2) -> MainTheoremReport:
    """Cross-check: the structures are hereditarily history preserving
    bisimilar exactly when no checked context separates the processes.

    The correspondence is only guaranteed for singly labelled terms; the
    report records whether that precondition held.
    """
    cp = encode_ccs(p)
    cq = encode_ccs(q)
    singly = is_singly_labelled(cp) and is_singly_labelled(cq)
    verdict = hhpb(cp, cq)
    contexts = congruence_contexts(p, q, depth_bound)
    congruence = bounded_congruence(
        Thread((), p), Thread((), q), contexts
    )
    agree = (verdict.outcome == "equivalent") == (
        congruence.outcome != "distinguished"
    )
    return MainTheoremReport(
        hhpb=verdict,
        congruence=congruence,
        agree=agree,
        context_count=len(contexts),
        singly_labelled=singly,
    )
