"""Differential test of the shared refinement engine.

The reference below is the earlier implementation, in which HHPB and the
barbed bisimulations each ran their own round-wise refinement loop and
losing-play walk, and the level families tested membership directly
instead of reading the HHPB challenges. On a seeded corpus of term pairs
the engine-based checkers must return the same verdicts, witnesses,
evidence plays and level tables, and every HHPB losing play must replay
as a win for the attacker.

The former context generator, which enumerated parallel observer
contexts as sequences, is the reference for the multiset enumeration:
on singly labelled pairs both give the same bounded congruence outcome.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from rccs.terms import (
    CPar,
    HOLE,
    Label,
    NIL,
    Par,
    Res,
    Sum,
    Term,
    all_names,
    barbs,
    canonical_term,
    ccs_step,
    format_term,
    inp,
    out,
    prefix_term,
)
from rccs.machine import (
    Process,
    Thread,
    bwd_steps,
    format_process,
    fwd_steps,
    normal_form,
)
from rccs.structures import (
    ConfStruct,
    EventCapExceeded,
    _ekey,
    barbs_at,
    config_backsteps,
    config_steps,
    event_names,
    is_maximal,
)
from rccs.encoding import encode_ccs, is_singly_labelled
from rccs.equivalences import (
    LevelFamilies,
    TripleRelation,
    Verdict,
    _all_triples,
    bounded_congruence,
    ccs_barbed_bisim,
    congruence_contexts,
    cs_bfb_barbed_bisim,
    forw_backw_levels,
    hhpb,
    matchings,
    rccs_bfb_bisim,
)

from generators import expanded, random_singly_term, random_term

_ROOT = (frozenset(), frozenset(), frozenset())


# ---------------------------------------------------------------------------
# Reference: HHPB with its own violation scan, loop and play walk


def _ref_hhpb_violation(triple, live, candidates, a, b):
    x1, x2, f = triple
    fwd = dict(f)
    inv = {v: k for k, v in fwd.items()}
    # Answers in _ekey order too, so a tied play does not depend on hash order.
    steps1 = sorted(config_steps(a, x1), key=lambda s: _ekey(s[0]))
    steps2 = sorted(config_steps(b, x2), key=lambda s: _ekey(s[0]))
    for e1, y1 in steps1:
        answers = [(y1, y2, f | {(e1, e2)}) for e2, y2 in steps2]
        answers = [t for t in answers if t in candidates]
        if not any(t in live for t in answers):
            return (1, "forward", e1, answers)
    for e2, y2 in steps2:
        answers = [(y1, y2, f | {(e1, e2)}) for e1, y1 in steps1]
        answers = [t for t in answers if t in candidates]
        if not any(t in live for t in answers):
            return (2, "forward", e2, answers)
    for e1, y1 in sorted(config_backsteps(a, x1), key=lambda s: _ekey(s[0])):
        e2 = fwd[e1]
        y2 = x2 - {e2}
        answer = (y1, y2, f - {(e1, e2)})
        answers = [answer] if y2 in b.configs and answer in candidates else []
        if not any(t in live for t in answers):
            return (1, "backward", e1, answers)
    for e2, y2 in sorted(config_backsteps(b, x2), key=lambda s: _ekey(s[0])):
        e1 = inv[e2]
        y1 = x1 - {e1}
        answer = (y1, y2, f - {(e1, e2)})
        answers = [answer] if y1 in a.configs and answer in candidates else []
        if not any(t in live for t in answers):
            return (2, "backward", e2, answers)
    return None


def _ref_losing_play(removed, root, names1, names2, a, b):
    play = []
    triple = root
    while True:
        _, (side, direction, event, answers) = removed[triple]
        struct, names = (a, names1) if side == 1 else (b, names2)
        move = {
            "side": side,
            "direction": direction,
            "event": names[event],
            "label": str(struct.labels[event]),
        }
        answered = [(removed[t][0], t) for t in answers]
        if not answered:
            move["answer"] = None
            play.append(move)
            return play
        _, best = min(answered, key=lambda item: item[0])
        ox1, ox2, _ = triple
        nx1, nx2, _ = best
        answer_event = next(iter((nx2 ^ ox2) if side == 1 else (nx1 ^ ox1)))
        other_names = names2 if side == 1 else names1
        move["answer"] = other_names[answer_event]
        play.append(move)
        triple = best


def ref_hhpb(a: ConfStruct, b: ConfStruct) -> Verdict:
    candidates = _all_triples(a, b, both_ways=False)
    live = set(candidates)
    removed: dict = {}
    rounds = 0
    while True:
        rounds += 1
        stale = []
        for triple in live:
            reason = _ref_hhpb_violation(triple, live, candidates, a, b)
            if reason is not None:
                stale.append((triple, reason))
        if not stale:
            break
        for triple, reason in stale:
            live.discard(triple)
            removed[triple] = (rounds, reason)
    if _ROOT in live:
        return Verdict("equivalent", witness=TripleRelation(frozenset(live)))
    if _ROOT not in candidates:
        return Verdict(
            "distinguished", evidence={"reason": "no root triple", "play": []}
        )
    play = _ref_losing_play(removed, _ROOT, event_names(a), event_names(b), a, b)
    return Verdict("distinguished", evidence={"play": play})


# ---------------------------------------------------------------------------
# Reference: level families by direct membership tests


def _ref_forward_member(
    triple, a: ConfStruct, b: ConfStruct, upper: frozenset, symmetric: bool
) -> bool:
    x1, x2, f = triple
    max1 = is_maximal(a, x1)
    max2 = is_maximal(b, x2)
    if max1 or max2:
        return max1 and max2
    for e1, y1 in config_steps(a, x1):
        if not any(
            (y1, y2, f | {(e1, e2)}) in upper for e2, y2 in config_steps(b, x2)
        ):
            return False
    if symmetric:
        for e2, y2 in config_steps(b, x2):
            if not any(
                (y1, y2, f | {(e1, e2)}) in upper
                for e1, y1 in config_steps(a, x1)
            ):
                return False
    return True


def _ref_backward_member(
    triple, a: ConfStruct, b: ConfStruct, lower: frozenset, symmetric: bool
) -> bool:
    x1, x2, f = triple
    fwd = dict(f)
    inv = {v: k for k, v in fwd.items()}
    for e1, y1 in config_backsteps(a, x1):
        e2 = fwd[e1]
        y2 = x2 - {e2}
        if y2 not in b.configs or (y1, y2, f - {(e1, e2)}) not in lower:
            return False
    if symmetric:
        for e2, y2 in config_backsteps(b, x2):
            e1 = inv[e2]
            y1 = x1 - {e1}
            if y1 not in a.configs or (y1, y2, f - {(e1, e2)}) not in lower:
                return False
    return True


def ref_forw_backw_levels(a: ConfStruct, b: ConfStruct) -> LevelFamilies:
    depth = max(
        [len(x) for x in a.configs] + [len(x) for x in b.configs]
    )
    by_card: dict[int, list] = {i: [] for i in range(depth + 1)}
    for triple in _all_triples(a, b, both_ways=False):
        by_card[len(triple[0])].append(triple)

    families: dict[bool, tuple[dict, dict]] = {}
    for symmetric in (False, True):
        forward: dict[int, frozenset] = {}
        upper: frozenset = frozenset()
        for i in range(depth, -1, -1):
            forward[i] = frozenset(
                t
                for t in by_card[i]
                if _ref_forward_member(t, a, b, upper, symmetric)
            )
            upper = forward[i]
        backward: dict[int, frozenset] = {0: forward[0]}
        for i in range(1, depth + 1):
            lower = forward[i - 1] & backward[i - 1]
            backward[i] = frozenset(
                t
                for t in forward[i]
                if _ref_backward_member(t, a, b, lower, symmetric)
            )
        families[symmetric] = (forward, backward)
    return LevelFamilies(
        forward=families[False][0],
        backward=families[False][1],
        forward_sym=families[True][0],
        backward_sym=families[True][1],
    )


# ---------------------------------------------------------------------------
# Reference: barbed pair refinement with its own loop and play walk


def _closure(starts: Iterable, successors: Callable) -> set:
    seen = set()
    stack = list(starts)
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        stack.extend(successors(state))
    return seen


def _ref_pair_refine(
    states1: Iterable,
    states2: Iterable,
    moves1: dict,
    moves2: dict,
    obs1: dict,
    obs2: dict,
    start: tuple,
    render1: Callable,
    render2: Callable,
) -> Verdict:
    # Successors are challenged in the order of their printed forms, which
    # does not depend on hash order.
    def in_order(moves: dict, render: Callable) -> dict:
        return {
            s: {kind: sorted(ts, key=render) for kind, ts in m.items()}
            for s, m in moves.items()
        }

    moves1, moves2 = in_order(moves1, render1), in_order(moves2, render2)
    removed: dict = {}
    live = set()
    for s in states1:
        for t in states2:
            if obs1[s] == obs2[t]:
                live.add((s, t))
            else:
                removed[(s, t)] = (0, ("barb", None, None, []))
    rounds = 0
    while True:
        rounds += 1
        stale = []
        for s, t in live:
            reason = None
            for kind in moves1[s]:
                for s2 in moves1[s][kind]:
                    answers = [(s2, t2) for t2 in moves2[t][kind]]
                    if not any(p in live for p in answers):
                        reason = (1, kind, s2, answers)
                        break
                if reason:
                    break
                for t2 in moves2[t][kind]:
                    answers = [(s2, t2) for s2 in moves1[s][kind]]
                    if not any(p in live for p in answers):
                        reason = (2, kind, t2, answers)
                        break
                if reason:
                    break
            if reason:
                stale.append(((s, t), reason))
        if not stale:
            break
        for pair, reason in stale:
            live.discard(pair)
            removed[pair] = (rounds, reason)
    if start in live:
        witness = sorted((render1(s), render2(t)) for s, t in live)
        return Verdict("equivalent", witness=witness)
    path = []
    pair = start
    while True:
        _, (side, kind, successor, answers) = removed[pair]
        if side == "barb" or kind is None:
            s, t = pair
            path.append(
                {
                    "barbs_left": sorted(map(str, obs1[s])),
                    "barbs_right": sorted(map(str, obs2[t])),
                }
            )
            break
        step = {
            "side": side,
            "move": kind,
            "to": render1(successor) if side == 1 else render2(successor),
        }
        answered = [(removed[p][0], p) for p in answers if p in removed]
        if not answered:
            step["answer"] = None
            path.append(step)
            break
        _, best = min(answered, key=lambda item: item[0])
        step["answer"] = render2(best[1]) if side == 1 else render1(best[0])
        path.append(step)
        pair = best
    return Verdict("distinguished", evidence={"play": path})


def ref_ccs_barbed_bisim(p: Term, q: Term) -> Verdict:
    p0 = canonical_term(p)
    q0 = canonical_term(q)

    def tau_succs(t: Term) -> frozenset:
        return frozenset(
            canonical_term(d) for label, d in ccs_step(t) if label.is_tau
        )

    states1 = _closure([p0], tau_succs)
    states2 = _closure([q0], tau_succs)
    moves1 = {s: {"tau": tau_succs(s)} for s in states1}
    moves2 = {s: {"tau": tau_succs(s)} for s in states2}
    obs1 = {s: barbs(s) for s in states1}
    obs2 = {s: barbs(s) for s in states2}
    return _ref_pair_refine(
        states1, states2, moves1, moves2, obs1, obs2, (p0, q0),
        format_term, format_term,
    )


def former_observe(state: Process) -> tuple:
    """Barbs and normal tau-successors, read off the full transition sets."""
    fwd, bwd = fwd_steps(state), bwd_steps(state)
    return (
        frozenset(label for _, label, _ in fwd if not label.is_tau),
        frozenset(normal_form(t) for _, label, t in fwd if label.is_tau),
        frozenset(normal_form(t) for _, label, t in bwd if label.is_tau),
    )


def ref_rccs_bfb_bisim(r: Process, s: Process, readings=None) -> Verdict:
    """``readings`` memoises ``former_observe`` per state; a caller may
    pass one dict to share it across calls."""
    readings = {} if readings is None else readings

    def read(state: Process) -> tuple:
        if state not in readings:
            readings[state] = former_observe(state)
        return readings[state]

    def both(state: Process):
        return read(state)[1] | read(state)[2]

    r0, s0 = normal_form(r), normal_form(s)
    states1, states2 = _closure([r0], both), _closure([s0], both)
    moves1 = {st: {"tau+": read(st)[1], "tau-": read(st)[2]} for st in states1}
    moves2 = {st: {"tau+": read(st)[1], "tau-": read(st)[2]} for st in states2}
    obs1 = {st: read(st)[0] for st in states1}
    obs2 = {st: read(st)[0] for st in states2}
    return _ref_pair_refine(
        states1, states2, moves1, moves2, obs1, obs2, (r0, s0),
        format_process, format_process,
    )


def ref_cs_bfb_barbed_bisim(a: ConfStruct, b: ConfStruct) -> Verdict:
    def renderer(struct: ConfStruct):
        names = event_names(struct)
        return lambda x: "{" + ",".join(sorted(names[e] for e in x)) + "}"

    def tau_fwd(struct: ConfStruct):
        return lambda x: frozenset(
            y
            for e, y in config_steps(struct, x)
            if isinstance(struct.labels[e], Label) and struct.labels[e].is_tau
        )

    def tau_bwd(struct: ConfStruct):
        return lambda x: frozenset(
            y
            for e, y in config_backsteps(struct, x)
            if isinstance(struct.labels[e], Label) and struct.labels[e].is_tau
        )

    fwd1, bwd1 = tau_fwd(a), tau_bwd(a)
    fwd2, bwd2 = tau_fwd(b), tau_bwd(b)
    moves1 = {x: {"tau+": fwd1(x), "tau-": bwd1(x)} for x in a.configs}
    moves2 = {x: {"tau+": fwd2(x), "tau-": bwd2(x)} for x in b.configs}
    obs1 = {x: barbs_at(a, x) for x in a.configs}
    obs2 = {x: barbs_at(b, x) for x in b.configs}
    return _ref_pair_refine(
        a.configs, b.configs, moves1, moves2, obs1, obs2,
        (frozenset(), frozenset()), renderer(a), renderer(b),
    )


# ---------------------------------------------------------------------------
# Corpus


def _shuffled(rng: random.Random, term: Term) -> Term:
    """A structurally congruent copy: parallel operands and sum branches
    in a random order."""
    if isinstance(term, Par):
        left, right = _shuffled(rng, term.left), _shuffled(rng, term.right)
        return Par(right, left) if rng.random() < 0.5 else Par(left, right)
    if isinstance(term, Sum):
        branches = [(label, _shuffled(rng, cont)) for label, cont in term.branches]
        rng.shuffle(branches)
        return Sum(tuple(branches))
    if isinstance(term, Res):
        return Res(_shuffled(rng, term.body), term.name)
    return term


def _mutated(rng: random.Random, term: Term, depth: int = 0) -> Term:
    """A copy with one prefix below the top level flipped in polarity,
    so that the initial barbs usually survive and a difference shows
    only after some moves."""
    if isinstance(term, Par):
        if rng.random() < 0.5:
            return Par(_mutated(rng, term.left, depth), term.right)
        return Par(term.left, _mutated(rng, term.right, depth))
    if isinstance(term, Res):
        return Res(_mutated(rng, term.body, depth), term.name)
    if isinstance(term, Sum):
        branches = list(term.branches)
        i = rng.randrange(len(branches))
        label, cont = branches[i]
        if depth > 0 and (cont == NIL or rng.random() < 0.5):
            flipped = Label("out" if label.kind == "in" else "in", label.name)
            branches[i] = (flipped, cont)
        else:
            branches[i] = (label, _mutated(rng, cont, depth + 1))
        return Sum(tuple(branches))
    return term


def _corpus(seed: int, count: int) -> list[tuple[Term, Term]]:
    """Pairs over two names, so that labels repeat and synchronise: a
    quarter congruent copies, half deep mutants of a copy, a quarter
    unrelated terms. Half the left terms are parallel compositions,
    whose synchronisations give the barbed checkers longer plays."""
    rng = random.Random(seed)
    alphabet = ["a", "b"]
    pairs = []
    while len(pairs) < count:
        if rng.random() < 0.5:
            p = random_term(rng, max_prefixes=5, alphabet=alphabet)
        else:
            p = Par(
                random_term(rng, max_prefixes=3, alphabet=alphabet),
                random_term(rng, max_prefixes=3, alphabet=alphabet),
            )
        roll = rng.random()
        if roll < 0.25:
            q = _shuffled(rng, p)
        elif roll < 0.75:
            q = _mutated(rng, _shuffled(rng, p))
        else:
            q = random_term(rng, max_prefixes=5, alphabet=alphabet)
        pairs.append((p, q))
    return pairs


def _singly_pairs(seed: int, count: int) -> list[tuple[Term, Term]]:
    """Singly labelled pairs over two names: a third congruent shuffles, a
    third deep mutants of a shuffle, a third expansion-law pairs whose
    inner parallel pair sits below a prefix."""
    rng = random.Random(seed)
    labels = [inp("a"), out("a"), inp("b"), out("b")]
    pairs = []
    while len(pairs) < count:
        roll = rng.random()
        if roll < 2 / 3:
            p = random_singly_term(rng, max_prefixes=4, alphabet=["a", "b"])
            q = _shuffled(rng, p) if roll < 1 / 3 else _mutated(rng, _shuffled(rng, p))
        else:
            w, x, y, z = rng.sample(labels, 4)
            p = Par(prefix_term(w, Par(prefix_term(x), prefix_term(y))), prefix_term(z))
            q = expanded(p)
        if is_singly_labelled(p) and is_singly_labelled(q):
            pairs.append((p, q))
    return pairs


def ref_parallel_contexts(names: Iterable[str], depth: int) -> list:
    """Every sequence of up to ``depth`` observer prefixes, depth first."""
    components = []
    for name in sorted(names):
        components += [prefix_term(inp(name)), prefix_term(out(name))]
    contexts = []

    def build(context, remaining: int):
        if remaining == 0:
            return
        for component in components:
            extended = CPar(component, context)
            contexts.append(extended)
            build(extended, remaining - 1)

    build(HOLE, depth)
    return contexts


def _same(mine: Verdict, ref: Verdict):
    assert mine.to_jsonable() == ref.to_jsonable()
    assert mine.witness == ref.witness


# ---------------------------------------------------------------------------
# Replaying HHPB losing plays


def _replay_losing_play(a: ConfStruct, b: ConfStruct, play: list):
    """Check that the play is legal and that the defender is stuck at
    its end: every answer is a legal move, keeps the label and leaves a
    candidate triple, and the last challenge has no such answer."""
    structs = (a, b)
    by_name = [{v: k for k, v in event_names(s).items()} for s in structs]
    state = [frozenset(), frozenset()]
    f = frozenset()

    def step(side: int, event, direction: str):
        x = state[side - 1]
        y = x | {event} if direction == "forward" else x - {event}
        assert (event in x) == (direction == "backward")
        return y if y in structs[side - 1].configs else None

    def candidate(x1, x2, g) -> bool:
        return g in matchings(a, x1, b, x2, both_ways=False)

    def answers(side: int, event, direction: str):
        other = 3 - side
        label = structs[side - 1].labels[event]
        found = []
        pool = structs[other - 1].events - state[other - 1]
        if direction == "backward":
            pool = state[other - 1]
        for e in pool:
            y = step(other, e, direction)
            if y is None or structs[other - 1].labels[e] != label:
                continue
            pair = (event, e) if side == 1 else (e, event)
            g = f | {pair} if direction == "forward" else f - {pair}
            if direction == "backward" and pair not in f:
                continue
            ys = (step(side, event, direction), y)
            ys = ys if side == 1 else ys[::-1]
            if candidate(ys[0], ys[1], g):
                found.append((e, ys, g))
        return found

    assert play
    for index, move in enumerate(play):
        side, direction = move["side"], move["direction"]
        event = by_name[side - 1][move["event"]]
        assert str(structs[side - 1].labels[event]) == move["label"]
        assert step(side, event, direction) is not None
        options = answers(side, event, direction)
        if move["answer"] is None:
            assert index == len(play) - 1
            assert options == []
            return
        reply = by_name[2 - side][move["answer"]]
        chosen = [o for o in options if o[0] == reply]
        assert chosen, (move, options)
        _, ys, f = chosen[0]
        state = list(ys)
    raise AssertionError("play ends with an answered move")


# ---------------------------------------------------------------------------
# Tests


def test_engine_matches_reference_checkers():
    checked = 0
    for p, q in _corpus(seed=2024, count=520):
        try:
            a, b = encode_ccs(p), encode_ccs(q)
        except EventCapExceeded:
            continue
        mine = hhpb(a, b)
        _same(mine, ref_hhpb(a, b))
        if mine.outcome == "distinguished" and mine.evidence["play"]:
            _replay_losing_play(a, b, mine.evidence["play"])
        _same(cs_bfb_barbed_bisim(a, b), ref_cs_bfb_barbed_bisim(a, b))
        _same(ccs_barbed_bisim(p, q), ref_ccs_barbed_bisim(p, q))
        r, s = Thread((), p), Thread((), q)
        _same(rccs_bfb_bisim(r, s), ref_rccs_bfb_bisim(r, s))
        checked += 1
    assert checked >= 500


def test_level_families_match_reference():
    checked = populated = 0
    for p, q in _corpus(seed=77, count=520):
        try:
            a, b = encode_ccs(p), encode_ccs(q)
        except EventCapExceeded:
            continue
        mine, ref = forw_backw_levels(a, b), ref_forw_backw_levels(a, b)
        for family in ("forward", "backward", "forward_sym", "backward_sym"):
            assert getattr(mine, family) == getattr(ref, family), (p, q, family)
        checked += 1
        populated += any(ref.backward_sym.values())
    assert checked >= 500
    assert populated >= 200


def test_multiset_contexts_match_sequence_contexts():
    outcomes = {"bounded-equivalent": 0, "distinguished": 0}
    for p, q in _singly_pairs(seed=606, count=150):
        names = all_names(p) | all_names(q)
        # The hole and the guards, then the sequences.
        sequences = congruence_contexts(p, q, 0) + ref_parallel_contexts(names, 2)
        r, s = Thread((), p), Thread((), q)
        mine = bounded_congruence(r, s, congruence_contexts(p, q, 2))
        ref = bounded_congruence(r, s, sequences)
        assert mine.outcome == ref.outcome, (p, q)
        outcomes[mine.outcome] += 1
        if mine.outcome == "bounded-equivalent":
            # One context per multiset, in the order the sequences had.
            kept = set(mine.witness["contexts"])
            checked = ref.witness["contexts"]
            assert [c for c in checked if c in kept] == mine.witness["contexts"]
            assert len(kept) < len(checked)
    assert outcomes["distinguished"] >= 50, outcomes
