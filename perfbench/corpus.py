"""Seeded known-answer inputs for the rccs benchmark.

Terms are modelled here independently of rccs, as nested tuples:

    ("0",)                          nil
    ("sum", ((label, cont), ...))   guarded sum; one branch is a prefix
    ("par", left, right)
    ("res", body, name)

A label is a name ("a") or a co-name ("!a"); synchronisations show up
as "tau" in event multisets. Every answer the benchmark checks comes
from how an input was built or from the closed forms below, never from
rccs itself.

Operation ``i`` of a workload depends only on (workload, seed, i), so a
run can draw as many operations as its time allows and the same seed
always yields the same inputs. Its shape comes from a fixed set of
templates and the seed draws the rest (see SHAPES); its copies differ
only in their names (see MAX_COPIES). Warm-up operations come from a
separate stream with templates and names of its own.
"""

from __future__ import annotations

import random

EVENT_CAP = 16  # rccs's default RCCS_EVENT_CAP, which the benchmark runs at


NIL = ("0",)


# ---------------------------------------------------------------------------
# Term model


def prefix(label: str, cont=NIL):
    return ("sum", ((label, cont),))


def par_of(parts, rng: random.Random | None = None):
    """Parallel composition of parts: left-nested, or a random
    association tree when rng is given."""
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    if rng is None:
        term = parts[0]
        for part in parts[1:]:
            term = ("par", term, part)
        return term
    split = rng.randint(1, len(parts) - 1)
    return ("par", par_of(parts[:split], rng), par_of(parts[split:], rng))


def name_of(label: str) -> str:
    return label.lstrip("!")


def complementary(l1: str, l2: str) -> bool:
    if "tau" in (l1, l2):
        return False
    return name_of(l1) == name_of(l2) and l1.startswith("!") != l2.startswith("!")


def is_prefix(term) -> bool:
    return term[0] == "sum" and len(term[1]) == 1


def fmt(term) -> str:
    """rccs concrete syntax."""
    kind = term[0]
    if kind == "0":
        return "0"
    if kind == "sum":
        return " + ".join(
            label if cont == NIL else f"{label}.{_fmt_guarded(cont)}"
            for label, cont in term[1]
        )
    if kind == "par":
        return f"{_fmt_operand(term[1])} | {_fmt_operand(term[2])}"
    if kind == "res":
        return f"({fmt(term[1])}) \\ {term[2]}"
    raise TypeError(term)


def _fmt_guarded(cont) -> str:
    return fmt(cont) if is_prefix(cont) else f"({fmt(cont)})"


def _fmt_operand(term) -> str:
    return f"({fmt(term)})" if term[0] == "par" else fmt(term)


def threads(term) -> list:
    """Top-level parallel components, in order."""
    if term[0] == "par":
        return threads(term[1]) + threads(term[2])
    return [term]


def events(term) -> list[str]:
    """Labels of the events of the term's encoding, dead ones included.

    Restriction drops the events carrying the name but keeps the events
    they guard; parallel composition adds one tau event per
    complementary pair of events across it.
    """
    kind = term[0]
    if kind == "0":
        return []
    if kind == "sum":
        out = []
        for label, cont in term[1]:
            out.append(label)
            out.extend(events(cont))
        return out
    if kind == "par":
        left, right = events(term[1]), events(term[2])
        syncs = sum(1 for l1 in left for l2 in right if complementary(l1, l2))
        return left + right + ["tau"] * syncs
    if kind == "res":
        return [l for l in events(term[1]) if l == "tau" or name_of(l) != term[2]]
    raise TypeError(term)


def largest_structure(term) -> int:
    """Events of the largest structure the encoding builds, products included."""
    kind = term[0]
    if kind == "0":
        return 0
    if kind == "sum":
        largest, total = 0, 0
        for _, cont in term[1]:
            largest = max(largest, largest_structure(cont))
            total += 1 + len(events(cont))
            largest = max(largest, total)
        return largest
    if kind == "par":
        a, b = len(events(term[1])), len(events(term[2]))
        return max(
            largest_structure(term[1]), largest_structure(term[2]), a + b + a * b
        )
    if kind == "res":
        return largest_structure(term[1])
    raise TypeError(term)


def sync_free(term) -> bool:
    return "tau" not in events(term)


def choice_free(term) -> bool:
    """No sum of two or more branches, so no two events conflict."""
    kind = term[0]
    if kind == "sum":
        return len(term[1]) == 1 and choice_free(term[1][0][1])
    if kind == "par":
        return choice_free(term[1]) and choice_free(term[2])
    if kind == "res":
        return choice_free(term[1])
    return True


def configs(term, blocked: frozenset = frozenset()) -> int:
    """Configuration count of a synchronisation-free term (a lower bound
    otherwise, since synchronisations only add configurations):
    configs(a.P) = 1 + configs(P), configs(P + Q) = configs(P) +
    configs(Q) - 1, configs(P | Q) = configs(P) * configs(Q), and
    restriction prunes the branches its name guards."""
    kind = term[0]
    if kind == "0":
        return 1
    if kind == "sum":
        return 1 + sum(
            configs(cont, blocked)
            for label, cont in term[1]
            if name_of(label) not in blocked
        )
    if kind == "par":
        return configs(term[1], blocked) * configs(term[2], blocked)
    if kind == "res":
        return configs(term[1], blocked | {term[2]})
    raise TypeError(term)


def fits(term) -> bool:
    return largest_structure(term) <= EVENT_CAP


def overflows_intermediate(term) -> bool:
    return len(events(term)) <= EVENT_CAP < largest_structure(term)


def relabelled(term, rename):
    """The term with every name n replaced by rename(n)."""
    kind = term[0]
    if kind == "sum":
        return (
            "sum",
            tuple(
                (label[:-len(name_of(label))] + rename(name_of(label)), relabelled(cont, rename))
                for label, cont in term[1]
            ),
        )
    if kind == "par":
        return ("par", relabelled(term[1], rename), relabelled(term[2], rename))
    if kind == "res":
        return ("res", relabelled(term[1], rename), rename(term[2]))
    return term


def renamed(term, suffix: str):
    """The term with ``suffix`` appended to every name."""
    return relabelled(term, lambda name: name + suffix)


def names(term) -> set[str]:
    """Every name the term uses, restricted ones included."""
    kind = term[0]
    if kind == "sum":
        return {name_of(label) for label, _ in term[1]}.union(*(names(c) for _, c in term[1]))
    if kind == "par":
        return names(term[1]) | names(term[2])
    if kind == "res":
        return names(term[1]) | {term[2]}
    return set()


def shuffled_names(terms, rng: random.Random) -> list:
    """The terms under one random permutation of the names they use."""
    used = sorted(set().union(*map(names, terms)))
    mapping = dict(zip(used, rng.sample(used, len(used))))
    return [relabelled(term, mapping.__getitem__) for term in terms]


def variant(term, rng: random.Random):
    """A structurally congruent rewrite: summands and parallel components
    shuffled and parallel composition reassociated, at every depth."""
    kind = term[0]
    if kind == "sum":
        branches = [(label, variant(cont, rng)) for label, cont in term[1]]
        rng.shuffle(branches)
        return ("sum", tuple(branches))
    if kind == "par":
        parts = [variant(t, rng) for t in threads(term)]
        rng.shuffle(parts)
        return par_of(parts, rng)
    if kind == "res":
        return ("res", variant(term[1], rng), term[2])
    return term


def expansion(alpha_thread, beta_thread):
    """a.P | b.Q  ->  a.(P | b.Q) + b.(a.P | Q)."""
    (alpha, p), = alpha_thread[1]
    (beta, q), = beta_thread[1]

    def par2(x, y):
        return y if x == NIL else x if y == NIL else ("par", x, y)

    return (
        "sum",
        ((alpha, par2(p, prefix(beta, q))), (beta, par2(prefix(alpha, p), q))),
    )


def restricted_names(term) -> list[str]:
    """Names restricted by the outermost run of restrictions."""
    names = []
    while term[0] == "res":
        names.append(term[2])
        term = term[1]
    return names


def strip_res(term):
    while term[0] == "res":
        term = term[1]
    return term


def wrap_res(term, names):
    for name in reversed(names):
        term = ("res", term, name)
    return term


def expansion_preconditions(term, i: int, j: int) -> bool:
    """Top-level components i and j of ``term`` (under its outer
    restrictions) are prefixes a.P and b.Q with a and b not
    complementary and neither name restricted above them.

    Under these conditions the mutant has no HHPB (not even history
    preserving) match: the original has a configuration of pairwise
    concurrent initial events holding both a and b plus a largest such
    set from the other components, while in the mutant the new sum
    contributes at most one initial event to any configuration.
    """
    parts = threads(strip_res(term))
    if i == j or not (is_prefix(parts[i]) and is_prefix(parts[j])):
        return False
    alpha, beta = parts[i][1][0][0], parts[j][1][0][0]
    blocked = set(restricted_names(term))
    return (
        not complementary(alpha, beta)
        and name_of(alpha) not in blocked
        and name_of(beta) not in blocked
    )


def mutate(term, i: int, j: int, rng: random.Random):
    """The expansion-law mutant of term at top-level components i, j."""
    parts = threads(strip_res(term))
    rest = [t for k, t in enumerate(parts) if k not in (i, j)]
    rest = [variant(t, rng) for t in rest] + [expansion(parts[i], parts[j])]
    rng.shuffle(rest)
    return wrap_res(par_of(rest, rng), restricted_names(term))


# ---------------------------------------------------------------------------
# Drawing


def _rng(workload: str, seed: int, stream: str, index: int) -> random.Random:
    # String seeds hash with SHA-512, so draws do not depend on PYTHONHASHSEED.
    return random.Random(f"rccs-bench/{workload}/{seed}/{stream}/{index}")


# The shape of an operation (its term, or the left term of its pair) is
# one of SHAPES templates, drawn from a stream that does not depend on
# the seed; the seed draws a permutation of the template's names, the
# congruent variant or expansion mutant it is paired with, and the walk
# taken from it. A workload's cost is then much the same mix from seed
# to seed, so its percentiles move with the program, not with the draw.
#
# The templates repeat with period SHAPES, a multiple of every cycle in
# the strata below, and a run stops its first round at the end of a
# period (see workload.py), so that every run holds each template as
# often as every other: which templates a run holds does not then move
# with how fast it runs.
SHAPES = {"build": 40, "equiv": 160, "congruence": 10, "walk": 28}


def _shape_rng(workload: str, stream: str, stratum: int) -> random.Random:
    return random.Random(
        f"rccs-bench/{workload}/shapes/{stream}/{stratum % SHAPES[workload]}"
    )


def period_ends(workload: str, count: int) -> bool:
    """Whether the first ``count`` operations of the timed stream are the
    fixed cases and whole periods of templates."""
    drawn = count - len(FIXED[workload])
    return drawn >= 0 and drawn % SHAPES[workload] == 0


def _chain(rng, labels: list[str], length: int):
    term = NIL
    for _ in range(length):
        term = prefix(rng.choice(labels), term)
    return term


# The product search that precedes a refusal grows fast with the product:
# 24 events (a.b.c.d | e.f.g.h) take 0.04 s, 48 take 11 s. Overflow cases
# stay at or below this size, so that they are refused, not timed out.
OVERFLOW_MAX_PRODUCT = 24


def _in_category(terms, overflow: bool) -> bool:
    """All terms fit rccs's cap, or (for an overflow case) all final
    structures fit and some intermediate product does not."""
    if overflow:
        return (
            all(len(events(t)) <= EVENT_CAP for t in terms)
            and any(map(overflows_intermediate, terms))
            and max(map(largest_structure, terms)) <= OVERFLOW_MAX_PRODUCT
        )
    return all(map(fits, terms))


# Checking finite completeness enumerates every pairwise-compatible family
# of configurations, which doubles with each configuration of a
# conflict-free structure: 16 configurations take 0.1 s, the 32 of
# a|b|c|d|e more than nine minutes. One drawn build term in five is a
# choice- and synchronisation-free term of exactly HEAVY_CONFIGS
# configurations, the rest have at most LIGHT_MAX_CONFIGS (counted
# without synchronisations), so op_p90_ms falls inside the heavy group
# and op_p50_ms inside the light one; the fixed case a|b|c|d|e shows the
# blow-up.
HEAVY_EVERY = 5
HEAVY_CONFIGS = 16
LIGHT_MAX_CONFIGS = 12
# Synchronisations add configurations the count above misses, and with
# them product's search (which enumerates every subset of each candidate
# configuration) reaches seconds on products of 11 to 15 events. Terms
# that synchronise keep every product at or below this many events.
BUILD_MAX_SYNC_PRODUCT = 10


def _build_shape_ok(term, stratum: int) -> bool:
    if _overflow(stratum):
        return _in_category([term], True)
    if not fits(term):
        return False
    if stratum % HEAVY_EVERY == HEAVY_EVERY - 1:
        return sync_free(term) and choice_free(term) and configs(term) == HEAVY_CONFIGS
    return configs(term) <= LIGHT_MAX_CONFIGS and (
        sync_free(term) or largest_structure(term) <= BUILD_MAX_SYNC_PRODUCT
    )


def draw_build_term(rng: random.Random, stratum: int):
    """Parallel compositions of 2 to 4 prefix chains and guarded sums over
    a six-name alphabet with co-names, so some components synchronise,
    with occasional restrictions; at least 4 events."""
    labels = [n for n in "abcdef"] + [f"!{n}" for n in "abc"]
    while True:
        parts = []
        for _ in range((2, 3, 3, 4)[stratum % 4]):
            roll = rng.random()
            if roll < 0.55:
                part = _chain(rng, labels, rng.randint(1, 3))
            elif roll < 0.85:
                part = (
                    "sum",
                    tuple(
                        (rng.choice(labels), _chain(rng, labels, rng.randint(0, 2)))
                        for _ in range(rng.randint(2, 3))
                    ),
                )
            else:
                part = prefix(
                    rng.choice(labels),
                    ("par", _chain(rng, labels, 1), _chain(rng, labels, rng.randint(1, 2))),
                )
            if rng.random() < 0.15:
                part = ("res", part, name_of(rng.choice(events(part))))
            parts.append(part)
        term = par_of(parts)
        if rng.random() < 0.15:
            term = ("res", term, rng.choice("abc"))
        if len(events(term)) >= 4 and _build_shape_ok(term, stratum):
            return term


def _pair_threads(rng, draw_label, count: int) -> list:
    parts = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.55:
            parts.append(prefix(draw_label()))
        elif roll < 0.8:
            parts.append(prefix(draw_label(), prefix(draw_label())))
        elif roll < 0.92:
            parts.append(("sum", ((draw_label(), NIL), (draw_label(), NIL))))
        else:
            first = draw_label()
            parts.append(prefix(first, ("par", prefix(draw_label()), prefix(draw_label()))))
    return parts


REWRITE_TRIES = 8


def _rewrite(p, expect: str, rng: random.Random):
    """A congruent variant of p that differs from p in its text (one that
    reads as p itself would be an easy case of its own), or an expansion
    mutant of p; None if this draw has none."""
    if expect == "equivalent":
        q = variant(p, rng)
        return q if fmt(q) != fmt(p) else None
    parts = threads(strip_res(p))
    sites = [
        (i, j)
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
        if expansion_preconditions(p, i, j)
    ]
    return mutate(p, *rng.choice(sites), rng) if sites else None


def _draw_pair(shape, rng, labeler, threads, sizes, expect, overflow, restrict):
    """(p, q): p drawn from ``shape``, with ``threads`` top-level
    components and a number of events in ``sizes``; q drawn from ``rng``,
    a congruent variant of p, or an expansion mutant of p when expect is
    "distinguished". Each attempt at p draws its labels from a fresh
    ``labeler()``."""
    while True:
        draw_label = labeler()
        try:
            parts = _pair_threads(shape, draw_label, threads)
        except IndexError:  # a labeler without replacement ran out
            continue
        p = par_of(parts, shape)
        if restrict and shape.random() < 0.15:
            p = ("res", p, name_of(draw_label()))
        if len(events(p)) not in sizes:
            continue
        for _ in range(REWRITE_TRIES):
            q = _rewrite(p, expect, rng)
            if q is not None and _in_category([p, q], overflow):
                return p, q


# Operation i of a workload draws its stratum (component count, expected
# verdict, overflow case or not) from i, cycling, and its template from
# _shape_rng: every run then has the same mix of shapes, which keeps
# run-to-run spread down to the variation the seed brings.
#
# rccs refuses a term whose final structure fits the cap when one of its
# intermediate products does not (the known defect of building the full
# product first). One in OVERFLOW_EVERY drawn build and equiv operations
# is such a case, so the defect shows in decided_share without
# dominating it.
OVERFLOW_EVERY = 40


def _overflow(stratum: int) -> bool:
    return stratum % OVERFLOW_EVERY == OVERFLOW_EVERY - 1


def draw_equiv_pair(shape: random.Random, rng: random.Random, stratum: int):
    """Repeated labels and auto-concurrency over {a, b, c}, with co-names;
    2 to 5 components and 2 to 6 events; half variants, half mutants."""
    labels = ["a", "a", "a", "b", "b", "c", "!a", "!b"]
    expect = ("equivalent", "distinguished")[stratum % 2]
    threads = (2, 3, 4, 5)[stratum // 2 % 4]
    p, q = _draw_pair(
        shape, rng, lambda: lambda: shape.choice(labels), threads, range(2, 7), expect,
        _overflow(stratum), True,
    )
    return p, q, expect


def _distinct_labels(rng, count: int, alphabet: str = "abcdefghijklmnop", suffix="") -> list[str]:
    names = rng.sample(alphabet, count)
    return [f"!{n}{suffix}" if rng.random() < 0.25 else f"{n}{suffix}" for n in names]


def draw_congruence_pair(shape: random.Random, rng: random.Random, stratum: int):
    """Singly labelled pairs: each prefix has its own name, unique to the
    operation, so nothing synchronises and the caches are reused only
    across the contexts of one pair. Three in ten are mutants of three
    prefixes, told apart by the first context. The congruent variants
    are of a fixed shape each, a | b (five in ten, about 25 contexts)
    and a | b | c (two in ten, about 50 contexts), so that op_p50_ms and
    op_p90_ms each fall inside one shape rather than between two."""
    kind = stratum % 10
    if kind < 3:
        expect, size, threads = "distinguished", 3, 2 + kind % 2
    else:
        expect, size = "equivalent", 2 if kind < 8 else 3
        threads = size
    p, q = _draw_pair(
        shape,
        rng,
        lambda: _distinct_labels(shape, 6, "abcdef", stratum).pop,
        threads, (size,), expect, False, False,
    )
    return p, q, expect


# ---------------------------------------------------------------------------
# Random walks (singly labelled, synchronisation-free terms)


class WalkState:
    """A monitored term as the set of executed prefixes with their ids.

    Each prefix occurrence is an event. An event can run once its
    enclosing prefix has run and no other branch of its sum has; it can
    be undone once nothing it guards has run. For a term whose prefixes
    all carry distinct names this is exactly rccs's forward/backward
    semantics.
    """

    def __init__(self, term):
        self.term = term
        self.parent: list[int | None] = []
        self.sum_of: list[int] = []
        self.labels: list[str] = []
        self.sum_members: dict[int, list[int]] = {}
        self.executed: dict[int, int] = {}  # event -> memory id
        self.next_id = 1
        self._index(term, None, [0])

    def _index(self, term, parent, sums):
        kind = term[0]
        if kind == "sum":
            sums[0] += 1
            sid = sums[0]
            for label, cont in term[1]:
                event = len(self.labels)
                self.labels.append(label)
                self.parent.append(parent)
                self.sum_of.append(sid)
                self.sum_members.setdefault(sid, []).append(event)
                self._index(cont, event, sums)
        elif kind == "par":
            self._index(term[1], parent, sums)
            self._index(term[2], parent, sums)
        elif kind == "res":
            raise ValueError("walk terms carry no restriction")

    def forward(self) -> list[int]:
        return [
            e
            for e in range(len(self.labels))
            if e not in self.executed
            and (self.parent[e] is None or self.parent[e] in self.executed)
            and not any(m in self.executed for m in self.sum_members[self.sum_of[e]])
        ]

    def backward(self) -> list[int]:
        return [
            e
            for e in self.executed
            if not any(self.parent[f] == e for f in self.executed)
        ]

    def do(self, event: int) -> int:
        ident = self.next_id
        self.next_id += 1
        self.executed[event] = ident
        return ident

    def undo(self, event: int) -> int:
        return self.executed.pop(event)

    def render(self) -> str:
        """The process in rccs syntax, memories distributed over forks."""
        return self._render(self.term, [], [0])

    def _render(self, term, memory: list[str], counter: list[int]) -> str:
        # counter walks the events in the order _index numbered them
        kind = term[0]
        if kind == "par":
            left = self._render(term[1], ["*"] + memory, counter)
            right = self._render(term[2], ["*"] + memory, counter)
            return f"({left}) | ({right})"
        if kind == "sum":
            taken = None
            for k, (label, cont) in enumerate(term[1]):
                event = counter[0]
                if event in self.executed:
                    taken = (k, event, [event + 1])
                counter[0] += 1 + _prefix_count(cont)
            if taken is None:
                return ".".join(memory + ["{}"]) + " |> " + fmt(term)
            k, event, inner = taken
            label, cont = term[1][k]
            rest = term[1][:k] + term[1][k + 1 :]
            ident = self.executed[event]
            item = (
                f"<{ident},{label},{fmt(('sum', rest))}>"
                if rest
                else f"<{ident},{label}>"
            )
            return self._render(cont, [item] + memory, inner)
        return ".".join(memory + ["{}"]) + " |> 0"


def _prefix_count(term) -> int:
    kind = term[0]
    if kind == "sum":
        return sum(1 + _prefix_count(cont) for _, cont in term[1])
    if kind == "par":
        return _prefix_count(term[1]) + _prefix_count(term[2])
    return 0


def draw_walk_term(rng: random.Random, size: int):
    """``size`` prefixes, each with its own name, under prefixes, binary
    sums and parallel composition."""
    while True:
        labels = _distinct_labels(rng, size)
        term = _walk_term(rng, labels, size)
        if fits(term):
            return term


def _walk_term(rng, labels: list[str], size: int):
    if size == 0:
        return NIL
    roll = rng.random()
    if size >= 2 and roll < 0.3:
        k = rng.randint(1, size - 1)
        return ("par", _walk_term(rng, labels, k), _walk_term(rng, labels, size - k))
    if size >= 2 and roll < 0.5:
        k = rng.randint(1, size - 1)
        return (
            "sum",
            (
                (labels.pop(), _walk_term(rng, labels, k - 1)),
                (labels.pop(), _walk_term(rng, labels, size - k - 1)),
            ),
        )
    return prefix(labels.pop(), _walk_term(rng, labels, size - 1))


def draw_walk(shape: random.Random, rng: random.Random, stratum: int, suffix: str = "") -> tuple:
    """(term, process, trace, ids): a term of 6 to 12 prefixes drawn from
    ``shape`` (its names carrying ``suffix``), a coherent process reached
    from it by a random walk drawn from ``rng``, a replayable mixed trace
    of 10 to 30 steps from there, and the number of memory identifiers in
    the process."""
    term = renamed(draw_walk_term(shape, 6 + stratum % 7), suffix)
    state = WalkState(term)
    for _ in range(rng.randint(3, 12)):
        _walk_step(rng, state, 0.75)
    process, ids = state.render(), len(state.executed)
    lines = [_walk_step(rng, state, 0.6) for _ in range(rng.randint(10, 30))]
    return term, process, "\n".join(lines) + "\n", ids


def _walk_step(rng, state: WalkState, forward_bias: float) -> str:
    forward, backward = state.forward(), state.backward()
    if forward and (not backward or rng.random() < forward_bias):
        event = rng.choice(forward)
        return f"+ {state.do(event)}:{state.labels[event]}"
    event = rng.choice(backward)
    return f"- {state.undo(event)}:{state.labels[event]}"


# ---------------------------------------------------------------------------
# Operations


def _chain_of(names: str):
    term = NIL
    for name in reversed(names):
        term = prefix(name, term)
    return term


# The slow or refused cases the ROADMAP names, run first in every timed
# run: (name, left term, right term or None).
FIXED = {
    "build": [
        ("chains-6x6", par_of([_chain_of("abcdef"), _chain_of("ghijkl")]), None),
        ("chains-4x4", par_of([_chain_of("abcd"), _chain_of("efgh")]), None),
        ("axioms-a|b|c|d|e", par_of([prefix(n) for n in "abcde"]), None),
    ],
    "equiv": [
        ("hhpb-a|a|a|a|a", par_of([prefix("a")] * 5), par_of([prefix("a")] * 5)),
    ],
    "congruence": [
        ("congruence-a|b|c|d", par_of([prefix(n) for n in "abcd"]), par_of([prefix(n) for n in "abcd"])),
    ],
    "walk": [],
}

WORKLOADS = tuple(FIXED)


def _build_op(term, name=None) -> dict:
    return {
        "name": name,
        "term": fmt(term),
        "events": len(events(term)),
        "configs": configs(term) if sync_free(term) else None,
    }


def _pair_op(p, q, expect, name=None) -> dict:
    return {"name": name, "p": fmt(p), "q": fmt(q), "expect": expect}


# Each operation runs as several copies (see workload.py). Copy c renames
# every name with the suffix _c, so the copies do the same work on names
# no other copy uses and machine's caches give no copy a head start.
MAX_COPIES = 10


def copy_suffix(copy: int) -> str:
    if not 0 <= copy < MAX_COPIES:
        raise ValueError(f"copy {copy} out of range")
    return f"_{copy}"


def operation(
    workload: str, seed: int, index: int, stream: str = "run", copy: int = 0
) -> dict:
    """Copy ``copy`` of operation ``index`` of a workload's seeded stream;
    the timed stream ("run") opens with the workload's fixed cases. Other
    streams draw other templates and carry their name as a suffix, so
    they share no name with the timed stream."""
    suffix = copy_suffix(copy) if stream == "run" else f"_{stream}"
    fixed = FIXED[workload] if stream == "run" else []
    if index < len(fixed):
        name, p, q = fixed[index]
        if workload == "build":
            return _build_op(renamed(p, suffix), name)
        return _pair_op(renamed(p, suffix), renamed(q, suffix), "equivalent", name)
    stratum = index - len(fixed)
    shape = _shape_rng(workload, stream, stratum)
    rng = _rng(workload, seed, stream, stratum)
    if workload == "build":
        term, = shuffled_names([draw_build_term(shape, stratum)], rng)
        return _build_op(renamed(term, suffix))
    if workload in ("equiv", "congruence"):
        draw = draw_equiv_pair if workload == "equiv" else draw_congruence_pair
        p, q, expect = draw(shape, rng, stratum)
        p, q = shuffled_names([p, q], rng)
        return _pair_op(renamed(p, suffix), renamed(q, suffix), expect)
    # A walk's names carry its stratum as well, so that walks from one
    # template in different periods share no states in machine's caches.
    term, process, trace, ids = draw_walk(shape, rng, stratum, f"{stratum}{suffix}")
    return {
        "name": None,
        "process": process,
        "trace": trace,
        "ids": ids,
        "events": len(events(term)),
        "configs": configs(term),
    }
