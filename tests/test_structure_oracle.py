"""The structure layer against the exhaustive algorithms it replaced.

Four former implementations are kept here as oracles:

- finite completeness checked on every pairwise-compatible family of
  configurations, not only on pairs and triples;
- stability checked by scanning every configuration for an upper bound
  of each pair, in O(|C|^3);
- product configurations found by walking every injective set of
  candidate events and every subset of each, the definition read
  literally;
- ``parallel`` as the full product, relabelled so that every pair event
  that does not synchronise carries a zero label, then restricted to the
  events not labelled zero.

The fast versions must give the same verdicts and the same structures on
seeded random corpora.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

from rccs import encoding
from rccs.encoding import encode_ccs
from rccs.structures import (
    STAR,
    ConfStruct,
    EventCapExceeded,
    _check_cap,
    parallel,
    product,
    relabel,
    restrict_events,
    to_json,
    validate_axioms,
)
from rccs.terms import TAU, Label, Par, Res, Sum, Term, complement, inp

from generators import random_term


# ---------------------------------------------------------------------------
# Oracles


def exhaustive_finite_completeness(c: ConfStruct) -> tuple | None:
    """The first pairwise-compatible family, in sorted order, whose union
    is not a configuration."""
    configs = c.sorted_configs()
    n = len(configs)

    def bounded(x, y):
        return any(x | y <= z for z in c.configs)

    compatible = [[bounded(configs[i], configs[j]) for j in range(n)] for i in range(n)]
    witness: list[tuple] = []

    def extend(chosen: list[int], union: frozenset, start: int) -> bool:
        if len(chosen) >= 2 and union not in c.configs:
            witness.append(tuple(configs[i] for i in chosen))
            return False
        for j in range(start, n):
            if all(compatible[i][j] for i in chosen):
                if not extend(chosen + [j], union | configs[j], j + 1):
                    return False
        return True

    if not extend([], frozenset(), 0):
        return witness[0]
    return None


def cubic_stability(c: ConfStruct) -> tuple | None:
    """The first bounded pair, in sorted order, whose intersection is not
    a configuration."""
    configs = c.sorted_configs()
    for i, x in enumerate(configs):
        for y in configs[i + 1 :]:
            if any(x | y <= z for z in c.configs) and (x & y) not in c.configs:
                return (x, y)
    return None


def _proj1(x) -> frozenset:
    return frozenset(e[1] for e in x if e[1] is not STAR)


def _proj2(x) -> frozenset:
    return frozenset(e[2] for e in x if e[2] is not STAR)


def subset_walk_configs(a: ConfStruct, b: ConfStruct, candidates: list) -> list:
    """The sets of candidate pair events that use each event of a and of b
    at most once, project onto configurations of both, and separate every
    two of their events by a subset that does too."""
    _check_cap(len(candidates))

    def proj_valid(z: frozenset) -> bool:
        return _proj1(z) in a.configs and _proj2(z) in b.configs

    def coincidence_ok(x: tuple) -> bool:
        xset = frozenset(x)
        subsets = [frozenset()]
        for event in x:
            subsets += [s | {event} for s in subsets]
        valid = [s for s in subsets if proj_valid(s)]
        for i, e1 in enumerate(x):
            for e2 in x[i + 1 :]:
                if not any(
                    s <= xset and ((e1 in s) != (e2 in s)) for s in valid
                ):
                    return False
        return True

    configs: list[frozenset] = []

    def search(start: int, chosen: tuple, used1: frozenset, used2: frozenset):
        if proj_valid(frozenset(chosen)) and coincidence_ok(chosen):
            configs.append(frozenset(chosen))
        for k in range(start, len(candidates)):
            event = candidates[k]
            _, left, right = event
            if left is not STAR and left in used1:
                continue
            if right is not STAR and right in used2:
                continue
            search(
                k + 1,
                chosen + (event,),
                used1 | ({left} if left is not STAR else frozenset()),
                used2 | ({right} if right is not STAR else frozenset()),
            )

    search(0, (), frozenset(), frozenset())
    return configs


def subset_walk_product(a: ConfStruct, b: ConfStruct) -> ConfStruct:
    """The events of ``product``, with the configurations of the subset walk."""
    labels = {("pair", e1, STAR): a.labels[e1] for e1 in a.events}
    labels.update({("pair", STAR, e2): b.labels[e2] for e2 in b.events})
    labels.update(
        {
            ("pair", e1, e2): (a.labels[e1], b.labels[e2])
            for e1 in a.events
            for e2 in b.events
        }
    )
    return ConfStruct(labels, subset_walk_configs(a, b, list(labels)), labels)


ZERO = object()  # the label of product pairs that do not synchronise


def relabelling_parallel(a: ConfStruct, b: ConfStruct) -> ConfStruct:
    """Product by the subset walk, then synchronisation relabelling, then
    zero removal."""
    prod = subset_walk_product(a, b)

    def sync_label(event):
        label = prod.labels[event]
        if not isinstance(label, tuple):
            return label
        l1, l2 = label
        if (
            isinstance(l1, Label)
            and isinstance(l2, Label)
            and not l1.is_tau
            and not l2.is_tau
            and l2 == complement(l1)
        ):
            return TAU
        return ZERO

    relabelled = relabel(prod, sync_label)
    keep = [e for e in relabelled.events if relabelled.labels[e] is not ZERO]
    return restrict_events(relabelled, keep)


# ---------------------------------------------------------------------------
# Finite completeness


def _bounded(configs, family) -> bool:
    union = frozenset().union(*family)
    return any(union <= z for z in configs)


def _closed(configs: set, triples: bool) -> set:
    """The least family holding configs and the unions of its compatible
    pairs (and of its pairwise-compatible triples)."""
    while True:
        missing = {x | y for x, y in combinations(configs, 2) if _bounded(configs, (x, y))}
        if triples:
            missing |= {
                x | y | z
                for x, y, z in combinations(configs, 3)
                if all(_bounded(configs, pair) for pair in ((x, y), (x, z), (y, z)))
                and _bounded(configs, (x, y, z))
            }
        if missing <= configs:
            return configs
        configs |= missing


def random_structure(rng: random.Random) -> ConfStruct:
    """A structure on at most 5 events with at most 12 configurations.

    Three kinds, equally often: a random family with a top, so that every
    pair is compatible (it mostly fails on a pair); sets of at most two
    events closed under compatible pair unions (it passes or fails on a
    triple, as counterexample B does); a random family closed under pair
    and triple unions (it passes), half the time with one configuration
    dropped again.
    """
    while True:
        n = rng.randint(3, 5)
        events = [f"e{i}" for i in range(n)]
        subsets = [
            frozenset(e for k, e in enumerate(events) if mask >> k & 1)
            for mask in range(1, 2**n)
        ]
        kind = rng.randrange(3)
        pool = [x for x in subsets if len(x) <= 2] if kind == 1 else subsets
        configs = set(rng.sample(pool, rng.randint(2, min(len(pool), 8))))
        configs.add(frozenset())
        if kind == 0:
            configs.add(subsets[-1])
        else:
            configs = _closed(configs, triples=kind == 2)
        if kind == 2 and rng.random() < 0.5:
            configs.discard(rng.choice(sorted(configs - {frozenset()}, key=sorted)))
        if len(configs) <= 12:
            return ConfStruct(events, configs, {e: inp(e) for e in events})


def test_finite_completeness_matches_exhaustive_oracle():
    rng = random.Random(4101)
    outcomes = Counter()
    for _ in range(3000):
        c = random_structure(rng)
        witness = validate_axioms(c).finite_completeness
        assert (witness is None) == (exhaustive_finite_completeness(c) is None), c.configs
        if witness is None:
            outcomes["valid"] += 1
            continue
        outcomes[len(witness)] += 1
        # A minimal witness: distinct configurations, pairwise compatible,
        # whose union is missing while every union of two of them is not.
        assert len(witness) in (2, 3)
        assert all(x in c.configs for x in witness)
        assert len(set(witness)) == len(witness)
        assert all(
            _bounded(c.configs, (x, y)) for i, x in enumerate(witness) for y in witness[i + 1 :]
        )
        assert frozenset().union(*witness) not in c.configs
        if len(witness) == 3:
            assert all(
                x | y in c.configs for i, x in enumerate(witness) for y in witness[i + 1 :]
            )
    # Every branch of the check is exercised.
    assert outcomes["valid"] >= 1000, outcomes
    assert outcomes[2] >= 400, outcomes
    assert outcomes[3] >= 80, outcomes


def test_stability_matches_cubic_oracle():
    rng = random.Random(4103)
    outcomes = Counter()
    for _ in range(3000):
        c = random_structure(rng)
        witness = validate_axioms(c).stability
        assert witness == cubic_stability(c), c.configs
        outcomes["valid" if witness is None else "witness"] += 1
    assert min(outcomes.values()) >= 500, outcomes


# ---------------------------------------------------------------------------
# parallel


def test_parallel_matches_relabelling_oracle(monkeypatch):
    rng = random.Random(4102)
    compared = synchronising = rescued = 0
    while compared < 300:
        alphabet = ["a", "b", "c"] if rng.random() < 0.6 else ["a", "b", "c", "d", "e"]
        term = random_term(rng, max_prefixes=rng.randint(3, 7), alphabet=alphabet)
        if rng.random() < 0.6:  # random_term seldom puts two threads together
            right = random_term(rng, max_prefixes=rng.randint(1, 4), alphabet=alphabet)
            term = Par(term, right)
            if rng.random() < 0.3:
                term = Res(term, rng.choice(alphabet))
        with monkeypatch.context() as patch:
            patch.setattr(encoding, "parallel", relabelling_parallel)
            try:
                expected = encode_ccs(term)
            except EventCapExceeded:
                expected = None
        try:
            built = encode_ccs(term)
        except EventCapExceeded:
            assert expected is None, term
            continue
        if expected is None:
            rescued += 1  # only an intermediate product exceeded the cap
            continue
        assert to_json(built) == to_json(expected), term
        assert built == expected
        compared += 1
        synchronising += TAU in built.labels.values()
    assert synchronising >= 50, synchronising
    assert rescued >= 1, rescued


# ---------------------------------------------------------------------------
# Product configurations by securing


def _restricts_parallel(term: Term, under: bool = False) -> bool:
    """Whether a parallel composition of term sits under a restriction."""
    if isinstance(term, Par):
        return under or any(_restricts_parallel(t, under) for t in (term.left, term.right))
    if isinstance(term, Res):
        return _restricts_parallel(term.body, True)
    if isinstance(term, Sum):
        return any(_restricts_parallel(cont, under) for _, cont in term.branches)
    return False


def _synchronises(c: ConfStruct) -> bool:
    return any(STAR not in e[1:] for e in c.events)


def test_parallel_search_matches_subset_walk_on_encodings(monkeypatch):
    calls = []

    def recording_parallel(a, b):
        built = parallel(a, b)
        calls.append((a, b, built))
        return built

    monkeypatch.setattr(encoding, "parallel", recording_parallel)
    rng = random.Random(4104)
    synchronising = restricted = 0
    for _ in range(400):
        alphabet = ["a", "b", "c"] if rng.random() < 0.6 else ["a", "b", "c", "d"]
        term = random_term(rng, max_prefixes=rng.randint(3, 8), alphabet=alphabet)
        if rng.random() < 0.7:
            right = random_term(rng, max_prefixes=rng.randint(2, 5), alphabet=alphabet)
            term = Par(term, right)
            if rng.random() < 0.3:
                term = Res(term, rng.choice(alphabet))
        calls.clear()
        try:
            encode_ccs(term)
        except EventCapExceeded:
            pass
        for a, b, built in calls:
            expected = subset_walk_configs(a, b, list(built.events))
            assert built.configs == frozenset(expected), term
            synchronising += _synchronises(built)
        restricted += bool(calls) and _restricts_parallel(term)
    assert synchronising >= 50, synchronising
    assert restricted >= 10, restricted


def test_product_search_matches_subset_walk_on_encodings():
    rng = random.Random(4105)
    compared = 0
    while compared < 100:
        a = encode_ccs(random_term(rng, max_prefixes=rng.randint(1, 3), alphabet=["a", "b"]))
        b = encode_ccs(random_term(rng, max_prefixes=rng.randint(1, 3), alphabet=["a", "b"]))
        try:
            expected = subset_walk_product(a, b)
        except EventCapExceeded:
            continue
        assert product(a, b)[0] == expected, (a.configs, b.configs)
        compared += 1


def test_parallel_search_on_random_structures():
    """Equal to the definition on stable, finitely complete inputs, and
    never more than it on any input: a set grown one event at a time
    keeps every two of its events separated."""
    rng = random.Random(4106)
    pools: dict = {True: [], False: []}  # by whether the axioms hold
    while len(pools[True]) < 30 or len(pools[False]) < 30:
        c = random_structure(rng)
        pools[validate_axioms(c).ok].append(c)
    outcomes = Counter()
    for valid in [True] * 100 + [False] * 100:
        a = rng.choice(pools[valid])
        b = rng.choice(pools[True] if valid else pools[True] + pools[False])
        b = relabel(b, lambda e: complement(b.labels[e]))  # e_i syncs with e_i
        built = parallel(a, b)
        expected = frozenset(subset_walk_configs(a, b, list(built.events)))
        assert _synchronises(built)
        if valid:
            assert built.configs == expected, (a.configs, b.configs)
        else:
            assert built.configs <= expected, (a.configs, b.configs)
            outcomes["differ" if built.configs != expected else "same"] += 1
    assert outcomes["differ"] >= 1, outcomes
