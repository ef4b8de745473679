"""The structure layer against the exhaustive algorithms it replaced.

Three former implementations are kept here as oracles:

- finite completeness checked on every pairwise-compatible family of
  configurations, not only on pairs and triples;
- stability checked by scanning every configuration for an upper bound
  of each pair, in O(|C|^3);
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
    ConfStruct,
    EventCapExceeded,
    product,
    relabel,
    restrict_events,
    to_json,
    validate_axioms,
)
from rccs.terms import TAU, Label, Par, Res, complement, inp

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


ZERO = object()  # the label of product pairs that do not synchronise


def relabelling_parallel(a: ConfStruct, b: ConfStruct) -> ConfStruct:
    """Product, then synchronisation relabelling, then zero removal."""
    prod, _, _ = product(a, b)

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
