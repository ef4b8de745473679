"""Tests of the benchmark's input generator.

    python3 -m pytest perfbench/test_corpus.py
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys

import pytest

import corpus
from corpus import NIL, par_of, prefix

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 4)
COUNT = 40


def _canon(term):
    """Normal form modulo commutativity and associativity of | and +."""
    kind = term[0]
    if kind == "sum":
        return ("sum", tuple(sorted((label, _canon(cont)) for label, cont in term[1])))
    if kind == "par":
        return ("par", tuple(sorted(_canon(t) for t in corpus.threads(term))))
    if kind == "res":
        return ("res", _canon(term[1]), term[2])
    return term


def _corpus(seed: int) -> list:
    return [
        corpus.operation(w, seed, i, stream)
        for w in corpus.WORKLOADS
        for stream in ("run", "warmup")
        for i in range(COUNT)
    ]


def _pairs(draw, workload: str):
    for seed in SEEDS:
        for i in range(COUNT):
            yield draw(corpus._shape_rng(workload, "run", i), corpus._rng(workload, seed, "run", i), i)


def test_one_seed_gives_one_corpus():
    assert _corpus(7) == _corpus(7)
    assert _corpus(7) != _corpus(8)


def test_corpus_does_not_depend_on_the_hash_seed():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import corpus, test_corpus;"
        "print(json.dumps(test_corpus._corpus(7)))"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code, HERE],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1] == json.dumps(_corpus(7)) + "\n"


def test_seeds_share_templates():
    """Seeds permute names and draw rewrites; the shapes stay."""
    for index in range(COUNT):
        one, other = (corpus.operation("build", seed, index) for seed in (7, 8))
        assert (one["events"], one["configs"]) == (other["events"], other["configs"])


def _names(op: dict) -> set[str]:
    text = " ".join(str(op.get(key, "")) for key in ("term", "p", "q", "process", "trace"))
    return set(re.findall(r"[a-z][a-z0-9_]*_[a-z0-9]+", text))


def test_copies_are_renamings_on_names_of_their_own():
    for workload in corpus.WORKLOADS:
        for index in range(COUNT):
            copies = [corpus.operation(workload, 7, index, copy=c) for c in (0, 1)]
            assert json.dumps(copies[0]).replace("_0", "_1") == json.dumps(copies[1])
            assert _names(copies[0]) and not _names(copies[0]) & _names(copies[1])
            warmup = corpus.operation(workload, 7, index, "warmup")
            assert not _names(warmup) & _names(copies[0])


def test_timed_stream_opens_with_the_fixed_cases():
    for workload, fixed in corpus.FIXED.items():
        for index, (name, _, _) in enumerate(fixed):
            assert corpus.operation(workload, 5, index)["name"] == name
            assert corpus.operation(workload, 5, index, "warmup")["name"] is None


@pytest.mark.parametrize(
    "draw,workload",
    [(corpus.draw_equiv_pair, "equiv"), (corpus.draw_congruence_pair, "congruence")],
)
def test_every_pair_is_a_variant_or_a_valid_mutant(draw, workload):
    kinds = set()
    for p, q, expect in _pairs(draw, workload):
        kinds.add(expect)
        if expect == "equivalent":
            assert _canon(p) == _canon(q) and corpus.fmt(p) != corpus.fmt(q)
            continue
        names = corpus.restricted_names(p)
        assert corpus.restricted_names(q) == names
        left = corpus.threads(corpus.strip_res(p))
        right = [_canon(t) for t in corpus.threads(corpus.strip_res(q))]
        matches = [
            (i, j)
            for i in range(len(left))
            for j in range(len(left))
            if i != j
            and corpus.is_prefix(left[i])
            and corpus.is_prefix(left[j])
            and _canon(corpus.expansion(left[i], left[j])) in right
            and sorted(right)
            == sorted(
                [_canon(t) for k, t in enumerate(left) if k not in (i, j)]
                + [_canon(corpus.expansion(left[i], left[j]))]
            )
        ]
        assert matches, (corpus.fmt(p), corpus.fmt(q))
        assert any(corpus.expansion_preconditions(p, i, j) for i, j in matches)
    assert kinds == {"equivalent", "distinguished"}


def test_mutant_preconditions():
    a_then_b = par_of([prefix("a"), prefix("b")])
    assert corpus.expansion_preconditions(a_then_b, 0, 1)
    assert not corpus.expansion_preconditions(par_of([prefix("a"), prefix("!a")]), 0, 1)
    assert not corpus.expansion_preconditions(("res", a_then_b, "b"), 0, 1)
    assert not corpus.expansion_preconditions(
        par_of([("sum", (("a", NIL), ("c", NIL))), prefix("b")]), 0, 1
    )
    assert corpus.fmt(corpus.expansion(prefix("a", prefix("c")), prefix("b"))) == (
        "a.(c | b) + b.a.c"
    )


def test_congruence_pairs_are_singly_labelled():
    for p, _, _ in _pairs(corpus.draw_congruence_pair, "congruence"):
        names = [corpus.name_of(label) for label in corpus.events(p)]
        assert len(names) == len(set(names))


def test_closed_forms():
    ab = par_of([prefix("a"), prefix("b")])
    assert corpus.configs(ab) == 4
    assert corpus.configs(("sum", (("a", prefix("b")), ("c", NIL)))) == 4
    assert corpus.configs(("res", par_of([prefix("a", prefix("c")), prefix("b")]), "a")) == 2
    assert corpus.events(("res", par_of([prefix("a", prefix("c")), prefix("b")]), "a")) == ["c", "b"]
    assert corpus.events(par_of([prefix("a"), prefix("!a")])) == ["a", "!a", "tau"]
    chains = corpus.FIXED["build"][1][1]
    assert corpus.largest_structure(chains) == 24 and len(corpus.events(chains)) == 8


def test_build_terms_stay_in_range():
    for seed in SEEDS:
        for i in range(COUNT):
            term = corpus.draw_build_term(corpus._rng("build", seed, "run", i), i)
            term, = corpus.shuffled_names([term], random.Random(seed))
            assert 4 <= len(corpus.events(term)) <= corpus.EVENT_CAP
            if corpus._overflow(i):
                assert corpus.overflows_intermediate(term)
            else:
                assert corpus.fits(term) and corpus.configs(term) <= corpus.HEAVY_CONFIGS


def test_walks_are_singly_labelled_and_traces_well_formed():
    rng = random.Random(3)
    for i in range(COUNT):
        term, process, trace, ids = corpus.draw_walk(rng, rng, i)
        names = [corpus.name_of(label) for label in corpus.events(term)]
        assert len(names) == len(set(names)) and corpus.sync_free(term)
        assert len(set(re.findall(r"<(\d+),", process))) == ids
        lines = trace.splitlines()
        assert 10 <= len(lines) <= 30
        assert all(re.fullmatch(r"[+-] \d+:!?[a-z]", line) for line in lines)
