"""Differential test of the barbed game's observation path.

``rccs_bfb_bisim`` reads each state through ``machine.observe``, which
takes a normal form, builds only its tau-successors and normalises each
by expanding only the threads the step built or refolded. The reference
is the former game, which read barbs and tau-successors off the full
``fwd_steps``/``bwd_steps`` transition sets (``ref_rccs_bfb_bisim``). On
seeded processes under observer contexts with synchronising guards and
restrictions, both must return the same verdict, witness and play, and
every state the former game explored must read the same both ways.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import rccs
from rccs.terms import Par, Res, Term, format_context, inp, out, prefix_term
from rccs.machine import (
    Process,
    Thread,
    _bwd_items,
    _fwd_items,
    _least_fresh,
    _refold,
    bwd_steps,
    exec_form,
    format_process,
    fwd_steps,
    instantiate_context,
    normal_form,
    observe,
    origin,
)
from rccs.equivalences import congruence_contexts, rccs_bfb_bisim

from generators import expanded, random_coherent, random_term, random_walk
from test_engine_oracle import _mutated, _shuffled, former_observe, ref_rccs_bfb_bisim


def _pair(rng: random.Random) -> tuple[Term, Term]:
    """Terms over two names, nearly half of them restricted on a name the
    observers use. In a quarter a synchronisation can fork into a
    parallel pair, and q is the expansion of p; otherwise q is a shuffled
    copy, a deep mutant or unrelated."""
    alphabet = ["a", "b"]
    labels = [inp("a"), out("a"), inp("b"), out("b")]
    forked = rng.random() < 0.25
    if forked:
        pair = Par(prefix_term(rng.choice(labels)), prefix_term(rng.choice(labels)))
        p = Par(prefix_term(rng.choice(labels), pair), prefix_term(rng.choice(labels)))
    else:
        p = Par(
            random_term(rng, max_prefixes=2, alphabet=alphabet),
            random_term(rng, max_prefixes=2, alphabet=alphabet),
        )
    if rng.random() < 0.45:
        p = Res(p, rng.choice(alphabet))
    if forked:
        return p, expanded(p)
    roll = rng.random()
    if roll < 0.3:
        q = _shuffled(rng, p)
    elif roll < 0.8:
        q = _mutated(rng, _shuffled(rng, p))
    else:
        q = random_term(rng, max_prefixes=3, alphabet=alphabet)
    return p, q


def _instances(seed: int, count: int):
    """Context instances as bounded congruence builds them: a context
    around each side's origin, or around a state reached by a random walk
    so that the game starts with a past to undo."""
    rng = random.Random(seed)
    while count:
        p, q = _pair(rng)
        observers = congruence_contexts(p, q, 1)[1:]  # all but the hole
        for context in rng.sample(observers, 2):
            r, s = Thread((), p), Thread((), q)
            if rng.random() < 0.5:
                r = random_walk(rng, r, rng.randint(1, 3))
                s = random_walk(rng, s, rng.randint(1, 3))
            else:
                r, s = origin(r), origin(s)
            r, s = instantiate_context(context, r), instantiate_context(context, s)
            yield context, r, s
            count -= 1


def _former_readings(process: Process, readings: dict) -> dict:
    """Every state the former game explored from a process, with the
    former reading of each, taken from ``readings`` where it is there."""
    explored = {}
    stack = [normal_form(process)]
    while stack:
        state = stack.pop()
        if state not in explored:
            if state not in readings:
                readings[state] = former_observe(state)
            explored[state] = reading = readings[state]
            stack.extend(reading[1] | reading[2])
    return explored


def test_observation_path_matches_former_game():
    outcomes = {"equivalent": 0, "distinguished": 0}
    guards = restricted = moves = states = 0
    readings: dict = {}  # the former reading of each state, read once
    for context, r, s in _instances(seed=4242, count=520):
        mine = rccs_bfb_bisim(r, s)
        ref = ref_rccs_bfb_bisim(r, s, readings)
        assert mine.to_jsonable() == ref.to_jsonable(), context
        # Each state read as the former game read it; the reference has
        # just read these states.
        for process in (r, s):
            for state, reading in _former_readings(process, readings).items():
                assert observe(normal_form(state)) == reading, format_process(state)
                states += 1
        outcomes[mine.outcome] += 1
        guards += "+" in format_context(context)
        restricted += "\\" in format_process(r)
        if mine.outcome == "distinguished":
            moves += len(mine.evidence["play"]) >= 2
    assert min(outcomes.values()) >= 100
    assert guards >= 100 and restricted >= 100 and moves >= 50
    assert states >= 4000


def test_observe_matches_former_reading():
    # observe takes a normal form; the former reading took any process.
    rng = random.Random(99)
    for _ in range(300):
        process = random_coherent(rng, max_prefixes=6, steps=5)
        assert observe(normal_form(process)) == former_observe(process)


def test_barbed_game_does_not_depend_on_hash_order():
    # Successors are challenged in the order of their printed forms, so a
    # fresh interpreter with another string hash seed gives the same play.
    # Under hash order this pair gave two plays across these three seeds.
    src = os.path.dirname(os.path.dirname(os.path.abspath(rccs.__file__)))
    argv = ["check", "congruence", "a.a.b | !b.!b.a", "a.a.!b | !b.!b.a"]
    outputs = set()
    for hash_seed in ("1", "3", "5"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "rccs.cli", *argv, "--context-depth", "1"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 1
        outputs.add(done.stdout)
    assert len(outputs) == 1


def _unnormalised_targets(process: Process) -> list[Process]:
    """The step targets the lazy builders return, before any exec_form."""
    form = exec_form(process)
    fresh = _least_fresh(form)
    targets = [build(fresh) for _, build in _fwd_items(form)]
    targets += [target for _, _, target in _bwd_items(_refold(form))]
    return targets


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_normal_form_sees_through_exec_form_property(rng):
    process = random_coherent(rng, max_prefixes=6, steps=5)
    for p in [process, *_unnormalised_targets(process)]:
        assert normal_form(exec_form(p)) == normal_form(p)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_step_targets_are_execution_forms_property(rng):
    # The step functions expand only the threads a step built or
    # refolded; each target must still be exec_form of what was built.
    # Walks on the observer pairs reach forked and restricted code, and
    # the targets' own steps are checked too.
    process = random_walk(rng, Thread((), _pair(rng)[0]), rng.randint(0, 4))
    form = exec_form(process)
    assert exec_form(form) == form
    for state in [process, *(t for _, _, t in fwd_steps(form) | bwd_steps(form))]:
        targets = {t for _, _, t in fwd_steps(state) | bwd_steps(state)}
        assert targets == {exec_form(t) for t in _unnormalised_targets(state)}
        for target in targets:
            assert exec_form(target) == target
