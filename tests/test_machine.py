"""Forward/backward operational semantics of reversible processes."""

from __future__ import annotations

import random

import pytest

from rccs.terms import (
    CPar,
    HOLE,
    NIL,
    barbs,
    canonical_term,
    ccs_step,
    format_term,
    inp,
    parse_term,
    term_congruent,
)
from rccs.machine import (
    EMPTY,
    FORK,
    MemEvent,
    NotCoherent,
    ParP,
    ReplayError,
    Thread,
    TransitionRecord,
    UnsupportedContext,
    addfork,
    all_rollback_terminals,
    bwd_rec,
    bwd_steps,
    congruent,
    erase,
    exec_form,
    format_process,
    format_trace,
    fwd_rec,
    fwd_steps,
    ids,
    instantiate_context,
    is_coherent,
    monitored,
    normal_form,
    origin,
    parse_process,
    parse_trace,
    rccs_barbs,
    rearrange_parabolic,
    replay,
    rollback,
)

from generators import random_coherent, random_term, random_walk


def P(text: str):
    return parse_process(text)


def T(text: str):
    return parse_term(text)


def _labels_of(steps):
    return sorted(str(label) for _, label, _ in steps)


# ---------------------------------------------------------------------------
# Concrete syntax


def test_process_round_trip():
    corpus = [
        "{} |> a.b",
        "<1,a>.{} |> b",
        "<2,b,a.c>.<1,a>.{} |> 0",
        "*.<1,a>.{} |> b | *.<1,a>.{} |> c",
        "({} |> (a | b)) \\ a",
        "<1,a>.{} |> (b \\ c)",
    ]
    for text in corpus:
        process = P(text)
        assert P(format_process(process)) == process


def test_monitored_is_empty_memory_thread():
    assert monitored(T("a.b")) == Thread(EMPTY, T("a.b"))


def test_trace_round_trip():
    text = "+ 1:a\n- 1:a\n+ 2:!b"
    trace = parse_trace(text)
    assert [r.direction for r in trace] == ["+", "-", "+"]
    assert format_trace(trace) == text


# ---------------------------------------------------------------------------
# Forward rules


def test_prefix_step_records_memory_event():
    steps = fwd_steps(P("{} |> a.b"))
    assert len(steps) == 1
    ident, label, target = next(iter(steps))
    assert (ident, str(label)) == (1, "a")
    assert congruent(target, P("<1,a>.{} |> b"))


def test_sum_step_records_alternative():
    steps = {str(l): t for _, l, t in fwd_steps(P("{} |> a.(a|c) + b"))}
    assert set(steps) == {"a", "b"}
    after_a = steps["a"]
    assert congruent(after_a, P("<1,a,b>.{} |> (a | c)"))


def test_parallel_distributes_fork_memories():
    process = exec_form(P("<1,a>.{} |> (b | c)"))
    assert isinstance(process, ParP)
    assert congruent(
        process, P("*.<1,a>.{} |> b | *.<1,a>.{} |> c")
    )


def test_fresh_identifiers_minimal_unused():
    process = P("<2,a>.{} |> b")
    (ident, _, _), = fwd_steps(process)
    assert ident == 1


def test_synchronisation_shares_identifier():
    steps = fwd_steps(P("{} |> (a | !a)"))
    assert _labels_of(steps) == ["!a", "a", "tau"]
    (tau_target,) = [t for _, l, t in steps if l.is_tau]
    assert ids(tau_target) == frozenset({1})


def test_restriction_blocks_forward_steps():
    assert _labels_of(fwd_steps(P("({} |> (a | !a)) \\ a"))) == ["tau"]
    assert fwd_steps(P("({} |> a) \\ a")) == frozenset()


def test_restriction_inside_code_is_hoisted():
    steps = fwd_steps(P("{} |> ((a | !a) \\ a | b)"))
    assert _labels_of(steps) == ["b", "tau"]


def test_normal_form_keeps_nested_restrictions_apart():
    # Firing a renames the outer binders x, y one place on. Renaming one
    # name at a time made x and y the same channel in the thread x + y,
    # which lost the synchronisation on y.
    start = normal_form(
        Thread((), T("a.((z | !z) \\ z) | ((x + y | !x) \\ x | !y) \\ y"))
    )
    (target,) = [t for _, label, t in fwd_steps(start) if str(label) == "a"]
    form = normal_form(target)
    assert term_congruent(erase(form), erase(target))
    assert normal_form(form) == form


def test_normal_form_keeps_a_binder_that_shadows_its_own_name():
    # The outer pn1 becomes pn0; the inner binder keeps its name pn1 and
    # must hide the outer renaming from its body.
    start = P("(({} |> pn1 | {} |> !pn1) \\ pn1 | {} |> !pn1) \\ pn1")
    assert term_congruent(erase(normal_form(start)), erase(start))


@pytest.mark.parametrize(
    "text",
    [
        # pn0 sorts before q, the temporary name of the hoisted
        # restriction after it: sums are sorted under the final names.
        "(x + q | !x) \\ x",
        # Each side of the fork numbers its bound names from bn0 again.
        "a.((x | !x) \\ x) | b.((y | !y) \\ y)",
    ],
)
def test_normal_form_is_its_own_execution_form(text):
    start = Thread((), T(text))
    form = normal_form(start)
    assert exec_form(form) == form
    assert congruent(start, form)


def test_memory_alternatives_are_congruent_up_to_bound_names():
    start = Thread((), T("a.((x | !x) \\ x) + b.((y | !y) \\ y)"))
    (fired,) = [t for _, label, t in fwd_steps(start) if str(label) == "a"]
    assert congruent(fired, P("<1,a,b.((z | !z) \\ z)>.{} |> ((x | !x) \\ x)"))


def test_normal_form_is_idempotent_on_walks():
    rng = random.Random(5)
    for _ in range(200):
        form = normal_form(random_coherent(rng, max_prefixes=6, steps=5))
        assert exec_form(form) == form
        assert normal_form(form) == form


# ---------------------------------------------------------------------------
# Backward rules


def test_backward_undoes_prefix():
    forward = {str(l): t for _, l, t in fwd_steps(P("{} |> a.b"))}
    back = bwd_steps(forward["a"])
    assert len(back) == 1
    _, label, target = next(iter(back))
    assert str(label) == "a"
    assert congruent(target, P("{} |> a.b"))


def test_backward_restores_sum_alternative():
    forward = {str(l): t for _, l, t in fwd_steps(P("{} |> a.(a|c) + b"))}
    (_, _, restored), = bwd_steps(forward["a"])
    assert congruent(restored, P("{} |> a.(a|c) + b"))


def test_lone_sync_participant_cannot_backtrack():
    process = P("<1,a>.*.{} |> 0 | <1,!a>.*.{} |> 0")
    back = bwd_steps(process)
    assert len(back) == 1
    _, label, target = next(iter(back))
    assert label.is_tau
    assert congruent(target, P("{} |> (a | !a)"))


def test_independent_past_events_both_backtrack():
    process = P("<1,a>.*.{} |> 0 | <2,b>.*.{} |> 0")
    assert _labels_of(bwd_steps(process)) == ["a", "b"]


def test_loop_forward_then_backward():
    rng = random.Random(5)
    for _ in range(150):
        process = random_coherent(rng, max_prefixes=6, steps=4)
        for ident, label, target in fwd_steps(process):
            undone = [
                t
                for i, l, t in bwd_steps(target)
                if i == ident and l == label
            ]
            assert any(congruent(u, process) for u in undone)


def test_erase_bisimulation_samples():
    rng = random.Random(6)
    for _ in range(150):
        process = random_coherent(rng, max_prefixes=6, steps=3)
        term = canonical_term(erase(process))
        forward_labels = sorted(
            str(l) for _, l, _ in fwd_steps(process)
        )
        term_labels = sorted(str(l) for l, _ in ccs_step(term))
        assert forward_labels == term_labels
        for _, label, target in fwd_steps(process):
            derivatives = [
                d for l, d in ccs_step(term) if l == label
            ]
            assert any(
                term_congruent(canonical_term(erase(target)), canonical_term(d))
                for d in derivatives
            )


# ---------------------------------------------------------------------------
# Barbs


def test_rccs_barbs_ignore_memory():
    assert {str(l) for l in rccs_barbs(P("<1,a>.{} |> b + !c"))} == {"b", "!c"}
    assert rccs_barbs(P("({} |> (a | !a)) \\ a")) == frozenset()


def test_rccs_barbs_match_erase_barbs():
    rng = random.Random(7)
    for _ in range(100):
        process = random_coherent(rng, max_prefixes=5, steps=3)
        assert rccs_barbs(process) == barbs(canonical_term(erase(process)))


# ---------------------------------------------------------------------------
# Coherence, rollback, origin


def test_origin_of_replayed_process():
    process = P("<2,a>.*.<1,a,b>.{} |> 0 | *.<1,a,b>.{} |> c")
    assert congruent(origin(process), P("{} |> a.(a|c) + b"))


def test_rollback_records_are_backward():
    process = P("<2,a>.*.<1,a,b>.{} |> 0 | *.<1,a,b>.{} |> c")
    terminal, records = rollback(process)
    assert congruent(terminal, P("{} |> a.(a|c) + b"))
    assert all(r.direction == "-" for r in records)
    assert [r.ident for r in records] == [2, 1]


def test_incoherent_fork_is_rejected():
    process = P("*.<1,a>.{} |> b | {} |> c")
    assert not is_coherent(process)
    with pytest.raises(NotCoherent):
        origin(process)


def test_mismatched_sync_labels_incoherent():
    process = P("<1,a>.{} |> 0 | <1,b>.{} |> 0")
    assert not is_coherent(process)


def test_all_rollback_orders_converge():
    rng = random.Random(8)
    for _ in range(60):
        process = random_coherent(rng, max_prefixes=6, steps=5)
        terminals = all_rollback_terminals(process)
        reference = normal_form(origin(process))
        assert terminals == {reference}


def test_origin_is_stable_under_steps():
    rng = random.Random(9)
    for _ in range(100):
        process = random_coherent(rng, max_prefixes=6, steps=4)
        source = origin(process)
        for _, _, target in fwd_steps(process):
            assert congruent(origin(target), source)
        for _, _, target in bwd_steps(process):
            assert congruent(origin(target), source)


# ---------------------------------------------------------------------------
# Replay and parabolic rearrangement


def test_replay_follows_trace():
    process = P("{} |> a.(a|c) + b")
    trace = parse_trace("+ 1:a\n+ 2:a\n- 2:a\n+ 2:c")
    final = replay(process, trace)
    assert congruent(
        final, P("*.<1,a,b>.{} |> a | <2,c>.*.<1,a,b>.{} |> 0")
    )


def test_replay_rejects_unknown_backward_id():
    process = P("{} |> a.b")
    with pytest.raises(ReplayError) as excinfo:
        replay(process, parse_trace("+ 1:a\n- 3:a"))
    assert excinfo.value.index == 1


def test_replay_rejects_duplicate_forward_id():
    process = P("{} |> (a | b)")
    with pytest.raises(ReplayError):
        replay(process, parse_trace("+ 1:a\n+ 1:b"))


def test_replay_rejects_ambiguous_label():
    process = P("{} |> (a | a)")
    with pytest.raises(ReplayError):
        replay(process, parse_trace("+ 1:a"))


def test_rearrange_parabolic_example():
    process = P("{} |> a.(a|c) + b")
    trace = parse_trace("+ 1:a\n+ 2:a\n- 2:a\n+ 2:c\n- 2:c")
    arranged = rearrange_parabolic(process, trace)
    directions = "".join(r.direction for r in arranged)
    assert "-" not in directions.lstrip("-")  # all "-" before all "+"
    assert congruent(replay(process, arranged), replay(process, trace))


def test_rearrange_parabolic_random():
    rng = random.Random(10)
    done = 0
    while done < 150:
        term = random_term(rng, max_prefixes=6, distinct=True)
        start = random_walk(rng, monitored(term), rng.randint(0, 3))
        _, records = rollback(start)
        # build a mixed trace by a random walk recording directions
        current, trace = start, []
        for _ in range(rng.randint(1, 6)):
            forward = sorted(fwd_steps(current), key=lambda s: (str(s[1]), s[0]))
            backward = sorted(bwd_steps(current), key=lambda s: (str(s[1]), s[0]))
            pool = (
                [("+", s) for s in forward] + [("-", s) for s in backward]
            )
            if not pool:
                break
            direction, (ident, label, target) = rng.choice(pool)
            trace.append(TransitionRecord(direction, ident, label))
            current = target
        if not trace:
            continue
        arranged = rearrange_parabolic(start, trace)
        directions = "".join(r.direction for r in arranged)
        assert "-" not in directions.lstrip("-")
        assert congruent(replay(start, arranged), current)
        done += 1


# ---------------------------------------------------------------------------
# Contexts


def test_instantiate_parallel_context_adds_forks():
    process = P("<1,a>.{} |> b")
    context = CPar(T("c"), HOLE)
    wrapped = instantiate_context(context, process)
    assert congruent(
        wrapped, P("*.{} |> c | <1,a>.*.{} |> b")
    )
    assert is_coherent(wrapped)


def test_instantiate_rejects_prefix_context():
    from rccs.terms import CPrefix

    with pytest.raises(UnsupportedContext):
        instantiate_context(CPrefix(inp("a"), HOLE), P("{} |> b"))


def test_addfork_reaches_every_thread():
    process = P("<1,a>.{} |> 0 | {} |> b")
    forked = addfork(process)
    assert congruent(
        forked, P("<1,a>.*.{} |> 0 | *.{} |> b")
    )
