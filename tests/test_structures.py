"""Configuration structures: axioms, operations, causality, iso, JSON."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from rccs.terms import TAU, inp, out, parse_term
from rccs.structures import (
    EMPTY_STRUCT,
    STAR,
    ConfStruct,
    EventCapExceeded,
    barbs_at,
    causes,
    config_backsteps,
    config_steps,
    coproduct,
    event_names,
    from_json,
    immediate_cause,
    is_maximal,
    iso,
    parallel,
    prefix,
    product,
    relabel,
    remove_config,
    remove_event,
    residual,
    restrict_events,
    restrict_name,
    to_dot,
    to_json,
    top_configs,
    validate_axioms,
)
from rccs.encoding import encode_ccs

from generators import random_singly_term, random_term


def cs(configs, labels):
    """Build a structure from iterables of event-name collections."""
    sets = frozenset(frozenset(x) for x in configs) | {frozenset()}
    events = frozenset(labels)
    return ConfStruct(events, sets, labels)


A = inp("a")
B = inp("b")
C_ = inp("c")


# ---------------------------------------------------------------------------
# Construction invariants


def test_empty_config_always_present():
    with pytest.raises(ValueError):
        ConfStruct(frozenset({"e"}), frozenset({frozenset({"e"})}), {"e": A})


def test_labels_must_cover_events():
    with pytest.raises(ValueError):
        ConfStruct(frozenset({"e"}), frozenset({frozenset()}), {})


def test_configs_must_use_known_events():
    with pytest.raises(ValueError):
        ConfStruct(
            frozenset({"e"}),
            frozenset({frozenset(), frozenset({"f"})}),
            {"e": A},
        )


def test_event_cap_env(monkeypatch):
    labels = {f"e{i}": A for i in range(5)}
    monkeypatch.setenv("RCCS_EVENT_CAP", "4")
    with pytest.raises(EventCapExceeded):
        cs([], labels)
    monkeypatch.setenv("RCCS_EVENT_CAP", "5")
    cs([], labels)
    for bad in ("abc", "-3"):
        monkeypatch.setenv("RCCS_EVENT_CAP", bad)
        with pytest.raises(ValueError, match="RCCS_EVENT_CAP"):
            cs([], labels)


# ---------------------------------------------------------------------------
# Axioms: the three counterexample structures


def counterexample_a():
    return cs([["e1", "e2"]], {"e1": A, "e2": B})


def counterexample_b():
    return cs(
        [["e1"], ["e2"], ["e3"], ["e1", "e2"], ["e1", "e3"], ["e2", "e3"]],
        {"e1": A, "e2": B, "e3": C_},
    )


def counterexample_c():
    return cs(
        [
            ["e1"],
            ["e2"],
            ["e1", "e2"],
            ["e1", "e3"],
            ["e2", "e3"],
            ["e1", "e2", "e3"],
        ],
        {"e1": A, "e2": B, "e3": C_},
    )


def test_counterexample_a_fails_only_coincidence_freeness():
    report = validate_axioms(counterexample_a())
    assert set(report.failures()) == {"coincidence_freeness"}


def test_counterexample_b_fails_only_finite_completeness():
    report = validate_axioms(counterexample_b())
    assert set(report.failures()) == {"finite_completeness"}


def test_counterexample_c_fails_only_stability():
    report = validate_axioms(counterexample_c())
    assert set(report.failures()) == {"stability"}
    witness = report.stability
    assert frozenset({"e1", "e3"}) in witness and frozenset({"e2", "e3"}) in witness


def test_encodings_satisfy_all_axioms():
    rng = random.Random(20)
    for text in ("a|b", "a.b+b.a", "a.(a|c)+b", "(a|!a)\\a"):
        assert validate_axioms(encode_ccs(parse_term(text))).ok
    for _ in range(50):
        term = random_singly_term(rng, max_prefixes=5)
        assert validate_axioms(encode_ccs(term)).ok


# ---------------------------------------------------------------------------
# Operations


def test_prefix_adds_bottom_event():
    one = prefix(A, EMPTY_STRUCT)
    assert len(one.events) == 1
    assert len(one.configs) == 2
    two = prefix(B, one)
    (bottom,) = [e for e in two.events if two.labels[e] == B]
    assert all(bottom in x for x in two.configs if x)


def test_coproduct_merges_at_root_only():
    left = prefix(A, EMPTY_STRUCT)
    right = prefix(B, EMPTY_STRUCT)
    both = coproduct(left, right)
    assert len(both.events) == 2
    assert len(both.configs) == 3  # empty, {a}, {b}
    assert not any(len(x) == 2 for x in both.configs)


def test_product_of_single_events():
    left = prefix(A, EMPTY_STRUCT)
    right = prefix(out("a"), EMPTY_STRUCT)
    result, p1, p2 = product(left, right)
    # frozen oracle: pairs (e,*), (*,f), (e,f) and five configurations
    assert len(result.events) == 3
    assert len(result.configs) == 5
    for event in result.events:
        assert (p1[event] is STAR) != (event in p1 and p1[event] is not STAR) or True
    stars_left = [e for e in result.events if p1[e] is STAR]
    stars_right = [e for e in result.events if p2[e] is STAR]
    assert len(stars_left) == 1 and len(stars_right) == 1


def test_parallel_sync_becomes_tau():
    struct = parallel(
        prefix(A, EMPTY_STRUCT), prefix(out("a"), EMPTY_STRUCT)
    )
    labels = sorted(str(l) for l in struct.labels.values())
    assert labels == ["!a", "a", "tau"]
    tau_events = [e for e, l in struct.labels.items() if l == TAU]
    assert len(tau_events) == 1


def test_parallel_matches_term_encoding():
    direct = encode_ccs(parse_term("a|b"))
    built = parallel(
        encode_ccs(parse_term("a")), encode_ccs(parse_term("b"))
    )
    assert direct == built


def test_restrict_name_drops_both_polarities():
    struct = encode_ccs(parse_term("a | !a | b"))
    cut = restrict_name(struct, "a")
    assert all(
        l == TAU or l.name != "a" for l in cut.labels.values()
    )
    assert any(l == TAU for l in cut.labels.values())


def test_restrict_events_keeps_subfamily():
    struct = encode_ccs(parse_term("a|b"))
    (a_event,) = [e for e, l in struct.labels.items() if l == A]
    kept = restrict_events(struct, [a_event])
    assert kept.events == frozenset({a_event})
    assert len(kept.configs) == 2


def test_relabel():
    struct = encode_ccs(parse_term("a.b"))
    renamed = relabel(
        struct, lambda e: C_ if struct.labels[e] == A else struct.labels[e]
    )
    assert sorted(str(l) for l in renamed.labels.values()) == ["b", "c"]


# ---------------------------------------------------------------------------
# Causality


def test_causality_in_prefix_chain():
    struct = encode_ccs(parse_term("a.b"))
    (ea,) = [e for e, l in struct.labels.items() if l == A]
    (eb,) = [e for e, l in struct.labels.items() if l == B]
    full = frozenset({ea, eb})
    assert causes(struct, full, ea, eb)
    assert not causes(struct, full, eb, ea)
    assert immediate_cause(struct, full, ea, eb)


def test_no_causality_between_concurrent_events():
    struct = encode_ccs(parse_term("a|b"))
    (ea,) = [e for e, l in struct.labels.items() if l == A]
    (eb,) = [e for e, l in struct.labels.items() if l == B]
    full = frozenset({ea, eb})
    assert not causes(struct, full, ea, eb)
    assert not causes(struct, full, eb, ea)


def test_immediate_cause_skips_transitive():
    struct = encode_ccs(parse_term("a.b.c"))
    label_of = {str(l): e for e, l in struct.labels.items()}
    full = frozenset(struct.events)
    assert causes(struct, full, label_of["a"], label_of["c"])
    assert not immediate_cause(struct, full, label_of["a"], label_of["c"])
    assert immediate_cause(struct, full, label_of["b"], label_of["c"])


# ---------------------------------------------------------------------------
# Removal and residuals


def test_remove_event_takes_images():
    struct = encode_ccs(parse_term("a.b"))
    (ea,) = [e for e, l in struct.labels.items() if l == A]
    after = remove_event(struct, ea)
    assert len(after.events) == 1
    assert len(after.configs) == 2


def test_remove_config_executes_whole_configuration():
    struct = encode_ccs(parse_term("a.(b|c)"))
    (ea,) = [e for e, l in struct.labels.items() if l == A]
    after = remove_config(struct, frozenset({ea}))
    assert iso(after, encode_ccs(parse_term("b|c"))) is not None
    assert residual(struct, frozenset({ea})) == after


def test_remove_config_of_top_leaves_empty():
    struct = encode_ccs(parse_term("a.b"))
    (top,) = top_configs(struct)
    assert remove_config(struct, top) == EMPTY_STRUCT


# ---------------------------------------------------------------------------
# Steps, barbs, maximality


def test_config_steps_and_backsteps():
    struct = encode_ccs(parse_term("a.b"))
    (ea,) = [e for e, l in struct.labels.items() if l == A]
    (eb,) = [e for e, l in struct.labels.items() if l == B]
    assert config_steps(struct, frozenset()) == frozenset(
        {(ea, frozenset({ea}))}
    )
    assert config_backsteps(struct, frozenset({ea, eb})) == frozenset(
        {(eb, frozenset({ea}))}
    )


def test_barbs_at_configuration():
    struct = encode_ccs(parse_term("a.b + c"))
    (ea,) = [e for e, l in struct.labels.items() if l == A]
    assert {str(l) for l in barbs_at(struct, frozenset())} == {"a", "c"}
    assert {str(l) for l in barbs_at(struct, frozenset({ea}))} == {"b"}


def test_maximal_and_top():
    struct = encode_ccs(parse_term("a.b + c"))
    (ec,) = [e for e, l in struct.labels.items() if l == C_]
    assert is_maximal(struct, frozenset({ec}))
    assert not is_maximal(struct, frozenset())
    tops = top_configs(struct)
    assert tops == frozenset({frozenset(e for e in struct.events if e != ec)})


# ---------------------------------------------------------------------------
# Isomorphism


def test_iso_invariant_under_event_identity():
    left = encode_ccs(parse_term("a.b + b.a"))
    right = cs(
        [["x"], ["y"], ["x", "p"], ["y", "q"]],
        {"x": A, "p": B, "y": B, "q": A},
    )
    mapping = iso(left, right)
    assert mapping is not None
    for event, image in mapping.items():
        assert left.labels[event] == right.labels[image]


def test_iso_rejects_different_branching():
    assert iso(
        encode_ccs(parse_term("a|b")), encode_ccs(parse_term("a.b + b.a"))
    ) is None


def test_iso_respects_configs_not_just_counts():
    left = cs([["x"], ["y"]], {"x": A, "y": A})
    right = cs([["x"], ["x", "y"]], {"x": A, "y": A})
    assert iso(left, right) is None


# ---------------------------------------------------------------------------
# Serialisation


def test_json_round_trip():
    rng = random.Random(21)
    for _ in range(30):
        struct = encode_ccs(random_singly_term(rng, max_prefixes=5))
        again = from_json(to_json(struct))
        assert iso(struct, again) is not None


def test_json_shape():
    struct = encode_ccs(parse_term("a.b"))
    payload = json.loads(to_json(struct))
    assert set(payload) == {"events", "configs"}
    assert all(set(e) == {"id", "label"} for e in payload["events"])
    assert sorted(len(x) for x in payload["configs"]) == [0, 1, 2]


def test_dot_output_mentions_all_configs():
    struct = encode_ccs(parse_term("a|b"))
    dot = to_dot(struct)
    assert dot.startswith("digraph")
    assert dot.count("->") == 4


def test_event_names_unique():
    struct = encode_ccs(parse_term("a.(a|c)+b"))
    names = event_names(struct)
    assert len(set(names.values())) == len(struct.events)


# ---------------------------------------------------------------------------
# Hypothesis: encodings are valid structures and survive a JSON round trip


def _random_encoding(rng) -> ConfStruct:
    try:
        return encode_ccs(random_term(rng, max_prefixes=8, alphabet=["a", "b", "c"]))
    except EventCapExceeded:
        reject()


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_encodings_satisfy_axioms_property(rng):
    assert validate_axioms(_random_encoding(rng)).ok


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_json_round_trip_property(rng):
    struct = _random_encoding(rng)
    assert iso(from_json(to_json(struct)), struct) is not None
