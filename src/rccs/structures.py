"""Labelled configuration structures and their operations.

A structure is a finite event set, a total labelling, and a family of
finite configurations containing the empty set. Events carry
construction-tree identities: plain strings for external input, prefix
leaves, tagged coproduct injections and star-pairs for products, so
results are reproducible and projections readable off the identity.

Product events carry pair labels. ``parallel`` builds only the solo
events and the synchronising pairs, labelled tau, so its result carries
CCS labels only and the event cap bounds that result, not a product.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Mapping

from .terms import Label, TAU, complement, parse_label


class EventCapExceeded(ValueError):
    """Structure exceeds the event cap (RCCS_EVENT_CAP, default 16)."""


class _Star:
    __slots__ = ()

    def __repr__(self) -> str:
        return "*"


STAR = _Star()


def _event_cap() -> int:
    raw = os.environ.get("RCCS_EVENT_CAP", "16")
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"RCCS_EVENT_CAP must be a non-negative integer, got {raw!r}")
    return cap


def _check_cap(count: int) -> None:
    # No cap is below 0 events, so the empty structure built at import
    # time never reads the cap and a bad one is reported at first use.
    if count and count > (cap := _event_cap()):
        raise EventCapExceeded(f"{count} events exceed the cap of {cap}")


def _ekey(value) -> tuple:
    """Total order on heterogeneous event identities."""
    if value is STAR:
        return ("*",)
    if isinstance(value, tuple):
        return ("t", tuple(_ekey(item) for item in value))
    if isinstance(value, int):
        return ("i", value)
    return ("s", str(value))


def _lkey(label) -> tuple:
    if isinstance(label, tuple):
        return ("p", _lkey(label[0]), _lkey(label[1]))
    return ("l", label.kind, label.name or "")


class ConfStruct:
    """Immutable labelled configuration structure."""

    __slots__ = ("events", "configs", "labels", "_key")

    def __init__(
        self,
        events: Iterable,
        configs: Iterable[Iterable],
        labels: Mapping,
    ):
        self.events = frozenset(events)
        _check_cap(len(self.events))
        self.configs = frozenset(frozenset(x) for x in configs)
        self.labels = dict(labels)
        if frozenset() not in self.configs:
            raise ValueError("the empty configuration is required")
        for x in self.configs:
            if not x <= self.events:
                raise ValueError(f"configuration {set(x)} uses unknown events")
        if set(self.labels) != set(self.events):
            raise ValueError("labelling must be total on the events")
        self._key = (
            self.events,
            self.configs,
            frozenset(self.labels.items()),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, ConfStruct) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"ConfStruct({len(self.events)} events, {len(self.configs)} configs)"

    def label_of(self, event):
        return self.labels[event]

    def sorted_events(self) -> list:
        return sorted(self.events, key=_ekey)

    def sorted_configs(self) -> list[frozenset]:
        return sorted(self.configs, key=lambda x: (len(x), sorted(map(_ekey, x))))


EMPTY_STRUCT = ConfStruct((), ((),), {})


# ---------------------------------------------------------------------------
# Axioms


@dataclass(frozen=True)
class AxiomReport:
    finiteness: tuple | None
    coincidence_freeness: tuple | None
    finite_completeness: tuple | None
    stability: tuple | None

    @property
    def ok(self) -> bool:
        return (
            self.finiteness is None
            and self.coincidence_freeness is None
            and self.finite_completeness is None
            and self.stability is None
        )

    def failures(self) -> dict:
        out = {}
        for name in (
            "finiteness",
            "coincidence_freeness",
            "finite_completeness",
            "stability",
        ):
            witness = getattr(self, name)
            if witness is not None:
                out[name] = witness
        return out


def _above(configs: list[frozenset]) -> list[int]:
    """Per configuration, a bit mask of the configurations that contain
    it: x and y are bounded iff their masks meet."""
    above = [0] * len(configs)
    for j, z in enumerate(configs):
        for i, x in enumerate(configs):
            if x <= z:
                above[i] |= 1 << j
    return above


def _check_coincidence(c: ConfStruct) -> tuple | None:
    for x in c.sorted_configs():
        members = sorted(x, key=_ekey)
        for i, e1 in enumerate(members):
            for e2 in members[i + 1 :]:
                if not any(
                    z <= x and ((e1 in z) != (e2 in z)) for z in c.configs
                ):
                    return (x, e1, e2)
    return None


def _check_finite_completeness(c: ConfStruct) -> tuple | None:
    """Pairwise-compatible families must have their union in the family.

    Compatible pairs and pairwise-compatible triples suffice: when their
    unions are configurations, X1 | X2 is compatible with every other
    member of a family, and induction on its size covers the rest. The
    witness is a minimal pair or triple. Joins are bit masks, so triples
    cost |C|^2 mask operations.
    """
    configs = c.sorted_configs()
    index = {x: i for i, x in enumerate(configs)}
    above = _above(configs)
    joins = [1 << i for i in range(len(configs))]  # bit j: union with j in C
    for i, x in enumerate(configs):
        for j in range(i + 1, len(configs)):
            if x | configs[j] in index:
                joins[i] |= 1 << j
                joins[j] |= 1 << i
            elif above[i] & above[j]:
                return (x, configs[j])
    # Compatible pairs are now exactly the joins, and the union of a
    # triple is that of the union u of its first two with the third.
    for i, x in enumerate(configs):
        for j in range(i + 1, len(configs)):
            if joins[i] >> j & 1:
                u = index[x | configs[j]]
                missing = (joins[i] & joins[j] & ~joins[u]) >> (j + 1)
                if missing:
                    k = j + (missing & -missing).bit_length()
                    return (x, configs[j], configs[k])
    return None


def _check_stability(c: ConfStruct) -> tuple | None:
    """Bounded pairs must have their intersection in the family; |C|^2
    subset tests and mask operations."""
    configs = c.sorted_configs()
    above = _above(configs)
    for i, x in enumerate(configs):
        for j in range(i + 1, len(configs)):
            if above[i] & above[j] and (x & configs[j]) not in c.configs:
                return (x, configs[j])
    return None


def validate_axioms(c: ConfStruct) -> AxiomReport:
    return AxiomReport(
        finiteness=None,  # the representation is finite by construction
        coincidence_freeness=_check_coincidence(c),
        finite_completeness=_check_finite_completeness(c),
        stability=_check_stability(c),
    )


# ---------------------------------------------------------------------------
# Operations


def _pair(left, right):
    return ("pair", left, right)


def _solo_events(a: ConfStruct, b: ConfStruct) -> dict:
    """The events of a and of b as pair events with a star, labelled."""
    labels = {_pair(e1, STAR): a.labels[e1] for e1 in a.sorted_events()}
    labels.update({_pair(STAR, e2): b.labels[e2] for e2 in b.sorted_events()})
    return labels


def _product_configs(a: ConfStruct, b: ConfStruct, candidates: list) -> list:
    """The sets of candidate pair events that are product configurations.

    Such a set uses each event of a and of b at most once, projects onto
    configurations of both, and separates every two of its events by a
    subset that does too. For a and b stable and finitely complete, as
    every encoding is, these are the sets secured from the empty set
    (van Glabbeek & Plotkin, TCS 2009): grown one event at a time with
    both projections configurations at every step. The search grows
    them, at a cost of configurations times candidates.
    """
    _check_cap(len(candidates))
    empty = frozenset()
    found = {empty}
    work = [(empty, empty, empty)]  # a configuration and its projections
    for x, x1, x2 in work:
        for event in candidates:
            _, left, right = event
            if left in x1 or right in x2:  # a component already used
                continue
            y1 = x1 if left is STAR else x1 | {left}
            y2 = x2 if right is STAR else x2 | {right}
            if y1 not in a.configs or y2 not in b.configs:
                continue
            y = x | {event}
            if y not in found:
                found.add(y)
                work.append((y, y1, y2))
    return [x for x, _, _ in work]


def product(a: ConfStruct, b: ConfStruct) -> tuple[ConfStruct, dict, dict]:
    """Categorical product; returns the structure and both projections.

    Its configurations are those of the definition when a and b satisfy
    stability and finite completeness, as every encoding does.
    """
    labels = _solo_events(a, b)
    labels.update(
        {
            _pair(e1, e2): (a.labels[e1], b.labels[e2])
            for e1 in a.sorted_events()
            for e2 in b.sorted_events()
        }
    )
    struct = ConfStruct(labels, _product_configs(a, b, list(labels)), labels)
    p1 = {e: e[1] for e in labels}
    p2 = {e: e[2] for e in labels}
    return struct, p1, p2


def coproduct(a: ConfStruct, b: ConfStruct) -> ConfStruct:
    events = [("L", e) for e in a.sorted_events()] + [
        ("R", e) for e in b.sorted_events()
    ]
    labels = {("L", e): a.labels[e] for e in a.events}
    labels.update({("R", e): b.labels[e] for e in b.events})
    configs = {frozenset(("L", e) for e in x) for x in a.configs} | {
        frozenset(("R", e) for e in x) for x in b.configs
    }
    return ConfStruct(events, configs, labels)


def restrict_events(a: ConfStruct, keep: Iterable) -> ConfStruct:
    keep = frozenset(keep)
    if not keep <= a.events:
        raise ValueError("keep must be a subset of the events")
    return ConfStruct(
        keep,
        (x for x in a.configs if x <= keep),
        {e: a.labels[e] for e in keep},
    )


def restrict_name(a: ConfStruct, name: str) -> ConfStruct:
    keep = [
        e
        for e in a.events
        if not (isinstance(a.labels[e], Label) and a.labels[e].name == name)
    ]
    return restrict_events(a, keep)


def prefix(label: Label, a: ConfStruct) -> ConfStruct:
    k = 0
    while ("p", k) in a.events:
        k += 1
    event = ("p", k)
    labels = dict(a.labels)
    labels[event] = label
    configs = [frozenset()] + [x | {event} for x in a.configs]
    return ConfStruct(a.events | {event}, configs, labels)


def relabel(a: ConfStruct, mapping) -> ConfStruct:
    if callable(mapping):
        labels = {e: mapping(e) for e in a.events}
    else:
        labels = {e: mapping[e] for e in a.events}
    return ConfStruct(a.events, a.configs, labels)


def parallel(a: ConfStruct, b: ConfStruct) -> ConfStruct:
    """The product's solo events and synchronising pairs, the latter as tau.

    Pairs of complementary visible labels synchronise; no other pair is
    built, so the configurations are those of the product over these
    events alone.
    """
    labels = _solo_events(a, b)
    labels.update(
        {
            _pair(e1, e2): TAU
            for e1 in a.sorted_events()
            for e2 in b.sorted_events()
            if isinstance(l1 := a.labels[e1], Label)
            and isinstance(l2 := b.labels[e2], Label)
            and not l1.is_tau
            and l2 == complement(l1)
        }
    )
    return ConfStruct(labels, _product_configs(a, b, list(labels)), labels)


# ---------------------------------------------------------------------------
# Causality and the configuration LTS


def causes(c: ConfStruct, x: frozenset, e1, e2) -> bool:
    """e1 happens before e2 in x: every sub-configuration keeping e2 keeps e1."""
    if e1 not in x or e2 not in x or x not in c.configs:
        raise ValueError("causality is relative to a configuration")
    return all(e1 in z for z in c.configs if z <= x and e2 in z)


def _strictly_causes(c: ConfStruct, x: frozenset, e1, e2) -> bool:
    return e1 != e2 and causes(c, x, e1, e2)


def immediate_cause(c: ConfStruct, x: frozenset, e1, e2) -> bool:
    if not _strictly_causes(c, x, e1, e2):
        return False
    return not any(
        _strictly_causes(c, x, e1, mid) and _strictly_causes(c, x, mid, e2)
        for mid in x
        if mid not in (e1, e2)
    )


def remove_event(c: ConfStruct, event) -> ConfStruct:
    """The structure after executing one event: y is kept iff y + event was.

    Events left with no configuration (discarded alternatives) are
    dropped, so the residual is the structure of the remaining future.
    """
    if event not in c.events:
        raise ValueError("unknown event")
    configs = [x - {event} for x in c.configs if event in x]
    events = frozenset().union(*configs) if configs else frozenset()
    return ConfStruct(events, configs, {e: c.labels[e] for e in events})


def remove_config(c: ConfStruct, x: Iterable) -> ConfStruct:
    """Iterated event removal along an execution order of x."""
    x = frozenset(x)
    if x not in c.configs:
        raise ValueError("not a configuration")
    out = c
    remaining = set(x)
    while remaining:
        enabled = [
            e for e in sorted(remaining, key=_ekey) if frozenset((e,)) in out.configs
        ]
        if not enabled:
            raise ValueError(f"configuration {set(x)} has no execution order")
        out = remove_event(out, enabled[0])
        remaining.remove(enabled[0])
    return out


residual = remove_config


def config_steps(c: ConfStruct, x: frozenset) -> frozenset:
    if x not in c.configs:
        raise ValueError("not a configuration")
    return frozenset(
        (e, x | {e}) for e in c.events - x if (x | {e}) in c.configs
    )


def config_backsteps(c: ConfStruct, x: frozenset) -> frozenset:
    if x not in c.configs:
        raise ValueError("not a configuration")
    return frozenset((e, x - {e}) for e in x if (x - {e}) in c.configs)


def barbs_at(c: ConfStruct, x: frozenset) -> frozenset:
    return frozenset(
        c.labels[e]
        for e, _ in config_steps(c, x)
        if isinstance(c.labels[e], Label) and not c.labels[e].is_tau
    )


def is_maximal(c: ConfStruct, x: frozenset) -> bool:
    return not any(x < y for y in c.configs)


def top_configs(c: ConfStruct) -> frozenset:
    maximal = [x for x in c.configs if is_maximal(c, x)]
    depth = max(len(x) for x in maximal)
    return frozenset(x for x in maximal if len(x) == depth)


# ---------------------------------------------------------------------------
# Isomorphism


def _signature(c: ConfStruct, event) -> tuple:
    sizes = sorted(len(x) for x in c.configs if event in x)
    return (_lkey(c.labels[event]), tuple(sizes))


def iso(a: ConfStruct, b: ConfStruct) -> dict | None:
    """A label-preserving event bijection mapping configs onto configs."""
    if len(a.events) != len(b.events) or len(a.configs) != len(b.configs):
        return None
    if sorted(len(x) for x in a.configs) != sorted(len(x) for x in b.configs):
        return None
    sig_a: dict = {}
    for e in a.events:
        sig_a.setdefault(_signature(a, e), []).append(e)
    sig_b: dict = {}
    for e in b.events:
        sig_b.setdefault(_signature(b, e), []).append(e)
    if set(sig_a) != set(sig_b):
        return None
    if any(len(sig_a[s]) != len(sig_b[s]) for s in sig_a):
        return None

    order = sorted(a.events, key=lambda e: (len(sig_a[_signature(a, e)]), _ekey(e)))

    def compatible(mapping: dict) -> bool:
        domain = set(mapping)
        image = {
            frozenset(mapping[e] for e in x)
            for x in a.configs
            if x <= domain
        }
        return all(y in b.configs for y in image)

    def extend(index: int, mapping: dict, used: set):
        if index == len(order):
            image = {frozenset(mapping[e] for e in x) for x in a.configs}
            return dict(mapping) if image == b.configs else None
        e = order[index]
        for candidate in sorted(sig_b[_signature(a, e)], key=_ekey):
            if candidate in used:
                continue
            mapping[e] = candidate
            if compatible(mapping):
                found = extend(index + 1, mapping, used | {candidate})
                if found is not None:
                    return found
            del mapping[e]
        return None

    return extend(0, {}, set())


# ---------------------------------------------------------------------------
# Serialisation


def _event_id_str(event) -> str:
    if event is STAR:
        return "*"
    if isinstance(event, tuple):
        if event[0] == "p" and len(event) == 2:
            return f"p{event[1]}"
        if event[0] in ("L", "R") and len(event) == 2:
            return f"{event[0]}.{_event_id_str(event[1])}"
        if event[0] == "pair" and len(event) == 3:
            return f"({_event_id_str(event[1])},{_event_id_str(event[2])})"
    return str(event)


def _label_str(label) -> str:
    if not isinstance(label, Label):
        raise ValueError(f"label {label!r} is internal and not serialisable")
    return str(label)


def to_json(c: ConfStruct, extra: dict | None = None) -> str:
    names = event_names(c)
    payload = {
        "events": [
            {"id": names[e], "label": _label_str(c.labels[e])}
            for e in sorted(c.events, key=lambda e: names[e])
        ],
        "configs": sorted(
            (sorted(names[e] for e in x) for x in c.configs),
            key=lambda ids: (len(ids), ids),
        ),
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2)


def event_names(c: ConfStruct) -> dict:
    """The event-id rendering used by to_json, as a mapping."""
    names = {e: _event_id_str(e) for e in c.events}
    if len(set(names.values())) != len(names):
        names = {e: f"e{i}" for i, e in enumerate(c.sorted_events())}
    return names


def from_json(text: str) -> ConfStruct:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    events = []
    labels = {}
    for entry in payload.get("events", []):
        ident = entry["id"]
        if ident in labels:
            raise ValueError(f"duplicate event id {ident!r}")
        events.append(ident)
        labels[ident] = parse_label(entry["label"])
    configs = [frozenset(x) for x in payload.get("configs", [])]
    return ConfStruct(events, configs, labels)


def to_dot(c: ConfStruct) -> str:
    names = event_names(c)

    def node_id(x: frozenset) -> str:
        return '"' + ("{" + ",".join(sorted(names[e] for e in x)) + "}") + '"'

    def node_label(x: frozenset) -> str:
        return "{" + ",".join(sorted(_label_str(c.labels[e]) for e in x)) + "}"

    lines = ["digraph configurations {"]
    for x in c.sorted_configs():
        lines.append(f'  {node_id(x)} [label="{node_label(x)}"];')
    for x in c.sorted_configs():
        for e, y in sorted(
            config_steps(c, x), key=lambda step: _ekey(step[0])
        ):
            lines.append(
                f'  {node_id(x)} -> {node_id(y)} [label="{_label_str(c.labels[e])}"];'
            )
    lines.append("}")
    return "\n".join(lines)
