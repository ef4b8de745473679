"""Encoding CCS terms and reversible processes into configuration structures.

A CCS term maps inductively to a labelled configuration structure. A
coherent reversible process maps to an address: the structure of its
origin together with the configuration reached by replaying its past,
plus the bijection between memory identifiers and events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (
    CcsContext,
    CPar,
    Hole,
    Label,
    Nil,
    Par,
    Res,
    Sum,
    TAU,
    Term,
    canonical_term,
    format_term,
)
from .machine import (
    MemEvent,
    Process,
    UnsupportedContext,
    erase,
    forward_by,
    rollback,
    terminal_origin,
    threads,
)
from . import machine
from .structures import (
    EMPTY_STRUCT,
    STAR,
    ConfStruct,
    causes,
    config_steps,
    coproduct,
    parallel,
    prefix,
    residual,  # re-exported: the structure after executing a configuration
    restrict_name,
)


class NotSinglyLabelled(ValueError):
    """The origin's encoding shows auto-concurrency or auto-conflict."""


class AddressFailure(RuntimeError):
    """Internal invariant breach while addressing a process; a bug."""


# ---------------------------------------------------------------------------
# CCS encoding


def encode_ccs(term: Term) -> ConfStruct:
    if isinstance(term, Nil):
        return EMPTY_STRUCT
    if isinstance(term, Sum):
        parts = [
            prefix(label, encode_ccs(cont)) for label, cont in term.branches
        ]
        result = parts[0]
        for part in parts[1:]:
            result = coproduct(result, part)
        return result
    if isinstance(term, Par):
        return parallel(encode_ccs(term.left), encode_ccs(term.right))
    if isinstance(term, Res):
        return restrict_name(encode_ccs(term.body), term.name)
    raise TypeError(f"not a term: {term!r}")


def is_singly_labelled(subject) -> bool:
    """No two equally labelled events are enabled at any configuration."""
    if isinstance(subject, Term):
        subject = encode_ccs(subject)
    elif isinstance(subject, Process):
        subject = encode_ccs(canonical_term(erase(machine.origin(subject))))
    for x in subject.configs:
        extensions = [(e, subject.labels[e]) for e, _ in config_steps(subject, x)]
        labels = [label for _, label in extensions]
        if len(labels) != len(set(labels)):
            return False
    return True


# ---------------------------------------------------------------------------
# Memory order on identifiers


def memory_order(process: Process) -> frozenset[tuple[int, int]]:
    """Strict order: (i, j) when i lies deeper than j in some thread,
    glued across shared synchronisation identifiers and closed
    transitively."""
    edges: set[tuple[int, int]] = set()
    # Expanding a thread copies its memory chain to each new thread, so
    # the execution form has the same chains and the same order.
    for thread in threads(process):
        # Identifiers of one thread, deepest (oldest) first.
        chain = [
            item.ident
            for item in reversed(thread.memory)
            if isinstance(item, MemEvent)
        ]
        for a in range(len(chain)):
            for b in range(a + 1, len(chain)):
                edges.add((chain[a], chain[b]))
    order = set(edges)
    changed = True
    while changed:
        changed = False
        for i, j in list(order):
            for k, l in list(order):
                if j == k and (i, l) not in order:
                    order.add((i, l))
                    changed = True
    return frozenset(order)


# ---------------------------------------------------------------------------
# RCCS encoding


@dataclass(frozen=True)
class Address:
    structure: ConfStruct
    at: frozenset
    id_match: dict = field(hash=False)

    def event_for(self, ident: int):
        return self.id_match[ident]

    def ident_for(self, event) -> int:
        for ident, candidate in self.id_match.items():
            if candidate == event:
                return ident
        raise KeyError(event)


def _match_label(process_label: Label, event_label) -> bool:
    if process_label.is_tau:
        return event_label == TAU
    return event_label == process_label


def encode_rccs(process: Process) -> Address:
    """Address a coherent process inside its origin's encoding."""
    terminal, undo = rollback(process)
    start = terminal_origin(terminal).code
    structure = encode_ccs(start)
    if not is_singly_labelled(structure):
        raise NotSinglyLabelled(format_term(start))

    current = terminal
    at: frozenset = frozenset()
    match: dict = {}
    for record in reversed(undo):
        current = _forward_by(current, record.ident, record.label)
        at, match = _address_step(
            structure, at, match, record.ident, record.label, current
        )
    return Address(structure, at, match)


def _forward_by(form: Process, ident: int, label: Label) -> Process:
    targets = forward_by(form, ident, label)
    if len(targets) != 1:
        raise AddressFailure(
            f"{len(targets)} forward steps labelled {label} from "
            f"{machine.format_process(form)}"
        )
    (target,) = targets
    return target


def _address_step(
    structure: ConfStruct,
    at: frozenset,
    match: dict,
    ident: int,
    label: Label,
    target: Process,
) -> tuple[frozenset, dict]:
    order = memory_order(target)
    candidates = []
    for event in structure.events - at:
        if not _match_label(label, structure.labels[event]):
            continue
        extended = at | {event}
        if extended not in structure.configs:
            continue
        if all(
            ((j, ident) in order)
            == (match[j] != event and causes(structure, extended, match[j], event))
            for j in match
        ):
            candidates.append(event)
    if len(candidates) != 1:
        raise AddressFailure(
            f"{len(candidates)} events address step ({ident}, {label})"
        )
    event = candidates[0]
    new_match = dict(match)
    new_match[ident] = event
    return at | {event}, new_match


# ---------------------------------------------------------------------------
# Context projections


def projection_context(
    context: CcsContext, term: Term
) -> tuple[ConfStruct, dict]:
    """Encode C[term] with the projection of its events into the
    encoding of term (STAR on context-only events)."""
    if isinstance(context, Hole):
        structure = encode_ccs(term)
        return structure, {e: e for e in structure.events}
    if isinstance(context, CPar):
        inner_struct, inner_map = projection_context(context.inner, term)
        structure = parallel(encode_ccs(context.term), inner_struct)
        mapping = {}
        for event in structure.events:
            _, _, right = event
            mapping[event] = STAR if right is STAR else inner_map[right]
        return structure, mapping
    raise UnsupportedContext("only hole and parallel contexts project")
