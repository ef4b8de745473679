"""Reversible CCS: monitored processes, the forward/backward LTS, congruence.

A process is a tree of threads (memory + CCS code), parallel nodes and
restriction nodes. Memories are stacks (index 0 = top) of events
``<id, label, alternative>`` and fork markers recording parallel splits.

State handling works on an execution form in which memories are fully
distributed over parallel code, thread-level restrictions are hoisted to
process level under fresh bound names, and all terms are locally
canonical. Backward steps work on a refolded view that undoes the
distribution so that fork markers and synchronisations are undone
jointly. A step target is brought into execution form where the step
touched it: only the threads the step built or refolded are expanded,
and the functions here keep no state between calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .terms import (
    NIL,
    Label,
    Nil,
    Par,
    Res,
    Sum,
    TAU,
    Term,
    CcsContext,
    CPar,
    Hole,
    ParseError,
    all_names,
    canonical_term,
    complement,
    format_term,
    free_names,
    fresh_names,
    parse_label,
    rename_free,
    rename_names,
)
from . import terms as _terms


class NotCoherent(ValueError):
    """The process cannot be rolled back to an empty-memory origin."""


class ReplayError(ValueError):
    def __init__(self, message: str, index: int):
        super().__init__(f"{message} at step {index}")
        self.index = index


class UnsupportedContext(ValueError):
    """Only hole and nested parallel contexts can monitor a process."""


# ---------------------------------------------------------------------------
# Memories and processes


@dataclass(frozen=True)
class Fork:
    __slots__ = ()


FORK = Fork()


@dataclass(frozen=True)
class MemEvent:
    ident: int
    label: Label
    alternative: Term = NIL

    def __post_init__(self) -> None:
        if self.ident < 1:
            raise ValueError("event identifiers are positive")
        if self.label.is_tau:
            raise ValueError("a single memory entry never carries tau")


Memory = tuple  # of MemEvent | Fork, top first


class Process:
    __slots__ = ()


@dataclass(frozen=True)
class Thread(Process):
    memory: Memory
    code: Term


@dataclass(frozen=True)
class ParP(Process):
    left: Process
    right: Process


@dataclass(frozen=True)
class ResP(Process):
    body: Process
    name: str


EMPTY: Memory = ()


def monitored(term: Term) -> Thread:
    """The empty-memory process for a CCS term."""
    return Thread(EMPTY, term)


@dataclass(frozen=True)
class TransitionRecord:
    direction: str  # "+" forward, "-" backward
    ident: int
    label: Label

    def __post_init__(self) -> None:
        if self.direction not in ("+", "-"):
            raise ValueError("direction is '+' or '-'")
        if self.ident < 1:
            raise ValueError("event identifiers are positive")


def fwd_rec(ident: int, label: Label) -> TransitionRecord:
    return TransitionRecord("+", ident, label)


def bwd_rec(ident: int, label: Label) -> TransitionRecord:
    return TransitionRecord("-", ident, label)


# ---------------------------------------------------------------------------
# Basic queries


def threads(process: Process):
    """The threads of a process, left to right."""
    stack = [process]
    while stack:
        node = stack.pop()
        if isinstance(node, Thread):
            yield node
        elif isinstance(node, ParP):
            stack += (node.right, node.left)
        elif isinstance(node, ResP):
            stack.append(node.body)
        else:
            raise TypeError(f"not a process: {node!r}")


def _map_threads(process: Process, f) -> Process:
    """The process with each thread t replaced by f(t), left to right."""
    if isinstance(process, Thread):
        return f(process)
    if isinstance(process, ParP):
        return ParP(_map_threads(process.left, f), _map_threads(process.right, f))
    if isinstance(process, ResP):
        return ResP(_map_threads(process.body, f), process.name)
    raise TypeError(f"not a process: {process!r}")


def ids(process: Process) -> frozenset[int]:
    return frozenset(
        item.ident
        for thread in threads(process)
        for item in thread.memory
        if isinstance(item, MemEvent)
    )


def erase(process: Process) -> Term:
    """Forget the memories, keeping the term structure."""
    if isinstance(process, Thread):
        return process.code
    if isinstance(process, ParP):
        return Par(erase(process.left), erase(process.right))
    if isinstance(process, ResP):
        return Res(erase(process.body), process.name)
    raise TypeError(f"not a process: {process!r}")


def _memory_names(memory: Memory) -> frozenset[str]:
    acc: set[str] = set()
    for item in memory:
        if isinstance(item, MemEvent):
            acc.add(item.label.name)
            acc.update(free_names(item.alternative))
    return frozenset(acc)


def proc_free_names(process: Process) -> frozenset[str]:
    if isinstance(process, Thread):
        return free_names(process.code) | _memory_names(process.memory)
    if isinstance(process, ParP):
        return proc_free_names(process.left) | proc_free_names(process.right)
    if isinstance(process, ResP):
        return proc_free_names(process.body) - {process.name}
    raise TypeError(f"not a process: {process!r}")


def _proc_all_names(process: Process) -> frozenset[str]:
    if isinstance(process, Thread):
        acc = set(all_names(process.code)) | _memory_names(process.memory)
        for item in process.memory:
            if isinstance(item, MemEvent):
                acc.update(all_names(item.alternative))
        return frozenset(acc)
    if isinstance(process, ParP):
        return _proc_all_names(process.left) | _proc_all_names(process.right)
    if isinstance(process, ResP):
        return _proc_all_names(process.body) | {process.name}
    raise TypeError(f"not a process: {process!r}")


# ---------------------------------------------------------------------------
# Execution form: distributed memories, hoisted restrictions


def _canon_memory(memory: Memory, subst: dict[str, str]) -> Memory:
    out = []
    for item in memory:
        if isinstance(item, MemEvent):
            label, alternative = item.label, item.alternative
            if label.name in subst:
                label = Label(label.kind, subst[label.name])
            if not isinstance(alternative, Nil):
                alternative = canonical_term(rename_names(alternative, subst))
            out.append(MemEvent(item.ident, label, alternative))
        else:
            out.append(FORK)
    return tuple(out)


def exec_form(process: Process) -> Process:
    return _expand(process)


def _thread_ids(form: Process) -> set[int]:
    """The ``id``s of a form's threads: those a step leaves settled."""
    return {id(thread) for thread in threads(form)}


def _expand(process: Process, settled=()) -> Process:
    """The execution form of a process whose threads are in execution
    form where ``settled`` (a set of ``id``s) says so; the other threads
    are canonicalised and expanded here, under names fresh for the whole
    process, so the result is ``exec_form`` of the process."""

    def binders():  # lazily: most steps hoist nothing
        yield from fresh_names(_proc_all_names(process), "rn")

    names = binders()

    def expand(thread: Thread) -> Process:
        if id(thread) in settled:
            return thread
        memory = _canon_memory(thread.memory, {})
        return _expand_thread(memory, canonical_term(thread.code), names)

    return _map_threads(process, expand)


def _expand_thread(memory: Memory, code: Term, names, canonical=True) -> Process:
    """Hoist the restrictions and distribute the memory over the parallel
    code of a thread with canonical memory and code. Subterms are not
    canonical on their own, since bound names are numbered over the
    whole term, so the threads split off are canonicalised again."""
    if isinstance(code, Res):
        fresh = next(names)
        body = rename_free(code.body, code.name, fresh)
        return ResP(_expand_thread(memory, body, names, False), fresh)
    if isinstance(code, Par):
        forked = (FORK,) + memory
        return ParP(
            _expand_thread(forked, code.left, names, False),
            _expand_thread(forked, code.right, names, False),
        )
    return Thread(memory, code if canonical else canonical_term(code))


# ---------------------------------------------------------------------------
# Normal form and congruence


def normal_form(process: Process) -> Process:
    """Canonical representative modulo structural congruence.

    Memories distributed, restrictions hoisted, sums sorted, bound names
    renamed canonically, identifiers renumbered by first occurrence.
    """
    return _normalise(exec_form(process))


def _normalise(form: Process, settled=None) -> Process:
    """The normal form of a process whose threads are canonical and
    expanded where ``settled`` (a set of ``id``s; None: everywhere) says
    so; the other threads are canonicalised and expanded here.

    Binders become pn0, pn1, ... in pre-order, hoisted restrictions
    included, and a thread whose free names this renames is sorted again
    under its new names, so a normal form is its own execution form.
    """

    def binders():  # lazily: most processes restrict nothing
        yield from fresh_names(proc_free_names(form), "pn")

    names = binders()

    def walk(node: Process, subst: dict) -> Process:
        if isinstance(node, Thread):
            if not subst and (settled is None or id(node) in settled):
                return node
            return _expand_thread(
                _canon_memory(node.memory, subst),
                canonical_term(rename_names(node.code, subst)),
                names,
            )
        if isinstance(node, ParP):
            return ParP(walk(node.left, subst), walk(node.right, subst))
        if isinstance(node, ResP):
            fresh = next(names)
            inner = {k: v for k, v in subst.items() if k != node.name}
            if fresh != node.name:
                inner[node.name] = fresh
            return ResP(walk(node.body, inner), fresh)
        raise TypeError(f"not a process: {node!r}")

    result = walk(form, {})
    mapping: dict[int, int] = {}
    for thread in threads(result):
        for item in thread.memory:
            if isinstance(item, MemEvent):
                mapping.setdefault(item.ident, len(mapping) + 1)
    if all(old == new for old, new in mapping.items()):
        return result
    return _apply_id_map(result, mapping)


def _apply_id_map(process: Process, mapping: dict[int, int]) -> Process:
    def renumber(item):
        if isinstance(item, MemEvent):
            return MemEvent(mapping[item.ident], item.label, item.alternative)
        return FORK

    return _map_threads(
        process, lambda t: Thread(tuple(map(renumber, t.memory)), t.code)
    )


def congruent(r: Process, s: Process) -> bool:
    return normal_form(r) == normal_form(s)


# ---------------------------------------------------------------------------
# Forward steps


def fwd_steps(process: Process) -> frozenset[tuple[int, Label, Process]]:
    """All forward transitions, offering the least unused identifier."""
    return _form_fwd_steps(exec_form(process))


def _form_fwd_steps(form: Process) -> frozenset[tuple[int, Label, Process]]:
    fresh = _least_fresh(form)
    settled = _thread_ids(form)
    return frozenset(
        (fresh, label, _expand(build(fresh), settled))
        for label, build in _fwd_items(form)
    )


def forward_by(form: Process, ident: int, label: Label) -> frozenset[Process]:
    """The targets of an execution form's forward steps labelled
    ``label``, their new event numbered ``ident``; only those are built."""
    settled = _thread_ids(form)
    return frozenset(
        _expand(build(ident), settled) for l, build in _fwd_items(form) if l == label
    )


def _least_fresh(form: Process) -> int:
    used = ids(form)
    fresh = 1
    while fresh in used:
        fresh += 1
    return fresh


def _fwd_items(process: Process) -> list:
    if isinstance(process, Thread):
        if isinstance(process.code, Nil):
            return []
        if not isinstance(process.code, Sum):
            raise TypeError(f"unexpanded thread code: {process.code!r}")
        items = []
        branches = process.code.branches
        for k, (label, cont) in enumerate(branches):
            rest = branches[:k] + branches[k + 1 :]
            alternative = Sum(rest) if rest else NIL
            items.append(
                (
                    label,
                    lambda i, m=process.memory, l=label, a=alternative, c=cont: Thread(
                        (MemEvent(i, l, a),) + m, c
                    ),
                )
            )
        return items
    if isinstance(process, ParP):
        left_items = _fwd_items(process.left)
        right_items = _fwd_items(process.right)
        items = [
            (label, lambda i, b=build, r=process.right: ParP(b(i), r))
            for label, build in left_items
        ]
        items += [
            (label, lambda i, b=build, l=process.left: ParP(l, b(i)))
            for label, build in right_items
        ]
        for llabel, lbuild in left_items:
            if llabel.is_tau:
                continue
            dual = complement(llabel)
            for rlabel, rbuild in right_items:
                if rlabel == dual:
                    items.append(
                        (TAU, lambda i, lb=lbuild, rb=rbuild: ParP(lb(i), rb(i)))
                    )
        return items
    if isinstance(process, ResP):
        return [
            (label, lambda i, b=build, n=process.name: ResP(b(i), n))
            for label, build in _fwd_items(process.body)
            if label.is_tau or label.name != process.name
        ]
    raise TypeError(f"not a process: {process!r}")


def rccs_barbs(process: Process) -> frozenset[Label]:
    return _barbs(_fwd_items(exec_form(process)))


def _barbs(items: list) -> frozenset[Label]:
    return frozenset(label for label, _ in items if not label.is_tau)


# ---------------------------------------------------------------------------
# Backward steps


def _refold(process: Process) -> Process:
    """Undo memory distribution bottom-up so deep events become poppable.

    A hoisted restriction is pushed back into its thread's code only
    when the thread is a pending fork branch (memory top is a fork),
    since merging the branches is the one reason the restriction must
    cross the thread boundary again.
    """
    if isinstance(process, ParP):
        left = _refold(process.left)
        right = _refold(process.right)
        if (
            isinstance(left, Thread)
            and isinstance(right, Thread)
            and left.memory
            and right.memory
            and left.memory[0] is FORK
            and right.memory[0] is FORK
            and left.memory[1:] == right.memory[1:]
        ):
            return Thread(left.memory[1:], Par(left.code, right.code))
        return ParP(left, right)
    if isinstance(process, ResP):
        body = _refold(process.body)
        if (
            isinstance(body, Thread)
            and body.memory
            and body.memory[0] is FORK
            and process.name not in _memory_names(body.memory)
        ):
            return Thread(body.memory, Res(body.code, process.name))
        return ResP(body, process.name)
    return process


def _sum_restore(label: Label, code: Term, alternative: Term) -> Term | None:
    branch = (label, code)
    if isinstance(alternative, Nil):
        return Sum((branch,))
    if isinstance(alternative, Sum):
        return Sum((branch,) + alternative.branches)
    return None


def bwd_steps(process: Process) -> frozenset[tuple[int, Label, Process]]:
    """All backward transitions; synchronisations are undone jointly."""
    return _form_bwd_steps(exec_form(process))


def _form_bwd_steps(form: Process) -> frozenset[tuple[int, Label, Process]]:
    settled = _thread_ids(form)
    return frozenset(
        (ident, label, _expand(target, settled))
        for ident, label, target in _bwd_items(_refold(form))
    )


def _bwd_items(process: Process) -> list:
    if isinstance(process, Thread):
        if process.memory and isinstance(process.memory[0], MemEvent):
            event = process.memory[0]
            restored = _sum_restore(event.label, process.code, event.alternative)
            if restored is not None:
                return [
                    (event.ident, event.label, Thread(process.memory[1:], restored))
                ]
        return []
    if isinstance(process, ParP):
        left_items = _bwd_items(process.left)
        right_items = _bwd_items(process.right)
        left_ids = ids(process.left) if right_items else ()
        right_ids = ids(process.right) if left_items else ()
        items = [
            (i, label, ParP(target, process.right))
            for i, label, target in left_items
            if i not in right_ids
        ]
        items += [
            (i, label, ParP(process.left, target))
            for i, label, target in right_items
            if i not in left_ids
        ]
        for i, llabel, ltarget in left_items:
            if llabel.is_tau:
                continue
            dual = complement(llabel)
            for j, rlabel, rtarget in right_items:
                if i == j and rlabel == dual:
                    items.append((i, TAU, ParP(ltarget, rtarget)))
        return items
    if isinstance(process, ResP):
        return [
            (i, label, ResP(target, process.name))
            for i, label, target in _bwd_items(process.body)
            if label.is_tau or label.name != process.name
        ]
    raise TypeError(f"not a process: {process!r}")


def observe(state: Process) -> tuple[frozenset, frozenset, frozenset]:
    """What a barbed observer reads from a normal form: its barbs and the
    normal forms of its forward and backward tau-successors.

    Builds no visible-step target, and normalises each tau-target by
    expanding only the threads the step built or refolded.
    """
    items = _fwd_items(state)
    fresh = _least_fresh(state)
    settled = _thread_ids(state)
    return (
        _barbs(items),
        frozenset(
            _normalise(build(fresh), settled) for label, build in items if label.is_tau
        ),
        frozenset(
            _normalise(target, settled)
            for _, label, target in _bwd_items(_refold(state))
            if label.is_tau
        ),
    )


# ---------------------------------------------------------------------------
# Origins and coherence


def _step_key(step: tuple[int, Label, Process]) -> tuple:
    ident, label, target = step
    return (ident, str(label), format_process(target))


def rollback(process: Process) -> tuple[Process, list[TransitionRecord]]:
    """Deterministic maximal backward reduction; returns the stuck process."""
    current = exec_form(process)
    records: list[TransitionRecord] = []
    while True:
        steps = _form_bwd_steps(current)
        if not steps:
            return current, records
        ident, label, target = min(steps, key=_step_key)
        records.append(bwd_rec(ident, label))
        current = target


def origin(process: Process) -> Process:
    """The empty-memory ancestor, as a single thread; NotCoherent if stuck."""
    return terminal_origin(rollback(process)[0])


def terminal_origin(terminal: Process) -> Process:
    """The origin of the execution form a rollback stopped at: its code
    under empty memory, if the two are congruent; NotCoherent if not."""
    candidate = Thread(EMPTY, canonical_term(erase(terminal)))
    if _normalise(terminal) != normal_form(candidate):
        raise NotCoherent(f"rollback stuck at {format_process(terminal)}")
    return candidate


def is_coherent(process: Process) -> bool:
    try:
        origin(process)
    except NotCoherent:
        return False
    return True


def all_rollback_terminals(process: Process) -> frozenset[Process]:
    """Normal forms of every maximal backward reduction (exhaustive)."""
    seen: set[Process] = set()
    terminals: set[Process] = set()
    stack = [exec_form(process)]
    while stack:
        current = stack.pop()
        key = _normalise(current)
        if key in seen:
            continue
        seen.add(key)
        steps = _form_bwd_steps(current)
        if not steps:
            terminals.add(key)
        else:
            stack.extend(target for _, _, target in steps)
    return frozenset(terminals)


# ---------------------------------------------------------------------------
# Replay and parabolic traces


def replay(src: Process, trace: list[TransitionRecord]) -> Process:
    current = exec_form(src)
    for index, record in enumerate(trace):
        if record.direction == "+":
            if record.ident in ids(current):
                raise ReplayError(f"identifier {record.ident} already in use", index)
            targets = forward_by(current, record.ident, record.label)
            direction = "forward"
        else:
            targets = [
                target
                for i, label, target in _form_bwd_steps(current)
                if i == record.ident and label == record.label
            ]
            direction = "backward"
        if not targets:
            raise ReplayError(f"no matching {direction} transition", index)
        if len(targets) > 1:
            raise ReplayError(f"ambiguous {direction} transition", index)
        (current,) = targets
    return current


def rearrange_parabolic(
    src: Process, trace: list[TransitionRecord]
) -> list[TransitionRecord]:
    """Rewrite a replayable trace into backward-then-forward shape.

    Adjacent forward/backward records on the same identifier cancel;
    backward records commute leftwards past independent forward records.
    The result replays from src to a target congruent to the original's.
    """
    goal = replay(src, trace)
    work = list(trace)
    changed = True
    while changed:
        changed = False
        k = 0
        while k + 1 < len(work):
            first, second = work[k], work[k + 1]
            if first.direction == "+" and second.direction == "-":
                if first.ident == second.ident:
                    if first.label != second.label:
                        raise ReplayError("mismatched cancellation pair", k)
                    del work[k : k + 2]
                else:
                    work[k], work[k + 1] = second, first
                changed = True
                k = max(k - 1, 0)
            else:
                k += 1
    result = replay(src, work)
    if not congruent(result, goal):
        raise ReplayError("rearranged trace reaches a different target", len(work))
    return work


# ---------------------------------------------------------------------------
# Contexts


def addfork(process: Process) -> Process:
    """Insert a fork marker at the base of every thread memory."""
    return _map_threads(process, lambda t: Thread(t.memory + (FORK,), t.code))


def instantiate_context(context: CcsContext, process: Process) -> Process:
    """Monitor a parallel context around an already-monitored process."""
    if isinstance(context, Hole):
        return process
    if isinstance(context, CPar):
        inner = instantiate_context(context.inner, process)
        return ParP(Thread((FORK,), context.term), addfork(inner))
    raise UnsupportedContext(
        "only hole and parallel contexts can be instantiated"
    )


# ---------------------------------------------------------------------------
# Concrete syntax

_PROC_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<name>[a-z][a-z0-9_]*)|(?P<num>[1-9][0-9]*)"
    r"|(?P<sym>\|>|\{\}|[!.+|()\\<>,*]|0)"
)


class _ProcessParser(_terms._TermParser):
    """Processes: ``punit ('|' punit)*`` where a unit is a possibly
    restricted thread ``memory |> code`` or a parenthesised process.

    Thread code is parsed at sum level; parenthesise parallel code.
    """

    def parse_process(self) -> Process:
        process = self.parse_punit()
        while self.peek()[1] == "|":
            self.next()
            process = ParP(process, self.parse_punit())
        return process

    def parse_punit(self) -> Process:
        kind, text, pos = self.peek()
        if text == "(":
            self.next()
            process = self.parse_process()
            self.expect(")")
        elif text in ("{}", "*", "<"):
            memory = self.parse_memory()
            self.expect("|>")
            process = Thread(memory, self.parse_code())
        else:
            raise ParseError("expected a process", pos)
        while self.peek()[1] == "\\":
            self.next()
            process = ResP(process, self.parse_name("expected a name after '\\'"))
        return process

    def parse_memory(self) -> Memory:
        items = []
        while True:
            kind, text, pos = self.peek()
            if text == "{}":
                self.next()
                return tuple(items)
            if text == "*":
                self.next()
                items.append(FORK)
            elif text == "<":
                self.next()
                nkind, ntext, npos = self.next()
                if nkind != "num":
                    raise ParseError("expected an identifier", npos)
                self.expect(",")
                label = self.parse_action()
                if self.peek()[1] == ",":
                    self.next()
                    alternative = self.parse_par()
                else:
                    alternative = NIL
                self.expect(">")
                items.append(MemEvent(int(ntext), label, alternative))
            else:
                raise ParseError("expected a memory item", pos)
            self.expect(".")

    def parse_code(self) -> Term:
        kind, text, pos = self.peek()
        if text == "(":
            self.next()
            code = self.parse_par()
            self.expect(")")
            return code
        return self.parse_sum()


def parse_process(text: str) -> Process:
    parser = _ProcessParser(_terms._tokenize(text, _PROC_TOKEN))
    process = parser.parse_process()
    kind, _, pos = parser.peek()
    if kind != "eof":
        raise ParseError("trailing input", pos)
    return process


def format_memory(memory: Memory) -> str:
    parts = []
    for item in memory:
        if isinstance(item, MemEvent):
            if isinstance(item.alternative, Nil):
                parts.append(f"<{item.ident},{item.label}>")
            else:
                parts.append(
                    f"<{item.ident},{item.label},{format_term(item.alternative)}>"
                )
        else:
            parts.append("*")
    parts.append("{}")
    return ".".join(parts)


def format_process(process: Process) -> str:
    if isinstance(process, Thread):
        code = format_term(process.code)
        if isinstance(process.code, Par) or isinstance(process.code, Res):
            code = f"({code})"
        return f"{format_memory(process.memory)} |> {code}"
    if isinstance(process, ParP):
        left = format_process(process.left)
        right = format_process(process.right)
        if isinstance(process.left, ResP):
            left = f"({left})"
        if isinstance(process.right, (ParP, ResP)):
            right = f"({right})"
        return f"{left} | {right}"
    if isinstance(process, ResP):
        return f"({format_process(process.body)}) \\ {process.name}"
    raise TypeError(f"not a process: {process!r}")


def parse_trace(text: str) -> list[TransitionRecord]:
    """Line-oriented traces: ``+ i:label`` and ``- i:label``."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            direction, rest = line.split(None, 1)
            ident_text, label_text = rest.split(":", 1)
            records.append(
                TransitionRecord(
                    direction, int(ident_text.strip()), parse_label(label_text)
                )
            )
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad trace line {lineno}: {raw!r}", lineno) from exc
    return records


def format_trace(trace: list[TransitionRecord]) -> str:
    return "\n".join(f"{r.direction} {r.ident}:{r.label}" for r in trace)
