"""Command-line front end.

Exit codes: 0 = success / equivalent / valid, 1 = distinguished /
invalid, 2 = usage or input error. Malformed input is reported on
stderr, never as a traceback.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from .terms import ParseError, Term, format_term, parse_term
from .machine import (
    NotCoherent,
    Process,
    ReplayError,
    Thread,
    bwd_steps,
    exec_form,
    format_memory,
    format_process,
    fwd_steps,
    origin,
    parse_process,
    parse_trace,
    replay,
    threads,
)
from .structures import (
    ConfStruct,
    EventCapExceeded,
    _event_cap,
    event_names,
    from_json,
    to_dot,
    to_json,
    validate_axioms,
)
from .encoding import NotSinglyLabelled, encode_ccs, encode_rccs
from .equivalences import (
    TauEventInConfig,
    Verdict,
    bounded_congruence,
    ccs_barbed_bisim,
    congruence_contexts,
    cs_bfb_barbed_bisim,
    forw_backw_levels,
    hhpb,
    rccs_bfb_bisim,
)


class _CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _CliError(message, 2)


@functools.cache  # one per process: building it costs more than most commands
def _build_parser() -> _Parser:
    parser = _Parser(prog="rccs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a term or process")
    p.set_defaults(func=_cmd_parse)
    p.add_argument("input")

    p = sub.add_parser("fmt", help="pretty-print a term or process")
    p.set_defaults(func=_cmd_fmt)
    p.add_argument("input")

    p = sub.add_parser("step", help="interactive stepper")
    p.set_defaults(func=_cmd_step)
    p.add_argument("input")

    p = sub.add_parser("encode", help="encode into a configuration structure")
    p.set_defaults(func=_cmd_encode)
    p.add_argument("input")
    p.add_argument("--rccs", action="store_true")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("axioms", help="validate a structure file")
    p.set_defaults(func=_cmd_axioms)
    p.add_argument("file")

    p = sub.add_parser("check", help="decide an equivalence")
    p.set_defaults(func=_cmd_check)
    p.add_argument("kind", choices=("hhpb", "bfb", "barbed-ccs", "congruence"))
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--context-depth", type=int, default=2)

    p = sub.add_parser("levels", help="level-indexed approximation tables")
    p.set_defaults(func=_cmd_levels)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("replay", help="replay a trace against a process")
    p.set_defaults(func=_cmd_replay)
    p.add_argument("input")
    p.add_argument("tracefile")

    return parser


# ---------------------------------------------------------------------------
# Input loading


def _load_term(text: str) -> Term:
    try:
        return parse_term(text)
    except ParseError as exc:
        raise _CliError(f"bad term: {exc}", 2)


def _load_term_or_process(text: str, prefix: str = "") -> Term | Process:
    """A term or a process. When neither parses, the error of the parse
    that got further is shown, after ``prefix``; on a tie, the term's."""
    try:
        return parse_term(text)
    except ParseError as exc:
        term_error = exc
    try:
        return parse_process(text)
    except ParseError as exc:
        error = max(term_error, exc, key=lambda e: e.offset)
        raise _CliError(f"{prefix}{error}", 2)


def _load_process(text: str) -> Process:
    """A process, with a bare term read as running under empty memory."""
    subject = _load_term_or_process(text, "bad process: ")
    return Thread((), subject) if isinstance(subject, Term) else subject


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(str(exc), 2)
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: {exc}", 2)


def _is_json(text: str) -> bool:
    if not text.lstrip().startswith("{"):
        return False
    try:
        return isinstance(json.loads(text), dict)
    except ValueError:
        return False


def _load_structure_or_term(text: str) -> ConfStruct:
    if _is_json(text):
        try:
            return from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise _CliError(f"bad structure JSON: {exc}", 2)
    return encode_ccs(_load_term(text))


# ---------------------------------------------------------------------------
# Subcommands


def _formatted(text: str) -> tuple[str, str]:
    subject = _load_term_or_process(text)
    if isinstance(subject, Term):
        return "term", format_term(subject)
    return "process", format_process(subject)


def _cmd_parse(args) -> int:
    kind, rendered = _formatted(args.input)
    print(json.dumps({"kind": kind, "formatted": rendered}))
    return 0


def _cmd_fmt(args) -> int:
    print(_formatted(args.input)[1])
    return 0


def _transitions(state: Process):
    fw = sorted(fwd_steps(state), key=lambda s: (str(s[1]), s[0], format_process(s[2])))
    bw = sorted(bwd_steps(state), key=lambda s: (str(s[1]), s[0], format_process(s[2])))
    return fw, bw


def _print_state(state: Process):
    print(f"state: {format_process(state)}")
    fw, bw = _transitions(state)
    if fw:
        print("forward:")
        for n, (ident, label, _) in enumerate(fw, start=1):
            print(f"  {n}) + {ident}:{label}")
    else:
        print("forward: none")
    if bw:
        print("backward:")
        for n, (ident, label, _) in enumerate(bw, start=1):
            print(f"  {n}) - {ident}:{label}")
    else:
        print("backward: none")


def _cmd_step(args) -> int:
    state = _load_process(args.input)
    _print_state(state)
    for raw in args.stdin:
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        command = parts[0]
        if command == "quit":
            return 0
        if command == "origin":
            try:
                print(f"origin: {format_process(origin(state))}")
            except NotCoherent as exc:
                print(f"not coherent: {exc}", file=sys.stderr)
            continue
        if command == "mem":
            for thread in threads(exec_form(state)):
                print(format_memory(thread.memory))
            continue
        if command in ("do", "undo"):
            fw, bw = _transitions(state)
            pool = fw if command == "do" else bw
            try:
                index = int(parts[1]) - 1
                if not 0 <= index < len(pool):
                    raise IndexError
            except (IndexError, ValueError):
                print(f"no such transition: {line}", file=sys.stderr)
                continue
            ident, label, state = pool[index]
            sign = "+" if command == "do" else "-"
            print(f"{sign} {ident}:{label}")
            _print_state(state)
            continue
        print(f"unknown command: {line}", file=sys.stderr)
    return 0


def _cmd_encode(args) -> int:
    if args.rccs:
        process = _load_process(args.input)
        try:
            address = encode_rccs(process)
        except NotCoherent as exc:
            raise _CliError(f"not coherent: {exc}", 1)
        except NotSinglyLabelled as exc:
            raise _CliError(f"not singly labelled: {exc}", 1)
        except EventCapExceeded as exc:
            raise _CliError(str(exc), 1)
        structure = address.structure
        names = event_names(structure)
        if args.format == "dot":
            print(to_dot(structure))
            return 0
        print(
            to_json(
                structure,
                extra={
                    "at": sorted(names[e] for e in address.at),
                    "id_match": {
                        str(i): names[e] for i, e in address.id_match.items()
                    },
                },
            )
        )
        return 0
    term = _load_term(args.input)
    try:
        structure = encode_ccs(term)
    except EventCapExceeded as exc:
        raise _CliError(str(exc), 1)
    print(to_dot(structure) if args.format == "dot" else to_json(structure))
    return 0


def _cmd_axioms(args) -> int:
    try:
        structure = from_json(_read_file(args.file))
    except (ValueError, KeyError, TypeError) as exc:
        raise _CliError(f"bad structure JSON: {exc}", 2)
    report = validate_axioms(structure)
    names = event_names(structure)

    def render(witness):
        if isinstance(witness, (frozenset, set)):
            return sorted(names.get(e, str(e)) for e in witness)
        if isinstance(witness, tuple):
            return [render(part) for part in witness]
        return names.get(witness, str(witness))

    failures = {axiom: render(w) for axiom, w in report.failures().items()}
    print(json.dumps({"valid": report.ok, "failures": failures}))
    return 0 if report.ok else 1


def _emit_verdict(verdict: Verdict) -> int:
    payload = {"verdict": verdict.outcome}
    if verdict.evidence is not None:
        payload["evidence"] = verdict.evidence
    print(json.dumps(payload))
    return 0 if verdict.equivalent else 1


def _cmd_check(args) -> int:
    try:
        if args.kind == "hhpb":
            left = _load_structure_or_term(args.left)
            right = _load_structure_or_term(args.right)
            return _emit_verdict(hhpb(left, right))
        if args.kind == "bfb":
            if _is_json(args.left) or _is_json(args.right):
                left = _load_structure_or_term(args.left)
                right = _load_structure_or_term(args.right)
                return _emit_verdict(cs_bfb_barbed_bisim(left, right))
            return _emit_verdict(
                rccs_bfb_bisim(_load_process(args.left), _load_process(args.right))
            )
        if args.kind == "barbed-ccs":
            return _emit_verdict(
                ccs_barbed_bisim(_load_term(args.left), _load_term(args.right))
            )
        p = _load_term(args.left)
        q = _load_term(args.right)
        try:
            contexts = congruence_contexts(p, q, args.context_depth)
        except EventCapExceeded:
            raise
        except ValueError as exc:
            raise _CliError(str(exc), 2)
        return _emit_verdict(
            bounded_congruence(Thread((), p), Thread((), q), contexts)
        )
    except (EventCapExceeded, TauEventInConfig) as exc:
        raise _CliError(str(exc), 1)


def _cmd_levels(args) -> int:
    try:
        left = _load_structure_or_term(args.left)
        right = _load_structure_or_term(args.right)
    except EventCapExceeded as exc:
        raise _CliError(str(exc), 1)
    families = forw_backw_levels(left, right)
    names1 = event_names(left)
    names2 = event_names(right)

    def render(family: dict) -> dict:
        # Rows sorted on the whole rendering, matching included, so that
        # tied rows do not come out in set iteration order.
        return {
            str(level): sorted(
                [
                    sorted(names1[e] for e in x1),
                    sorted(names2[e] for e in x2),
                    sorted([names1[a], names2[b]] for a, b in f),
                ]
                for x1, x2, f in family[level]
            )
            for level in sorted(family)
        }

    print(
        json.dumps(
            {
                "forward": render(families.forward),
                "backward": render(families.backward),
            }
        )
    )
    return 0


def _cmd_replay(args) -> int:
    process = _load_process(args.input)
    try:
        trace = parse_trace(_read_file(args.tracefile))
    except ParseError as exc:
        raise _CliError(str(exc), 2)
    try:
        final = replay(process, trace)
    except ReplayError as exc:
        print(
            json.dumps({"valid": False, "index": exc.index, "error": str(exc)})
        )
        return 1
    print(json.dumps({"valid": True, "final": format_process(final)}))
    return 0


def _dispatch(argv, stdin) -> int:
    try:
        _event_cap()
    except ValueError as exc:
        raise _CliError(str(exc), 2)
    args = _build_parser().parse_args(argv, argparse.Namespace(stdin=stdin))
    try:
        return args.func(args)
    except RecursionError:
        raise _CliError("input nested too deeply", 2)


def _exit_code(argv, stdin) -> int:
    """Execute one invocation; an error is reported on stderr as one line."""
    try:
        return _dispatch(argv, stdin)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except SystemExit as exc:  # argparse --help
        return 0 if not exc.code else 2


def run(argv, stdin=None) -> tuple[int, str, str]:
    """Execute one invocation, capturing stdout and stderr."""
    out = io.StringIO()
    err = io.StringIO()
    if stdin is None:
        stdin = io.StringIO("")
    elif isinstance(stdin, (str, bytes)):
        if isinstance(stdin, bytes):
            stdin = stdin.decode("utf-8")
        stdin = io.StringIO(stdin)
    with redirect_stdout(out), redirect_stderr(err):
        code = _exit_code(list(argv), stdin)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    try:
        code = _exit_code(sys.argv[1:], sys.stdin)
    except BrokenPipeError:
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
