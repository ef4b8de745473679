"""One workload as a closed loop in a fresh process.

Run by run.py with ``PYTHONPATH=src``. Every operation goes through
``rccs.cli.run``; the next starts when the previous returns. Each
operation gets LIMIT_S seconds, enforced by SIGALRM in this process.

Every operation decided in the first round runs again, renamed, in
COPIES - 1 further rounds; run.py takes the least time over its copies,
so that a pause of the host or of the garbage collector in one copy
does not count. Before each copy the reference loop (reference.py) is
timed. The last line of stdout is a JSON report of every copy run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

import corpus
from reference import reference_ms

from rccs import cli
from rccs import structures

# Well above the slowest drawn operation (see BASELINE.json), while the
# ROADMAP's slow cases run far past it.
LIMIT_S = 3.0
# So that op_p90_ms has at least ten samples beyond it. Peak memory is
# read after this many operations: machine's caches grow with every
# operation, and a faster program, which runs more operations in the
# same time, should not be charged for the larger caches they fill.
MIN_OPS = 100
WARMUP_OPS = 5
# Copies per operation; congruence operations are slow enough that three
# copies of MIN_OPS operations would not fit a run.
COPIES = {"build": 3, "equiv": 3, "congruence": 2, "walk": 3}

DECIDED, WRONG, REFUSED, TIMED_OUT, CRASHED = (
    "decided",
    "wrong",
    "refused",
    "timed_out",
    "crashed",
)


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in rccs swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


def call_with_limit(fn, limit: float):
    """(result, timed_out). The alarm may fire while the limit is being
    disarmed; the outer handler catches that too."""
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return fn(), False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return None, True


class Outcome(Exception):
    """Ends an operation's check with a status other than decided."""

    def __init__(self, status: str, detail: str = ""):
        super().__init__(detail)
        self.status = status
        self.detail = detail


def _refused_or_crashed(result, what: str):
    """Exit 1 with only a message on stderr is a refusal (the event cap,
    or a tau event a discriminating context cannot guard); any other
    failure of a well-formed input is a crash."""
    code, out, err = result
    if code == 1 and not out.strip() and err.strip():
        raise Outcome(REFUSED, err.strip())
    raise Outcome(CRASHED, f"{what}: exit {code}: {(out + err).strip()[:300]}")


def _json(result, what: str) -> dict:
    try:
        return json.loads(result[1])
    except ValueError:
        raise Outcome(CRASHED, f"{what}: no JSON on stdout: {result[1][:200]!r}")


# ---------------------------------------------------------------------------
# Operations: each has a timed part (the CLI calls, and what a user must do
# between them) and an untimed check against the built answer.


def build_calls(op: dict, workdir: str) -> list:
    results = [cli.run(["encode", op["term"]])]
    if results[0][0] == 0:
        path = os.path.join(workdir, "structure.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(results[0][1])
        results.append(cli.run(["axioms", path]))
    return results


def build_check(op: dict, results: list) -> tuple:
    encoded = results[0]
    if encoded[0] != 0:
        _refused_or_crashed(encoded, "encode")
    structure = _json(encoded, "encode")
    if len(structure["events"]) != op["events"]:
        raise Outcome(WRONG, f"{len(structure['events'])} events, built {op['events']}")
    if op["configs"] is not None and len(structure["configs"]) != op["configs"]:
        raise Outcome(
            WRONG, f"{len(structure['configs'])} configs, built {op['configs']}"
        )
    axioms = results[1]
    if axioms[0] == 2:
        _refused_or_crashed(axioms, "axioms")
    report = _json(axioms, "axioms")
    if axioms[0] != 0 or report.get("valid") is not True:
        raise Outcome(WRONG, f"axioms fail: {axioms[1].strip()[:300]}")
    return (len(structure["events"]), len(structure["configs"]), True)


def _verdict(result, what: str) -> str:
    """'equivalent' or 'distinguished' from a `check` run."""
    code = result[0]
    if code not in (0, 1) or not result[1].strip():
        _refused_or_crashed(result, what)
    verdict = _json(result, what).get("verdict")
    expected_code = 1 if verdict == "distinguished" else 0
    if verdict not in ("equivalent", "bounded-equivalent", "distinguished") or (
        code != expected_code
    ):
        raise Outcome(CRASHED, f"{what}: exit {code} with verdict {verdict!r}")
    return "distinguished" if verdict == "distinguished" else "equivalent"


def equiv_calls(op: dict, workdir: str) -> list:
    return [cli.run(["check", "hhpb", op["p"], op["q"]])]


def equiv_check(op: dict, results: list) -> tuple:
    verdict = _verdict(results[0], "hhpb")
    if verdict != op["expect"]:
        raise Outcome(WRONG, f"hhpb says {verdict}, built {op['expect']}")
    return (verdict,)


def congruence_calls(op: dict, workdir: str) -> list:
    results = [cli.run(["check", "hhpb", op["p"], op["q"]])]
    if results[0][0] in (0, 1) and results[0][1].strip():
        results.append(
            cli.run(
                ["check", "congruence", op["p"], op["q"], "--context-depth", "2"]
            )
        )
    return results


def congruence_check(op: dict, results: list) -> tuple:
    hhpb = _verdict(results[0], "hhpb")
    congruence = _verdict(results[1], "congruence")
    if (hhpb, congruence) != (op["expect"], op["expect"]):
        raise Outcome(
            WRONG, f"hhpb says {hhpb}, congruence says {congruence}, built {op['expect']}"
        )
    return (hhpb, congruence)


def walk_prepare(op: dict, workdir: str) -> None:
    op["tracefile"] = os.path.join(workdir, "walk.trace")
    with open(op["tracefile"], "w", encoding="utf-8") as handle:
        handle.write(op["trace"])


def walk_calls(op: dict, workdir: str) -> list:
    return [
        cli.run(["encode", "--rccs", op["process"]]),
        cli.run(["replay", op["process"], op["tracefile"]]),
    ]


def walk_check(op: dict, results: list) -> tuple:
    encoded, replayed = results
    if encoded[0] == 1 and encoded[2].startswith(("not coherent", "not singly labelled")):
        raise Outcome(WRONG, f"encode --rccs rejects a built process: {encoded[2].strip()}")
    if encoded[0] != 0:
        _refused_or_crashed(encoded, "encode --rccs")
    address = _json(encoded, "encode --rccs")
    got = (len(address["at"]), len(address["events"]), len(address["configs"]))
    built = (op["ids"], op["events"], op["configs"])
    if got != built:
        raise Outcome(WRONG, f"(address size, events, configs) = {got}, built {built}")
    if replayed[0] == 2:
        _refused_or_crashed(replayed, "replay")
    report = _json(replayed, "replay")
    if replayed[0] != 0 or report.get("valid") is not True:
        raise Outcome(WRONG, f"replay rejects a valid trace: {replayed[1].strip()[:300]}")
    return got


RUNNERS = {
    "build": (None, build_calls, build_check),
    "equiv": (None, equiv_calls, equiv_check),
    "congruence": (None, congruence_calls, congruence_check),
    "walk": (walk_prepare, walk_calls, walk_check),
}


def run_op(workload: str, op: dict, workdir: str) -> tuple:
    """(status, seconds, verdict, detail) of one operation."""
    prepare, calls, check = RUNNERS[workload]
    if prepare is not None:
        prepare(op, workdir)
    start = time.perf_counter()
    try:
        results, timed_out = call_with_limit(lambda: calls(op, workdir), LIMIT_S)
    except Exception:  # the program raised through cli.run: a crash
        elapsed = time.perf_counter() - start
        return CRASHED, elapsed, None, traceback.format_exc(limit=-3)
    elapsed = time.perf_counter() - start
    if timed_out:
        return TIMED_OUT, elapsed, None, ""
    try:
        return DECIDED, elapsed, check(op, results), ""
    except Outcome as outcome:
        return outcome.status, elapsed, None, outcome.detail


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--ops", type=int, help="run exactly this many operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    copies = COPIES[args.workload]

    signal.signal(signal.SIGALRM, _alarm)
    for index in range(WARMUP_OPS):
        run_op(args.workload, corpus.operation(args.workload, args.seed, index, "warmup"), args.workdir)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    records = []
    busy = {DECIDED: 0.0, "undecided": 0.0}
    peak_rss_mb = None

    def run_copy(index: int, copy: int) -> str:
        op = corpus.operation(args.workload, args.seed, index, copy=copy)
        ref_ms = reference_ms()
        started = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(len(records))
        status, elapsed, verdict, detail = run_op(args.workload, op, args.workdir)
        if tracer is not None and status == REFUSED:
            tracer.op_refused(len(records))
        busy[DECIDED if status == DECIDED else "undecided"] += elapsed
        records.append(
            {
                "index": index,
                "copy": copy,
                "name": op["name"],
                "status": status,
                "seconds": elapsed,
                "started": started,
                "ref_ms": ref_ms,
                "verdict": verdict,
                "detail": detail,
                "input": None if status == DECIDED else op,
            }
        )
        return status

    try:
        # The first round stops at the end of the period of templates
        # whose end, with the copies still to come, lies nearest to
        # filling the run; it holds at least one period.
        decided = []
        at_last_end = 0.0
        while True:
            index = len(records)
            if args.ops is not None:
                if index >= args.ops:
                    break
            elif corpus.period_ends(args.workload, index):
                expected = busy["undecided"] + copies * busy[DECIDED]
                period, at_last_end = expected - at_last_end, expected
                if index > len(corpus.FIXED[args.workload]) and (
                    expected >= 2 * args.seconds
                    or (index >= MIN_OPS and expected + period / 2 >= args.seconds)
                ):
                    break
            if run_copy(index, 0) == DECIDED:
                decided.append(index)
            if len(records) == MIN_OPS:
                peak_rss_mb = _peak_rss_mb()
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb()
        for copy in range(1, copies):
            for index in decided:
                run_copy(index, copy)
    finally:
        if tracer is not None:
            tracer.uninstall()
    event_cap = getattr(structures, "_event_cap", None)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "event_cap": event_cap() if callable(event_cap) else None,
        "limit_s": LIMIT_S,
        "copies": copies,
        "busy_s": sum(busy.values()),
        "peak_rss_mb": peak_rss_mb,
        "ops": records,
    }
    if tracer is not None:
        report["per_layer"] = tracer.metrics()
        report["bases"] = tracer.bases
        report["sites"] = tracer.sites
        report["spans"] = tracer.write_spans(
            os.path.join(args.workdir, f"spans-{args.workload}.bin")
        )
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
