"""Known-answer benchmark for the rccs workbench.

    python3 perfbench/run.py --workload build --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
Each workload runs in a fresh process as one closed loop of seeded
operations through ``rccs.cli.run`` (see workload.py), checked against
answers fixed by how each input was built (see corpus.py):

  build       ``rccs encode`` then ``rccs axioms``: structures layer
  equiv       ``rccs check hhpb`` with repeated labels: equivalences layer
  congruence  ``rccs check hhpb`` and ``check congruence``: machine layer
  walk        ``rccs encode --rccs`` and ``rccs replay``: machine paths

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. Times are scaled to a reference speed of the host
(see reference.py), and an operation's time is the least over its
renamed copies (see workload.py); an operation that is refused, times
out or crashes is undecided and counts at the time limit. ``failed``
counts the operations that crashed or gave a wrong verdict. With
``--trace 1`` the same operations run untraced and then traced
(tracer.py) in two processes, their verdicts must agree, and the
per-layer metrics are printed.
``--workload all`` prints the end-to-end table for every workload.
Exit status is 1 when a verdict contradicts its built answer and 2 when
the program cannot be found or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from reference import REFERENCE_MS, reference_ms, scaled  # noqa: E402

# Fresh-interpreter imports timed before the workload and again after
# it, so that setup_s spans the run rather than one moment of the host.
SETUP_SAMPLES = 8
SETUP_REFERENCE_SAMPLES = 5
CHILD_TIMEOUT_S = 170
UNDECIDED = ("refused", "timed_out", "crashed")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import rccs.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    pass


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    # The benchmark runs at rccs's default event cap, as users get it.
    env.pop("RCCS_EVENT_CAP", None)
    # Set iteration order inside rccs follows the hash seed; tie it to --seed.
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def measure_setup(seed: int) -> tuple[list[float], list[float]]:
    """Seconds for a fresh interpreter to import rccs.cli, SETUP_SAMPLES
    interpreters one at a time, and the reference loop's time before
    each; one more runs first, untimed, since it may compile bytecode."""
    samples, refs = [], []
    for _ in range(SETUP_SAMPLES + 1):
        refs.append(statistics.median(reference_ms() for _ in range(SETUP_REFERENCE_SAMPLES)))
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=child_env(seed),
            capture_output=True,
            text=True,
            timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"cannot import rccs.cli: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:], refs[1:]


def run_child(workload: str, seed: int, seconds: float, workdir: str, trace: int, ops=None) -> dict:
    argv = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", workdir,
    ]
    if ops is not None:
        argv += ["--ops", str(ops)]
    try:
        done = subprocess.run(
            argv, env=child_env(seed), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {CHILD_TIMEOUT_S} s")
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{workload} failed:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


# The status an operation takes from its copies: the first of these any
# copy has, else decided.
STATUS_ORDER = ("wrong", "crashed", "refused", "timed_out")


def merge_copies(records: list) -> list:
    """One entry per operation: its status and its least scaled time over
    its copies."""
    copies: dict[int, list] = {}
    for record in records:
        copies.setdefault(record["index"], []).append(record)
    ops = []
    for index, runs in copies.items():
        statuses = {run["status"] for run in runs}
        status = next((s for s in STATUS_ORDER if s in statuses), "decided")
        ops.append(
            {
                "index": index,
                "name": runs[0]["name"],
                "status": status,
                "seconds": min(run["scaled"] for run in runs),
                "copies": len(runs),
            }
        )
    return ops


def summarise(report: dict) -> dict:
    records = report["ops"]
    scaled_s = scaled(
        [r["started"] for r in records],
        [r["seconds"] for r in records],
        [r["ref_ms"] for r in records],
    )
    for record, value in zip(records, scaled_s):
        record["scaled"] = value
    ops = merge_copies(records)
    limit = report["limit_s"]
    times = [
        limit if op["status"] in UNDECIDED else op["seconds"] for op in ops
    ]
    decided = sum(op["status"] == "decided" for op in ops)
    by_status = {s: sum(op["status"] == s for op in ops) for s in UNDECIDED + ("wrong",)}
    return {
        "attempted": len(ops),
        "decided": decided,
        # Wrong verdicts and crashes; refusals and time-outs are the
        # program's own limits and show in decided_share instead.
        "failed": by_status["wrong"] + by_status["crashed"],
        "by_status": by_status,
        "reference_ms": statistics.median(r["ref_ms"] for r in records),
        "wrong_ops": [r for r in records if r["status"] == "wrong"],
        "undecided_ops": [
            (op["index"], op["name"], op["status"]) for op in ops if op["status"] in UNDECIDED
        ],
        "metrics": {
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_p90_ms": (_p90(times) * 1e3, "ms"),
            "decided_share": (decided / len(ops), "share"),
            "decided_per_s": (
                sum(r["status"] == "decided" for r in records) / sum(scaled_s), "1/s"
            ),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        },
    }


def as_json_metrics(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def print_wrong(summary: dict) -> None:
    for op in summary["wrong_ops"]:
        print(
            f"WRONG op {op['index']}: {op['detail']}\n  input: {json.dumps(op['input'])}",
            file=sys.stderr,
        )


def end_to_end(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    report = run_child(workload, seed, seconds, workdir, 0)
    summary = summarise(report)
    slowest = max((op["seconds"] for op in report["ops"] if op["status"] == "decided"), default=0.0)
    print(
        f"{workload}: {summary['attempted']} ops in {len(report['ops'])} copies, "
        f"{summary['decided']} decided, "
        f"undecided by cause {json.dumps({s: summary['by_status'][s] for s in UNDECIDED})}, "
        f"slowest decided {slowest:.3f} s, event cap {report['event_cap']}, "
        f"limit {report['limit_s']} s, reference loop {summary['reference_ms']:.4f} ms "
        f"(times scaled to {REFERENCE_MS} ms)"
    )
    for index, name, status in summary["undecided_ops"]:
        print(f"  undecided op {index} ({name or 'seeded'}): {status}")
    return summary


def traced(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    """Per-layer metrics: the ops of an untraced run, replayed traced."""
    plain = run_child(workload, seed, max(seconds / 2, 1.0), workdir, 0)
    spans = run_child(workload, seed, 0, workdir, 1, ops=sum(r["copy"] == 0 for r in plain["ops"]))
    verdicts = [(op["status"], op["verdict"]) for op in plain["ops"]]
    traced_verdicts = [(op["status"], op["verdict"]) for op in spans["ops"]]
    same = verdicts == traced_verdicts
    if not same:
        for index, (a, b) in enumerate(zip(verdicts, traced_verdicts)):
            if a != b:
                print(f"traced op {index} differs: {a} untraced, {b} traced", file=sys.stderr)
    metrics = {name: tuple(v) for name, v in spans["per_layer"].items()}
    metrics["trace.overhead_s"] = (spans["busy_s"] - plain["busy_s"], "s")
    print(
        f"{workload} traced: {len(spans['ops'])} copies run, {spans['spans']['count']} spans "
        f"in {spans['spans']['path']}, overhead {spans['busy_s'] - plain['busy_s']:.3f} s "
        f"over {plain['busy_s']:.3f} s untraced, verdicts identical: {same}"
    )
    print(f"  ratio bases: {json.dumps(spans['bases'])}")
    print(f"  patched sites: {json.dumps(spans['sites'])}")
    return {"same": same, "summary": summarise(spans), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "rccs", "cli.py")):
        print("run from the repository root: src/rccs/cli.py not found", file=sys.stderr)
        return 2
    workdir = os.path.abspath(".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    started = time.perf_counter()
    try:
        if args.trace:
            results = [traced(w, args.seed, args.seconds, workdir) for w in workloads]
            correct = all(r["same"] and not r["summary"]["wrong_ops"] for r in results)
            summaries = [r["summary"] for r in results]
            per_workload = [r["metrics"] for r in results]
        else:
            before = measure_setup(args.seed)
            summaries = [end_to_end(w, args.seed, args.seconds, workdir) for w in workloads]
            after = measure_setup(args.seed)
            raw, refs = before[0] + after[0], before[1] + after[1]
            setup = [value * REFERENCE_MS / ref for value, ref in zip(raw, refs)]
            q1, _, q3 = statistics.quantiles(setup, n=4)
            print(
                f"setup: import rccs.cli median {statistics.median(setup):.4f} s scaled, "
                f"quartiles {q1:.4f}..{q3:.4f} s, {statistics.median(raw):.4f} s raw, "
                f"over {len(setup)} fresh interpreters"
            )
            correct = all(not s["wrong_ops"] for s in summaries)
            per_workload = [s["metrics"] for s in summaries]
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    metrics = {}
    for workload, values in zip(workloads, per_workload):
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + name: value for name, value in values.items()})
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
        width = max(map(len, metrics))
        for name, (value, unit) in metrics.items():
            print(f"  {name:<{width}}  {value:12.4f} {unit}")
    for summary in summaries:
        print_wrong(summary)
    print(f"wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(s["attempted"] for s in summaries),
                "failed": sum(s["failed"] for s in summaries),
                "metrics": as_json_metrics(metrics),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
