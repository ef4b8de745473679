"""Command-line interface: subcommands, exit codes, JSON round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import rccs
from rccs.cli import _build_parser, run
from rccs.structures import from_json, iso
from rccs.encoding import encode_ccs
from rccs.terms import parse_term


# ---------------------------------------------------------------------------
# parse / fmt


def test_parse_term_ok():
    code, out, err = run(["parse", "a.b + c | d"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"kind": "term", "formatted": "a.b + c | d"}


def test_parse_process_ok():
    code, out, _ = run(["parse", "<1,a>.{} |> b"])
    assert code == 0
    assert json.loads(out)["kind"] == "process"


def test_parse_bad_input_exit_2():
    code, out, err = run(["parse", "a..b"])
    assert code == 2
    assert err.strip()
    assert not out


def test_fmt_normalises():
    code, out, _ = run(["fmt", "((a.b))|0"])
    assert code == 0
    assert out.strip() == "a.b | 0"


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["parse"], ""),
        (["fmt"], ""),
        (["encode", "--rccs"], "bad process: "),
        (["step"], "bad process: "),
    ],
)
def test_unparsable_input_reports_the_parse_that_got_further(argv, prefix):
    # The term parse fails at the missing ')'; the process parse at once.
    assert run(argv + ["a.(b"]) == (2, "", f"{prefix}expected ')' at offset 4\n")


def test_usage_error_exit_2():
    code, _, err = run(["check", "nonsense", "a", "b"])
    assert code == 2
    assert err


# ---------------------------------------------------------------------------
# encode


def test_encode_json_round_trip():
    code, out, _ = run(["encode", "a.(a|c)+b"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["configs"]) == 6
    again = from_json(out)
    assert iso(again, encode_ccs(parse_term("a.(a|c)+b"))) is not None


def test_encode_emitted_json_is_re_readable_by_tool():
    _, out, _ = run(["encode", "a|b"])
    code, out2, _ = run(["check", "hhpb", out, out])
    assert code == 0
    assert json.loads(out2)["verdict"] == "equivalent"


def test_encode_cap_bounds_the_result_not_the_product():
    # The product of the two chains has 24 events; their parallel has 8.
    code, out, err = run(["encode", "a.b.c.d|e.f.g.h"])
    assert code == 0, err
    assert len(json.loads(out)["events"]) == 8


def test_encode_inputs_the_cap_admits_finish(monkeypatch):
    # 2^12 configurations: quick when they are grown one event at a
    # time, seconds for a search that walks subsets.
    monkeypatch.setenv("RCCS_EVENT_CAP", "12")
    code, out, err = run(["encode", "|".join(["a"] * 12)])
    assert code == 0, err
    assert len(json.loads(out)["configs"]) == 4096
    assert run(["encode", "|".join(["a"] * 13)]) == (
        1,
        "",
        "13 events exceed the cap of 12\n",
    )


def test_encode_dot():
    code, out, _ = run(["encode", "a|b", "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph")


def test_encode_rccs_address():
    code, out, _ = run(
        ["encode", "<2,a>.*.<1,a,b>.{} |> 0 | *.<1,a,b>.{} |> c", "--rccs"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["at"]) == 2
    assert set(payload["id_match"]) == {"1", "2"}
    assert set(payload["id_match"].values()) == set(payload["at"])


def test_encode_rccs_incoherent_exit_1():
    code, _, err = run(["encode", "*.<1,a>.{} |> b | {} |> c", "--rccs"])
    assert code == 1
    assert "coherent" in err


def test_encode_rccs_not_singly_labelled_exit_1():
    code, _, err = run(["encode", "<1,a,a.b>.{} |> b", "--rccs"])
    assert code == 1
    assert "singly" in err


# ---------------------------------------------------------------------------
# axioms


def test_axioms_counterexample(tmp_path):
    bad = {
        "events": [{"id": "e1", "label": "a"}, {"id": "e2", "label": "b"}],
        "configs": [[], ["e1", "e2"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(["axioms", str(path)])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert list(payload["failures"]) == ["coincidence_freeness"]


def test_axioms_valid_structure(tmp_path):
    _, encoded, _ = run(["encode", "a.b+b.a"])
    path = tmp_path / "good.json"
    path.write_text(encoded)
    code, out, _ = run(["axioms", str(path)])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_axioms_finite_completeness_witness_is_minimal(tmp_path):
    # Counterexample B: three events pairwise but not jointly compatible.
    names = ["e1", "e2", "e3"]
    structure = {
        "events": [{"id": n, "label": l} for n, l in zip(names, "abc")],
        "configs": [[]] + [[n] for n in names] + [["e1", "e2"], ["e1", "e3"], ["e2", "e3"]],
    }
    path = tmp_path / "b.json"
    path.write_text(json.dumps(structure))
    code, out, _ = run(["axioms", str(path)])
    assert code == 1
    assert json.loads(out)["failures"] == {"finite_completeness": [["e1"], ["e2"], ["e3"]]}


@pytest.mark.parametrize(
    "term, events, configs",
    [("a|b|c|d|e", 5, 32), ("a.b.c.d.e.f|g.h.i.j.k.l", 12, 49)],
)
def test_axioms_on_large_encodings(tmp_path, term, events, configs):
    code, encoded, _ = run(["encode", term])
    assert code == 0
    payload = json.loads(encoded)
    assert (len(payload["events"]), len(payload["configs"])) == (events, configs)
    path = tmp_path / "s.json"
    path.write_text(encoded)
    code, out, _ = run(["axioms", str(path)])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_axioms_duplicate_event_ids_exit_2(tmp_path):
    dup = {
        "events": [{"id": "x", "label": "a"}, {"id": "x", "label": "b"}],
        "configs": [[], ["x"]],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(dup))
    code, out, err = run(["axioms", str(path)])
    assert code == 2
    assert not out
    assert err.startswith("bad structure JSON:") and "'x'" in err


def test_axioms_missing_file_exit_2():
    code, _, err = run(["axioms", "/nonexistent/file.json"])
    assert code == 2
    assert err


@pytest.mark.parametrize("argv", [["axioms"], ["replay", "a.b"]])
def test_undecodable_file_exit_2(tmp_path, argv):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\n")
    code, out, err = run(argv + [str(path)])
    assert code == 2
    assert not out
    (line,) = err.strip().splitlines()
    assert line.startswith(f"{path}: ") and "can't decode byte 0xff" in line


# ---------------------------------------------------------------------------
# check / levels


def test_check_hhpb_distinguished_exit_1():
    code, out, _ = run(["check", "hhpb", "a|b", "a.b+b.a"])
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "distinguished"
    assert any(
        move["direction"] == "backward" for move in payload["evidence"]["play"]
    )


def test_check_hhpb_equivalent_exit_0():
    code, out, _ = run(["check", "hhpb", "a|b", "b|a"])
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalent"


def test_check_bfb_on_processes():
    code, out, _ = run(["check", "bfb", "{} |> (a|b)", "a.b+b.a"])
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalent"


def test_check_barbed_ccs():
    code, out, _ = run(["check", "barbed-ccs", "(a|!a)\\a", "0"])
    assert code == 1
    assert json.loads(out)["verdict"] == "distinguished"


def test_check_congruence_distinguished():
    code, out, _ = run(["check", "congruence", "a|b", "a.b+b.a"])
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "distinguished"
    assert "context" in payload["evidence"]


def test_check_congruence_bounded_equivalent():
    code, out, _ = run(
        ["check", "congruence", "a.b", "a.b", "--context-depth", "1"]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "bounded-equivalent"


def test_check_congruence_negative_depth_exit_2():
    code, out, err = run(
        ["check", "congruence", "a", "b", "--context-depth", "-1"]
    )
    assert code == 2
    assert not out
    assert len(err.strip().splitlines()) == 1 and "depth" in err


def test_check_congruence_counts_contexts_as_multisets():
    # The hole, three guards and the 69 multisets of one to four of the
    # prefixes a, !a, b, !b; as sequences there were 340.
    from rccs.equivalences import congruence_contexts

    assert len(congruence_contexts(parse_term("a|b"), parse_term("b|a"), 4)) == 73
    code, out, _ = run(["check", "congruence", "a|b", "b|a", "--context-depth", "4"])
    assert code == 0 and json.loads(out)["verdict"] == "bounded-equivalent"


def test_check_congruence_refuses_oversized_context_families():
    # Depth 7 over two names: 329 multisets, the hole and three guards.
    code, out, err = run(
        ["check", "congruence", "a|b", "b|a", "--context-depth", "7"]
    )
    assert code == 2
    assert not out
    assert err == "333 contexts exceed the limit of 256\n"


_DEEP = "a." * 399 + "a"  # 300 prefixes printed, 400 overflowed the stack


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", _DEEP],
        ["fmt", _DEEP],
        ["encode", "--rccs", _DEEP],
        ["check", "bfb", _DEEP, "a"],
        ["check", "barbed-ccs", _DEEP, "a"],
    ],
)
def test_deeply_nested_input_exit_2(argv):
    code, out, err = run(argv)
    assert code == 2
    assert not out
    assert err == "input nested too deeply\n"


def test_levels_over_the_event_cap_exit_1():
    code, out, err = run(["levels", "a." * 16 + "a", "a"])
    assert code == 1
    assert not out
    assert err == "17 events exceed the cap of 16\n"


def test_levels_tables():
    code, out, _ = run(["levels", "a|b", "a.b+b.a"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["forward"]["2"]) == 2
    assert len(payload["forward"]["1"]) == 2
    assert len(payload["forward"]["0"]) == 1
    assert payload["backward"]["2"] == []


# ---------------------------------------------------------------------------
# replay


def test_replay_valid_trace(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("+ 1:a\n+ 2:b\n- 2:b\n")
    code, out, _ = run(["replay", "{} |> a.b", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["final"] == "<1,a>.{} |> b"


def test_replay_invalid_trace_exit_1(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("+ 1:a\n- 2:a\n")
    code, out, _ = run(["replay", "{} |> a.b", str(path)])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["index"] == 1


def test_replay_malformed_trace_exit_2(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("go faster\n")
    code, _, err = run(["replay", "{} |> a.b", str(path)])
    assert code == 2
    assert err


@pytest.mark.parametrize("line", ["+ 0:a", "+ -2:a", "- 0:a"])
def test_replay_nonpositive_identifier_exit_2(tmp_path, line):
    path = tmp_path / "trace.txt"
    path.write_text(f"+ 1:a\n{line}\n")
    code, out, err = run(["replay", "a.b", str(path)])
    assert code == 2
    assert not out
    (message,) = err.strip().splitlines()
    assert message.startswith("bad trace line 2")


def test_channel_named_tau_exit_2(tmp_path):
    # tau is the silent action: as a channel its input would sit next to
    # the real tau event, and a trace could not tell the two apart.
    trace = tmp_path / "trace.txt"
    trace.write_text("+ 1:tau\n")
    for argv in (
        ["encode", "tau | !tau"],
        ["encode", "(a | b) \\ tau"],
        ["check", "congruence", "a.!tau", "a"],
        ["replay", "{} |> tau", str(trace)],
        ["replay", "<1,!tau>.{} |> a", str(trace)],
    ):
        code, out, err = run(argv)
        assert code == 2, argv
        assert not out
        (line,) = err.strip().splitlines()
        assert "'tau' is the silent action, not a channel name" in line, argv


def test_trace_or_structure_naming_tau_exit_2(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("+ 1:!tau\n")
    code, _, err = run(["replay", "{} |> a", str(trace)])
    assert code == 2 and "bad trace line 1" in err
    structure = tmp_path / "s.json"
    events = [{"id": "e", "label": "tau"}, {"id": "f", "label": "!tau"}]
    structure.write_text(json.dumps({"events": events, "configs": [[], ["e"], ["f"]]}))
    code, _, err = run(["axioms", str(structure)])
    assert code == 2 and err.startswith("bad structure JSON")


# ---------------------------------------------------------------------------
# step REPL


def test_step_do_undo_returns_to_start():
    code, out, err = run(
        ["step", "{} |> a.b"], "do 1\nundo 1\nquit\n"
    )
    assert code == 0
    states = [l for l in out.splitlines() if l.startswith("state:")]
    assert states[0] == states[-1] == "state: {} |> a.b"
    assert not err


def test_step_offers_only_replayable_transitions():
    code, out, _ = run(["step", "{} |> (a | !a)"], "do 3\nundo 1\nquit\n")
    assert code == 0
    assert "tau" in out


def test_step_origin_and_mem():
    code, out, _ = run(
        ["step", "<1,a>.{} |> b"], "origin\nmem\nquit\n"
    )
    assert code == 0
    assert "origin: {} |> a.b" in out
    assert "<1,a>.{}" in out


def test_step_bad_command_reports_and_continues():
    code, out, err = run(["step", "{} |> a"], "frobnicate\ndo 1\nquit\n")
    assert code == 0
    assert "unknown command" in err
    assert "+ 1:a" in out


def test_step_out_of_range_transition():
    code, _, err = run(["step", "{} |> a"], "do 7\nquit\n")
    assert code == 0
    assert "no such transition" in err


# ---------------------------------------------------------------------------
# environment


def test_hhpb_play_and_levels_do_not_depend_on_allocation_history():
    # Product event identities hold the STAR sentinel, which hashes by
    # address, so set order depends on what the interpreter allocated
    # before rccs was imported. Neither the tied answer a play reports
    # nor the order of tied level rows may follow it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(rccs.__file__)))
    script = (
        "from rccs.cli import run; "
        "print(run(['check', 'hhpb', 'b.b.!b | b.!a', 'b.a | b.b.!b'])[1]); "
        "print(run(['levels', 'a | a', 'a | a'])[1])"
    )
    outputs = set()
    for pre_import in ("", "import decimal; ", "import fractions; "):
        done = subprocess.run(
            [sys.executable, "-c", pre_import + script],
            env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    play = json.loads(outputs.pop().splitlines()[0])["evidence"]["play"]
    assert play[0]["answer"] == "(*,p2)"  # the first answer in event order


def test_reused_parser_carries_no_option_between_invocations():
    invocations = [
        ["encode", "--rccs", "a.b"],
        ["encode", "a.b"],
        ["check", "nonsense", "a", "b"],
        ["check", "congruence", "a|b", "b|a", "--context-depth", "7"],
        ["check", "congruence", "a|b", "b|a"],
    ]

    def fresh(argv):
        _build_parser.cache_clear()
        return run(argv)

    expected = [fresh(argv) for argv in invocations]
    assert expected[0] != expected[1] and expected[3] != expected[4]
    assert expected[2][0] == 2
    _build_parser.cache_clear()
    assert [run(argv) for argv in invocations] == expected
    assert _build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "cap, argv", [("abc", ["parse", "a"]), ("-3", ["encode", "0"])]
)
def test_bad_event_cap_exit_2(cap, argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(rccs.__file__)))
    env = dict(os.environ, RCCS_EVENT_CAP=cap, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "rccs.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert not done.stdout
    assert done.stderr.strip().splitlines() == [
        f"RCCS_EVENT_CAP must be a non-negative integer, got {cap!r}"
    ]
