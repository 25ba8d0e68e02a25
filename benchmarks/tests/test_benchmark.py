"""Tests of the benchmark's own logic.

    python3 -m pytest benchmarks/tests -q
"""

import json
from array import array
from pathlib import Path

import numpy as np
import pytest

import run
from metrics import END_TO_END, completed_work, tail, work_rate
from spans import PER_LAYER, Tracer, self_times
from workloads import CONSTRUCT_SHAPES, Command, Outcome, family_normals, write_family

SMALL = (12, 2, 8)


def _family_bytes(tmp_path: Path, seed: int, shape, name: str) -> bytes:
    path = tmp_path / name
    write_family(path, family_normals(seed, 0, shape))
    return path.read_bytes()


def test_same_seed_gives_identical_family_bytes(tmp_path):
    assert _family_bytes(tmp_path, 7, SMALL, "a.json") == \
        _family_bytes(tmp_path, 7, SMALL, "b.json")


def test_other_seed_gives_other_bytes_same_shape(tmp_path):
    from transversal import familyio
    a = _family_bytes(tmp_path, 7, SMALL, "a.json")
    b = _family_bytes(tmp_path, 8, SMALL, "b.json")
    assert a != b
    for name in ("a.json", "b.json"):
        family, _ = familyio.load_family(tmp_path / name)
        assert (family.ambient_dim, family.codim, len(family)) == SMALL


def test_family_blocks_are_orthonormal():
    normals = family_normals(3, 1, (40, 3, 25))
    gram = normals @ normals.transpose(0, 2, 1)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-14


def test_self_time_on_hand_built_tree():
    # root [0, 10] with children [1, 3] and [2, 4] (overlapping, union 3)
    # and [5, 6], which has a child [5.2, 5.5]
    start = array("d", [0.0, 1.0, 2.0, 5.0, 5.2])
    end = array("d", [10.0, 3.0, 4.0, 6.0, 5.5])
    parent = array("l", [-1, 0, 0, 0, 3])
    assert self_times(start, end, parent) == pytest.approx([6.0, 2.0, 2.0, 0.7, 0.3])


def test_tail_rule_on_known_list():
    assert tail(range(1, 101)) == (90, 90.0)      # ten samples above 90
    assert tail(range(1, 12)) == (1, 100.0 / 11)
    assert tail(range(1, 11)) is None             # no percentile leaves ten above
    assert tail([5.0] * 3 + list(range(100, 110)))[0] == 5.0


def test_work_rate_uses_best_latency_per_command():
    def rec(label, work, seconds, ok=True):
        return Command("mc", label, (), None, work), Outcome(0, "", "", seconds), ok
    records = [rec("a", 100, 1.0), rec("b", 50, 2.0),
               rec("a", 100, 9.0), rec("b", 50, 2.0),      # a burst hits "a" once
               rec("a", 100, 1.0), rec("b", 50, 2.0, ok=False)]
    assert work_rate(records) == pytest.approx(100 / 3.0)   # "b" failed once


def test_completed_work_counts_passing_pairs_only():
    def rec(kind, work, seconds, ok):
        return Command(kind, kind, (), None, work), Outcome(0, "", "", seconds), ok
    records = [rec("construct", 0, 1.0, True), rec("certify", 10, 0.5, True),
               rec("construct", 0, 2.0, False), rec("certify", 20, 0.5, True),
               rec("mc", 1000, 4.0, True), rec("mc", 1000, 4.0, False)]
    assert completed_work(records) == (1010.0, 5.5)


def _run_small(modules, tmp_path: Path, tracer=None) -> dict:
    normals = family_normals(1, 0, SMALL)
    family = tmp_path / "family.json"
    write_family(family, normals)
    comp = tmp_path / "complement.json"
    commands = [
        Command("construct", "construct", ("construct", "--family", str(family),
                                           "--seed", "3", "--out", str(comp)),
                SMALL, 0, comp),
        Command("certify", "certify", ("certify", "--family", str(family),
                                       "--complement", str(comp)), SMALL, SMALL[2]),
        Command("mc", "translation", ("mc", "translation", "--family", str(family),
                                      "--seed", "3", "--samples", "1000"),
                SMALL, 1000),
    ]
    outputs = {}
    if tracer is not None:
        tracer.install(modules)
    try:
        for i, cmd in enumerate(commands):
            if tracer is not None:
                tracer.command(i, cmd.shape)
            outcome, data = run.run_command(modules, cmd)
            assert outcome.rc == 0, outcome.stderr
            outputs[cmd.label] = data
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outputs


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    modules = run.import_program()
    plain = _run_small(modules, tmp_path)
    tracer = Tracer()
    traced = _run_small(modules, tmp_path, tracer)
    assert traced == plain
    assert plain["certify"].endswith(b"verdict,true\n")
    assert json.loads(plain["translation"])["verdict"] is True

    names = [tracer.names[i] for i in tracer.name_of]
    # one span per recursion level of common_complement (k = 2) in construct
    levels = [n for n, c in zip(names, tracer.command_of)
              if n == "separator.common_complement" and c == 0]
    assert len(levels) == 2
    assert names.count("cli.main") == 3
    # a certify called through the cli binding nests under cmd_certify
    certify_parents = {names[tracer.parent[i]] for i, n in enumerate(names)
                       if n == "separator.certify"}
    assert "cli.cmd_certify" in certify_parents
    metrics = tracer.metrics(1, 0.0)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["separator.draws_attempted"] >= metrics["separator.draws_accepted"] > 0
    assert metrics["prevalence.samples"] == 1000
    # uninstall restores the original bindings
    assert modules["cli"].certify is modules["separator"].certify
    assert modules["separator"].certify.__module__ == "transversal.separator"
    assert not hasattr(modules["separator"].certify, "__wrapped__")


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
    assert len(CONSTRUCT_SHAPES) == 6

    table = json.loads((run.ROOT / "benchmarks" / "predictions.json").read_text())
    predicted = [m for row in table["predictions"] for m in row["per_layer"]]
    assert sorted(predicted) == sorted(name for name, _, _ in PER_LAYER)
    gated = {name for name, _, _ in END_TO_END}
    assert set(table["end_to_end"]) == gated
    for row in table["predictions"]:
        assert set(row["moves"]) <= gated
        assert set(row["on"]) <= set(run.WORKLOADS)
