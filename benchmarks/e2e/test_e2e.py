"""Self-test of the end-to-end ledger (``python -m pytest benchmarks/e2e -q``).

Everything here runs at the ``--quick`` size, which is never recorded.
"""

import copy
import json
import os
import re

import pytest

from benchmarks.e2e import ROOT
from benchmarks.e2e.__main__ import main
from benchmarks.e2e.compare import compare_documents, verdict
from benchmarks.e2e.measure import END_TO_END, clean_units
from benchmarks.e2e.tracing import LAYERS, PER_LAYER, Ledger, Wrappers
from benchmarks.e2e.workloads import SPECS, make_wave, stop_children, wave_bytes


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- span self-time arithmetic ----------------------------------------------


def _scripted_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_is_duration_minus_child_spans():
    #  outer 0..10 { inner 2..5 { leaf 3..4 }  inner 6..9 }
    ledger = Ledger(clock=_scripted_clock([0, 2, 3, 4, 5, 6, 9, 10]))
    leaf = ledger.wrap("leaf", lambda: None)
    depth = []

    def inner_body():
        if not depth:
            depth.append(1)
            leaf()

    inner = ledger.wrap("inner", inner_body)
    outer = ledger.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert dict(ledger.self_s) == {"leaf": 1, "inner": (3 - 1) + 3, "outer": 10 - 3 - 3}
    assert dict(ledger.calls) == {"leaf": 1, "inner": 2, "outer": 1}
    # Self times partition the root span: nothing counted twice or lost.
    assert sum(ledger.self_s.values()) == 10


def test_span_closes_when_the_call_raises():
    ledger = Ledger(clock=_scripted_clock([0, 1, 4, 6]))

    def boom():
        raise ValueError("x")

    child = ledger.wrap("child", boom)

    def parent_body():
        with pytest.raises(ValueError):
            child()

    ledger.wrap("parent", parent_body)()
    assert dict(ledger.self_s) == {"child": 3, "parent": 3}


# -- wrappers install and restore ---------------------------------------------


def test_wrappers_restore_the_original_attributes():
    wrappers = Wrappers(Ledger())
    assert wrappers.missing == []
    owners = [(owner, method) for owner, method, _ in wrappers._plan]
    assert len(owners) == sum(
        len(methods) for targets in LAYERS.values() for _, _, methods in targets
    )
    before = [vars(owner).get(method) for owner, method in owners]
    with wrappers:
        assert wrappers.installed
        for (owner, method), original in zip(owners, before):
            assert vars(owner)[method] is not original
    assert not wrappers.installed
    after = [vars(owner).get(method) for owner, method in owners]
    assert all(a is b for a, b in zip(after, before))


# -- the generator is a pure function of the seed -------------------------------


@pytest.mark.parametrize("name", sorted(SPECS))
def test_waves_are_byte_deterministic_per_seed(name):
    spec = SPECS[name]
    first = wave_bytes(make_wave(spec, 5, 3, quick=True))
    assert first == wave_bytes(make_wave(spec, 5, 3, quick=True))
    assert first != wave_bytes(make_wave(spec, 6, 3, quick=True))
    assert first != wave_bytes(make_wave(spec, 5, 4, quick=True))
    assert len(make_wave(spec, 5, 3, quick=True)) == spec.quick_wave_requests
    assert len(make_wave(spec, 5, 3)) == spec.wave_requests


# -- the noise guard --------------------------------------------------------------


def test_a_unit_is_clean_only_between_two_fast_probes():
    probes = [30.0, 31.0, 45.0, 30.0, 32.9, 33.1]
    brackets = [(k, k + 1) for k in range(len(probes) - 1)]
    assert clean_units(probes, brackets) == [True, False, False, True, False]
    # One fluke fast probe must not mark a quiet run disturbed.
    quiet = [25.0] + [30.0] * 10
    assert all(clean_units(quiet, [(k, k + 1) for k in range(10)]))


# -- BENCHMARK.json and the emitted documents agree -------------------------------


def test_declaration_is_within_the_contract(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in declared["workloads"]] == list(SPECS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])


@pytest.fixture(scope="module")
def quick_documents(tmp_path_factory):
    """One quick untraced and one quick traced run of all four workloads."""
    folder = tmp_path_factory.mktemp("e2e")
    documents = {}
    for traced in (False, True):
        path = folder / f"traced{int(traced)}.json"
        argv = ["--quick", "--seed", "3", "--out", str(path)]
        assert main(argv + (["--traced"] if traced else [])) == 0
        with open(path) as handle:
            documents[traced] = json.load(handle)
    documents["folder"] = folder
    return documents


def test_documents_carry_exactly_the_declared_names(declared, quick_documents):
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        document = quick_documents[traced]
        assert document["quick"] and document["traced"] == traced
        assert sorted(document["workloads"]) == sorted(
            w["name"] for w in declared["workloads"]
        )
        want = {m["name"]: m["unit"] for m in declared[key]}
        for record in document["workloads"].values():
            assert record["correct"] and record["failed"] == 0
            assert record["attempted"] >= 1
            got = {n: m["unit"] for n, m in record["metrics"].items()}
            assert got == want


def test_traced_run_replays_the_untraced_simulation(quick_documents):
    for name in SPECS:
        untraced = quick_documents[False]["workloads"][name]
        traced = quick_documents[True]["workloads"][name]
        assert untraced["sim_digest"] == traced["sim_digest"], name
        assert traced["unavailable"] == {} and traced["missing_wrappers"] == []


# -- nothing outlives a run --------------------------------------------------------


def test_stop_children_reaps_the_resource_tracker():
    # One shared-memory segment starts multiprocessing's tracker process,
    # which otherwise ends only after its parent has.
    from multiprocessing import resource_tracker, shared_memory

    try:
        segment = shared_memory.SharedMemory(create=True, size=64)
    except OSError:
        pytest.skip("no /dev/shm here")
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    stop_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already waited for
        os.waitpid(pid, os.WNOHANG)


# -- --compare ---------------------------------------------------------------------


def test_verdict_respects_direction_and_bound():
    assert verdict(100, 115, "higher", 0.10) == "better"
    assert verdict(100, 95, "higher", 0.10) == "within"
    assert verdict(100, 85, "higher", 0.10) == "worse"
    assert verdict(100, 115, "lower", 0.10) == "worse"
    assert verdict(100, 85, "lower", 0.10) == "better"
    assert verdict(0, 1, "lower", 0.10) == "unresolved"


def test_compare_flags_worse_and_unresolved(quick_documents, capsys):
    base = quick_documents[False]
    folder = quick_documents["folder"]

    def write(name, document):
        path = folder / name
        path.write_text(json.dumps(document))
        return str(path)

    same = write("same.json", base)
    assert compare_documents(same, same) == 0
    assert " worse " not in capsys.readouterr().out

    slower = copy.deepcopy(base)
    slower["workloads"]["gemv_serve"]["metrics"]["wall_rps"]["value"] *= 0.5
    assert compare_documents(same, write("slower.json", slower)) == 1
    assert re.search(r"worse\s+wall_rps", capsys.readouterr().out)

    noisy = copy.deepcopy(slower)
    noisy["workloads"]["gemv_serve"]["disturbed"] = True
    assert compare_documents(same, write("noisy.json", noisy)) == 0
    assert re.search(r"unresolved\s+wall_rps", capsys.readouterr().out)

    moved = copy.deepcopy(base)
    moved["workloads"]["lstm_blas"]["metrics"]["sim_rps"]["value"] *= 1.001
    assert compare_documents(same, write("moved.json", moved)) == 1
    assert re.search(r"worse\s+sim_rps", capsys.readouterr().out)
