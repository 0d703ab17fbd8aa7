"""Tests of the benchmark's verdict checks, workloads and tracer.

    python3 -m pytest perfbench/tests -q

The muddy closed forms are compared with the naive reference evaluator of
``tests/test_reference_oracle.py``; the benchmark's own evaluator is
cross-checked against it on a fuzz corpus.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import run  # noqa: E402
import test_reference_oracle as oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from glal import cli  # noqa: E402
from glal.fuzz import duplicate_worlds, random_formula, random_model  # noqa: E402
from glal.model import save  # noqa: E402
from glal.scenarios import bit_channel, muddy  # noqa: E402
from glal.syntax import parse  # noqa: E402


def muddy_formula(model, sign, rounds):
    """The benchmark's muddy query with its aliases expanded."""
    agents = model.agents
    alpha = " | ".join(f"m_{a}" for a in agents)
    ign = " & ".join(f"!Kw{{{a}}} m_{a}" for a in agents)
    resolved = " & ".join(f"(m_{a} -> Kw{{{a}}} m_{a})" for a in agents)
    text = f"[{alpha}]{sign}{{*}} " + f"[{ign}]{sign}{{*}} " * rounds + f"({resolved})"
    return parse(text)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("rounds", [0, 1, 2])
@pytest.mark.parametrize("sign, expected", [
    ("+", checks.muddy_global_expected),
    ("-", checks.muddy_local_expected),
])
def test_muddy_closed_forms_match_reference(n, rounds, sign, expected):
    model = muddy(n)
    holds = oracle.ref_sat(oracle.to_plain(model), muddy_formula(model, sign, rounds))
    for w in model.worlds:
        assert (w in holds) == expected(w, rounds), (w, sign, rounds)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("command, template, worlds, extra", workloads.BOUNDED)
def test_bounded_queries_exhaust_a_smaller_bound(command, template, worlds, extra):
    text = template.replace("A1", "a").replace("A2", "b").replace("P1", "p").replace("P2", "q")
    extra = tuple(x.replace("A1", "a").replace("A2", "b") for x in extra)
    rc, out = run_cli((command, text, "--max-worlds", "2") + extra)
    assert checks.check_bounded(command, rc, out)


def test_bounded_check_rejects_the_other_status():
    assert not checks.check_bounded("valid", 1, json.dumps(
        {"status": "counterexample", "models_examined": 5}))
    assert not checks.check_bounded("sat", 0, json.dumps(
        {"status": "sat", "models_examined": 5}))
    assert not checks.check_bounded("valid", 0, json.dumps(
        {"status": "valid-up-to-bound", "models_examined": 0}))


def test_example2_channel_pair(tmp_path):
    n_path = tmp_path / "N.json"
    nprime_path = tmp_path / "Nprime.json"
    n_path.write_text(save(bit_channel("N")))
    nprime_path.write_text(save(bit_channel("Nprime")))
    left, right = (str(n_path), "w1"), (str(nprime_path), "w1")
    for kind in ("m", "pm", "coll"):
        rc, out = run_cli(("bisim", "--kind", kind, "--left", f"{n_path}:w1",
                           "--right", f"{nprime_path}:w1", "--distinguish", "3"))
        assert checks.check_bisim(kind, kind != "pm", rc, out, left=left, right=right)
        assert not checks.check_bisim(kind, kind == "pm", rc, out, left=left, right=right)


def test_distinguishing_check_uses_the_formula(tmp_path):
    n_path = tmp_path / "N.json"
    nprime_path = tmp_path / "Nprime.json"
    n_path.write_text(save(bit_channel("N")))
    nprime_path.write_text(save(bit_channel("Nprime")))
    left, right = (str(n_path), "w1"), (str(nprime_path), "w1")
    assert checks.distinguishes("[bit0]-{e,r} C{e,r} bit0", left, right)
    assert not checks.distinguishes("bit0", left, right)
    assert not checks.distinguishes("!([bit0]-{e,r} C{e,r} bit0)", left, right)


def test_twin_pairs_are_related(tmp_path):
    rng = random.Random(3)
    model = muddy(3)
    twins, twin_of = duplicate_worlds(rng, model, copies=2)
    left, right = tmp_path / "m.json", tmp_path / "t.json"
    left.write_text(save(model))
    right.write_text(save(twins))
    for w, w2 in list(twin_of.items()) + [(w, w) for w in model.worlds]:
        for kind in ("m", "pm", "coll"):
            rc, out = run_cli(("bisim", "--kind", kind, "--left", f"{left}:{w}",
                               "--right", f"{right}:{w2}"))
            assert checks.check_bisim(kind, True, rc, out, left=(str(left), w),
                                      right=(str(right), w2))


def test_own_evaluator_matches_reference(tmp_path):
    rng = random.Random(77)
    path = tmp_path / "m.json"
    for trial in range(150):
        agents = ["a", "b", "c"][: rng.randint(1, 3)]
        model = random_model(rng, rng.randint(1, 5), agents, ["p", "q"])
        formula = random_formula(rng, 4, ["p", "q"], agents)
        if "PalAnn" in repr(formula):
            continue
        path.write_text(save(model))
        expected = oracle.ref_sat(oracle.to_plain(model), formula)
        assert checks.sat(checks.load_plain(str(path)), formula) == expected, trial


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_every_workload_checks_out(name, tmp_path):
    queries = workloads.build(name, 5, str(tmp_path))
    again = workloads.build(name, 5, str(tmp_path))
    assert [q.argv for q in queries] == [q.argv for q in again]
    for query in queries:
        elapsed, ok = run.run_query(cli, query)
        assert ok and elapsed > 0, query.argv


def test_flipped_verdict_counts_as_failed(tmp_path):
    query = workloads.build("muddy_global", 1, str(tmp_path))[0]
    flipped = workloads.Query(query.argv, lambda rc, out: not query.check(rc, out))
    assert run.run_query(cli, query)[1]
    assert not run.run_query(cli, flipped)[1]


def test_crash_counts_as_failed(tmp_path, monkeypatch):
    query = workloads.build("muddy_global", 1, str(tmp_path))[0]

    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", boom)
    assert not run.run_query(cli, query)[1]


def test_verdict_check_needs_exit_code_and_json():
    assert checks.check_verdict(True, 0, '{"result":true}\n')
    assert not checks.check_verdict(True, 1, '{"result":true}\n')
    assert not checks.check_verdict(False, 1, '{"result":true}\n')
    assert not checks.check_verdict(True, 0, "")


def test_tail_is_nearest_rank_with_ten_beyond():
    pct = workloads.WORKLOADS["bisim"].tail_pct
    n = workloads.WORKLOADS["bisim"].min_queries
    values = list(range(n))
    cut = run.tail(values, pct)
    assert sum(v > cut for v in values) == 10
    assert run.tail([3.0, 1.0, 2.0], 50) == 2.0


def test_tracer_counts_repeat_and_patches_come_off(tmp_path):
    queries = workloads.build("muddy_local", 2, str(tmp_path))
    original = cli.main
    tracer = tracing.Tracer()
    per_pass = []
    for _ in range(2):
        tracer.install()
        try:
            for query in queries:
                assert run.run_query(cli, query, tracer)[1]
        finally:
            tracer.uninstall()
        per_pass.append(tracer.per_query[-len(queries):])
    assert cli.main is original
    counts = [[{m: q[m] for m in tracing.COUNT_METRICS} for q in p] for p in per_pass]
    assert counts[0] == counts[1]
    metrics = tracer.metrics(1.0)
    assert metrics["semantics.refined_new"]["value"] > 0
    assert 0 < metrics["semantics.refined_hit_ratio"]["value"] < 1
    assert metrics["sat.self_ms"]["value"] == 0.0
    header = tmp_path / "t.spans"
    tracer.write(str(header), {"workload": "muddy_local"})
    assert json.loads(header.read_bytes().split(b"\n", 1)[0])["spans"] == len(tracer.start)
