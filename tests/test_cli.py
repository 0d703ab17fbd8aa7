import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from glal import cli
from glal.model import KripkeModel, save
from glal.scenarios import bit_channel, muddy
from glal.syntax import MAX_DEPTH


@pytest.fixture
def muddy3(tmp_path):
    path = tmp_path / "muddy3.json"
    path.write_text(save(muddy(3)))
    return str(path)


@pytest.fixture
def channels(tmp_path):
    n = tmp_path / "N.json"
    n.write_text(save(bit_channel("N")))
    np = tmp_path / "Nprime.json"
    np.write_text(save(bit_channel("Nprime")))
    return str(n), str(np)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_true_false_exit_codes(capsys, muddy3):
    code, out, _ = run(capsys, "check", f"{muddy3}:100",
                       "[m_r | m_g | m_b]-{r,g,b} K{r} m_r")
    assert code == 0
    assert json.loads(out) == {"result": True}
    code, out, _ = run(capsys, "check", f"{muddy3}:100",
                       "[m_r | m_g | m_b]-{r,g,b} C{r,g,b} (m_r | m_g | m_b)")
    assert code == 1
    assert json.loads(out) == {"result": False}


def test_check_bad_world_is_model_error(capsys, muddy3):
    code, _, err = run(capsys, "check", f"{muddy3}:missing", "m_r")
    assert code == 66
    assert "missing" in err


def test_check_unknown_agent_under_a_vacuous_announcement(capsys, muddy3):
    # m_r is false at 000, so these announcements never reach their bodies
    # there, yet K{zz} names an agent the model lacks: an error at both points.
    for formula in ("[m_r]+{r} K{zz} m_r", "[m_r] K{zz} m_r", "<m_r>-{r} K{zz} m_r"):
        for point in ("000", "100"):
            for command in ("check", "tree"):
                code, out, err = run(capsys, command, f"{muddy3}:{point}", formula)
                assert (code, out) == (66, ""), (command, point, formula)
                assert "unknown agent 'zz'" in err
    # So is an announcement that names one where it holds nowhere.
    for kind in ("local", "pal"):
        code, out, err = run(capsys, "refine", "--kind", kind, "--coalition", "r", "--announce",
                             "[m_r & !m_r]+{r} K{zz} m_r", f"{muddy3}:000")
        assert (code, out) == (66, "") and "unknown agent 'zz'" in err


def test_check_formula_error(capsys, muddy3):
    code, _, err = run(capsys, "check", f"{muddy3}:100", "K{r")
    assert code == 65
    assert "1:4" in err


def test_check_defs_alias(capsys, muddy3, tmp_path):
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps({"alpha": "m_r | m_g | m_b"}))
    code, out, _ = run(capsys, "check", f"{muddy3}:100",
                       "[alpha]-{r,g,b} E{r,g,b} alpha", "--defs", str(defs))
    assert code == 0 and json.loads(out)["result"] is True


def test_recursive_defs_rejected(capsys, muddy3, tmp_path):
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps({"a": "b | m_r", "b": "m_g"}))
    code, _, err = run(capsys, "check", f"{muddy3}:100", "a", "--defs", str(defs))
    assert code == 66
    assert "one pass" in err


def test_alias_check_reads_atoms_not_text(capsys, muddy3, tmp_path):
    # An agent spelled like an alias is no mention of it; a body that mentions
    # two aliases names the alphabetically first.
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps({"a": "K{b} c", "b": "c"}))
    code, out, _ = run(capsys, "check", f"{muddy3}:100", "true", "--defs", str(defs))
    assert code == 0 and json.loads(out) == {"result": True}
    defs.write_text(json.dumps({"a": "bb & b", "b": "p", "bb": "q"}))
    code, out, err = run(capsys, "check", f"{muddy3}:100", "true", "--defs", str(defs))
    assert code == 66 and out == ""
    assert "alias 'a' mentions alias 'b'; aliases must expand in one pass" in err


def test_defs_names_must_be_identifiers(capsys, muddy3, tmp_path):
    # An alias named "true" would never replace the constant, and "a b" never
    # lexes as one identifier: both are rejected rather than ignored.
    defs = tmp_path / "defs.json"
    for name in ["true", "false", "a b", "", "m_r{", "é"]:
        defs.write_text(json.dumps({"alpha": "m_r", name: "m_r & !m_r"}))
        code, out, err = run(capsys, "check", f"{muddy3}:100", "true", "--defs", str(defs))
        assert code == 66 and out == ""
        assert f"alias name {name!r} is not an identifier" in err


def test_defs_replace_atoms_not_agent_names(capsys, muddy3, tmp_path):
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps({"r": "m_r"}))
    code, out, _ = run(capsys, "check", f"{muddy3}:100", "K{r} m_r", "--defs", str(defs))
    assert code == 1 and json.loads(out) == {"result": False}
    code, out, _ = run(capsys, "check", f"{muddy3}:100", "r & K{g} r", "--defs", str(defs))
    assert code == 0 and json.loads(out) == {"result": True}


def test_defs_count_against_nesting_limit(capsys, muddy3, tmp_path):
    defs = tmp_path / "defs.json"
    defs.write_text(json.dumps({"deep": "!" * (MAX_DEPTH - 1) + "m_r"}))
    code, out, _ = run(capsys, "check", f"{muddy3}:100", "deep", "--defs", str(defs))
    assert code in (0, 1) and "result" in json.loads(out)
    for text in ["!deep", "(deep)", "m_g & deep"]:
        code, _, err = run(capsys, "check", f"{muddy3}:100", text, "--defs", str(defs))
        assert code == 65
        assert f"deeper than {MAX_DEPTH}" in err


def test_ill_typed_model_is_model_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"worlds": "ab", "agents": [], "valuation": {"p": "a"}}))
    code, out, err = run(capsys, "check", f"{bad}:a", "p")
    assert code == 66
    assert out == ""
    assert "list of strings" in err


def test_nesting_limit(capsys, muddy3):
    at_limit = ["!" * (MAX_DEPTH - 1) + "m_r", " & ".join(["m_r"] * MAX_DEPTH)]
    for text in at_limit:
        code, out, _ = run(capsys, "check", f"{muddy3}:100", text)
        assert code in (0, 1) and "result" in json.loads(out)
    for text in ["!" + at_limit[0], at_limit[1] + " & m_r", "!" * 3000 + "m_r"]:
        code, out, err = run(capsys, "check", f"{muddy3}:100", text)
        assert code == 65
        assert f"deeper than {MAX_DEPTH}" in err


def test_usage_error_is_64(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64


def test_sat_zero_worlds_is_usage_error(capsys):
    code, _, err = run(capsys, "sat", "p", "--max-worlds", "0")
    assert code == 64 and "--max-worlds" in err


def test_valid_zero_worlds_is_usage_error(capsys):
    code, _, err = run(capsys, "valid", "p", "--max-worlds", "0")
    assert code == 64 and "--max-worlds" in err


def test_sat_duplicate_vocabulary_is_model_error(capsys):
    for flag, value, what in [("--atoms", "p,p", "atom"), ("--agents", "a,a", "agent")]:
        code, out, err = run(capsys, "sat", "p & !p", flag, value, "--max-worlds", "2")
        assert code == 66 and out == ""
        assert f"duplicate {what} names" in err


def test_sat_agent_pool_must_cover_the_formula(capsys):
    # The second formula names zz only under a vacuous announcement, which the
    # evaluation of no candidate reaches.
    for formula in ("p | K{zz} q", "[p & !p]+{zz} K{zz} q"):
        code, out, err = run(capsys, "sat", formula, "--agents", "a")
        assert code == 66 and out == ""
        assert "unknown agent 'zz'" in err


def test_sat_atom_pool_must_cover_the_formula(capsys):
    # q outside the pool would be false in every candidate: a wrong verdict.
    code, out, err = run(capsys, "sat", "p & q", "--atoms", "p", "--max-worlds", "2")
    assert code == 66 and out == ""
    assert "atom 'q' of the formula is not in the atom pool" in err
    code, out, _ = run(capsys, "sat", "p & q", "--atoms", "q,p,r", "--max-worlds", "2")
    assert code == 0 and '"status":"sat"' in out


def test_sat_vocabulary_names_must_be_identifiers(capsys):
    # "a," splits into "a" and "": no formula can mention an empty agent.
    for argv, what in [(("K{a} p", "--agents", "a,"), "agent name ''"),
                       (("p", "--atoms", ","), "atom name ''"),
                       (("p", "--atoms", "p,q-r"), "atom name 'q-r'"),
                       (("p", "--atoms", "p,true"), "atom name 'true'"),
                       (("p", "--agents", "false"), "agent name 'false'")]:
        code, out, err = run(capsys, "sat", *argv)
        assert code == 66 and out == ""
        assert f"{what} is not an identifier" in err


def test_world_cap_message_names_no_library_option(capsys):
    code, out, err = run(capsys, "valid", "p", "--max-worlds", "9")
    assert code == 2 and out == ""
    assert "cap of 6" in err
    assert "allow_large" not in err


def test_scenario_zero_children_is_usage_error(capsys):
    code, out, err = run(capsys, "scenario", "muddy", "--n", "0")
    assert code == 64 and out == "" and "--n" in err


def test_suite_empty_corpus_or_filter_is_usage_error(capsys):
    # Each would otherwise check nothing and still exit 0.
    for argv, message in ((("--models", "0"), "--models"), (("--models", "-1"), "--models"),
                          (("--filter", "nosuch"), "'nosuch' matches no check")):
        code, out, err = run(capsys, "suite", *argv)
        assert code == 64 and out == "" and message in err


def test_bisim_negative_depth_is_usage_error(capsys, channels):
    n, np = channels
    code, out, err = run(capsys, "bisim", "--kind", "m", "--left", f"{n}:w1",
                         "--right", f"{np}:w1", "--distinguish", "-1")
    assert code == 64 and out == "" and "--distinguish" in err


def test_bisim_subcommand(capsys, channels):
    n, np = channels
    code, out, _ = run(capsys, "bisim", "--kind", "pm",
                       "--left", f"{n}:w1", "--right", f"{np}:w1")
    assert code == 1
    payload = json.loads(out)
    assert payload["related"] is False
    assert payload["fail_reason"]["condition"] in ("Forth", "Back", "Reach")

    code, out, _ = run(capsys, "bisim", "--kind", "m",
                       "--left", f"{n}:w1", "--right", f"{np}:w1", "--total")
    assert code == 0
    assert ["w1", "w1"] in json.loads(out)["witness"]


def test_bisim_fail_detail_does_not_depend_on_hash_seed(tmp_path):
    # Every agent links v and w on the left, and v has no match on the right,
    # so each agent is a missing modal move; the least one is reported.
    agents = ["a", "b", "c", "d"]
    left = KripkeModel.from_partitions(["v", "w"], agents,
                                       {a: [["v", "w"]] for a in agents}, {"p": ["w"]})
    right = KripkeModel.from_partitions(["w"], agents, {}, {"p": ["w"]})
    (tmp_path / "L.json").write_text(save(left))
    (tmp_path / "R.json").write_text(save(right))
    src = str(Path(cli.__file__).resolve().parents[1])
    for seed in ("0", "1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "glal.cli", "bisim", "--kind", "m",
             "--left", "L.json:w", "--right", "R.json:w"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        reason = json.loads(proc.stdout)["fail_reason"]
        assert reason == {"condition": "Forth", "detail": ["v", "a"], "pair": ["w", "w"]}


def test_bisim_distinguish_flag(capsys, channels):
    n, np = channels
    code, out, _ = run(capsys, "bisim", "--kind", "pm",
                       "--left", f"{n}:w1", "--right", f"{np}:w1",
                       "--distinguish", "5")
    assert code == 1
    assert json.loads(out)["distinguishing_formula"]


def test_sat_exit_codes(capsys):
    code, out, _ = run(capsys, "sat", "p & !K{a} p", "--max-worlds", "3")
    assert code == 0
    assert json.loads(out)["status"] == "sat"
    code, out, _ = run(capsys, "sat", "p & !p", "--max-worlds", "2")
    assert code == 1
    code, _, err = run(capsys, "sat", "K{a} K{b} K{c} (p | q)",
                       "--max-worlds", "6")
    assert code == 2
    assert "bound" in err.lower()


def test_valid_exit_codes(capsys):
    code, out, _ = run(capsys, "valid", "[p]-{a,b} q <-> (p -> q)",
                       "--max-worlds", "3")
    assert code == 0
    code, out, _ = run(capsys, "valid", "[p]{a} q -> q", "--max-worlds", "2")
    assert code == 1
    assert json.loads(out)["counterexample"]


def test_scenario_round_trip(capsys, tmp_path):
    out_path = tmp_path / "m.json"
    code, _, _ = run(capsys, "scenario", "muddy", "--n", "2", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["worlds"] == ["00", "01", "10", "11"]
    code, out, _ = run(capsys, "scenario", "channel", "--variant", "Nprime")
    assert code == 0
    assert json.loads(out)["agents"] == ["e", "r", "s"]


def test_refine_writes_model(capsys, muddy3):
    code, out, _ = run(capsys, "refine", f"{muddy3}:100",
                       "--announce", "m_r | m_g | m_b",
                       "--kind", "local", "--coalition", "r,g,b")
    assert code == 0
    payload = json.loads(out)
    assert ["000"] in payload["relations"]["r"]["partition"]
    assert payload["worlds"] == json.loads(save(muddy(3)))["worlds"]


def test_refine_pal_kind(capsys, muddy3):
    code, out, _ = run(capsys, "refine", f"{muddy3}:100",
                       "--announce", "m_r | m_g | m_b", "--kind", "pal")
    assert code == 0
    assert "000" not in json.loads(out)["worlds"]


def test_tree_structure(capsys, muddy3):
    code, out, _ = run(capsys, "tree", f"{muddy3}:100",
                       "[m_r | m_g | m_b]-{r,g,b} K{r} m_r")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] is True
    assert payload["root"]["point"] == "100"
    assert payload["steps"][0]["key"]["kind"] == "local"
    assert payload["steps"][0]["key"]["scope"]


def test_output_is_deterministic(capsys, muddy3):
    _, out1, _ = run(capsys, "check", f"{muddy3}:100", "K{r} m_r")
    _, out2, _ = run(capsys, "check", f"{muddy3}:100", "K{r} m_r")
    assert out1 == out2


def test_suite_filter_runs_subset(capsys):
    code, out, err = run(capsys, "suite", "--filter", "example1", "--models", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert all(c["group"] == "example1" for c in payload["checks"])
    assert payload["checks"]
    # timings go to stderr, never into the payload
    assert "seconds" not in out and "s\n" in err


def test_suite_detects_injected_fault(capsys, monkeypatch):
    import glal.suite as suite_mod

    real = suite_mod.bit_channel

    def corrupted(variant):
        model = real("N" if variant == "Nprime" else variant)
        return model

    monkeypatch.setattr(suite_mod, "bit_channel", corrupted)
    code, out, _ = run(capsys, "suite", "--filter", "example2", "--models", "5")
    assert code == 1
    payload = json.loads(out)
    failed = [c["name"] for c in payload["checks"] if not c["ok"]]
    assert "example2.copies-hide-receiver-learning" in failed
    assert any(c["ok"] for c in payload["checks"])  # only matching checks fail


def test_suite_pretty_output(capsys):
    code, out, _ = run(capsys, "suite", "--filter", "example2", "--models", "5",
                       "--pretty")
    assert code == 0
    assert out.startswith("PASS")


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


# Runs each argv of a JSON list through one process's ``cli.main`` and prints
# [exit code, stdout, stderr] for each.
_ONE_PROCESS = """
import contextlib, io, json, sys
from glal import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_reused_parser_answers_like_a_fresh_one(muddy3):
    calls = [
        ["check", f"{muddy3}:100", "K{r} m_r", "--bogus"],
        ["check", f"{muddy3}:100", "[m_r | m_g | m_b]-{r,g,b} K{r} m_r"],
        ["--version"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _ONE_PROCESS, json.dumps(calls)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    shared = json.loads(proc.stdout)
    fresh = []
    for argv in calls:
        one = subprocess.run([sys.executable, "-m", "glal.cli", *argv],
                             env=env, capture_output=True, text=True, timeout=60)
        fresh.append([one.returncode, one.stdout, one.stderr])
    assert [code for code, _, _ in fresh] == [64, 0, 0]
    assert shared == fresh


DEFERRED = ("glal.bisim", "glal.fuzz", "glal.sat", "glal.scenarios", "glal.suite")
ENGINE_NAMES = ("sat_bounded", "valid_bounded", "pointed_bisim", "distinguishing_formula_search")


def test_importing_the_cli_loads_no_subcommand_engine():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, glal.cli; print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {"glal.cli", "glal.semantics"} <= loaded
    assert not loaded & set(DEFERRED)


def test_subcommands_call_their_engines_through_module_names(capsys, monkeypatch, channels):
    # A caller may wrap these names on the module (the benchmark's tracer
    # does), so _run must look them up at call time.
    assert all(callable(cli.__dict__[name]) for name in ENGINE_NAMES)
    called = []
    for name in ENGINE_NAMES:
        def wrapper(*args, _name=name, _engine=cli.__dict__[name], **kwargs):
            called.append(_name)
            return _engine(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)
    n, np = channels
    assert run(capsys, "sat", "p & !p", "--max-worlds", "2")[0] == 1
    assert run(capsys, "valid", "p | !p", "--max-worlds", "2")[0] == 0
    assert run(capsys, "bisim", "--kind", "pm", "--left", f"{n}:w1", "--right",
               f"{np}:w1", "--distinguish", "3")[0] == 1
    assert called == list(ENGINE_NAMES)


def test_deferred_subcommands_answer_alike_in_a_fresh_process(capsys, channels):
    n, np = channels
    calls = [
        ["bisim", "--kind", "pm", "--left", f"{n}:w1", "--right", f"{np}:w1",
         "--distinguish", "4"],
        ["sat", "K{a} p & !K{b} p", "--max-worlds", "2"],
        ["valid", "[q]-{a,b} p <-> (q -> p)", "--max-worlds", "2"],
        ["scenario", "muddy", "--n", "3"],
        ["suite", "--filter", "example1"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "glal.cli", *argv],
                               env=env, capture_output=True, text=True, timeout=120)
        code, out, _ = run(capsys, *argv)
        assert (fresh.returncode, fresh.stdout) == (code, out), argv
