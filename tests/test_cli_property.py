"""Property: no input reaching the CLI ends in an internal error (exit 70).

Model files (well- and ill-formed, partition and pair form), alias files and
formula text are generated and fed through ``cli.main``; every run must end
in a verdict or a classified error.
"""

import contextlib
import io
import json
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from glal import cli
from glal.fuzz import random_formula
from glal.syntax import print_formula

EXIT_CODES = {0, 1, 2, 64, 65, 66}
WORLDS = ["w1", "w2", "w3", "u", "p", "a"]
AGENTS = ["a", "b"]
ATOMS = ["p", "q"]
TOKENS = [
    "p", "q", "a", "b", "r", "true", "false", "!", "&", "|", "->", "<->", "(", ")",
    "K{a}", "K{a,b}", "Kw{b}", "M{a}", "C{a,b}", "E{}", "D{b}", "C{*}", "X{a}", "K {a}",
    "[p]-{a}", "[q]+{a,b}", "<p>-{*}", "<q>{a}", "[p]", "[", "]", "<", ">", "{", "}", ",",
    "*", "-", "+", "?",
]
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(["", "w1", "ab", "p"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "p", "partition", "pairs"]), inner,
                      max_size=3),
    max_leaves=6,
)


@st.composite
def model_texts(draw):
    worlds = draw(st.lists(st.sampled_from(WORLDS), min_size=1, max_size=4, unique=True))
    mentioned = st.sampled_from(worlds + ["zz"]) if draw(st.booleans()) else st.sampled_from(worlds)
    agents = draw(st.lists(st.sampled_from(AGENTS), max_size=2, unique=True))
    relations = {}
    for agent in agents:
        form = draw(st.sampled_from(["partition", "pairs", "identity"]))
        if form == "partition":
            blocks = {}
            for w in worlds:
                blocks.setdefault(draw(st.integers(0, 2)), []).append(w)
            cells = list(blocks.values())
            if draw(st.booleans()):
                cells.append(draw(st.lists(mentioned, max_size=2)))
            relations[agent] = {"partition": cells}
        elif form == "pairs":
            pair = st.lists(mentioned, min_size=2, max_size=2)
            relations[agent] = {"pairs": draw(st.lists(pair, max_size=4))}
    valuation = {
        atom: draw(st.lists(mentioned, unique=True))
        for atom in draw(st.lists(st.sampled_from(ATOMS), unique=True))
    }
    obj = {"worlds": worlds, "agents": agents, "relations": relations, "valuation": valuation}
    corruption = draw(st.sampled_from(["none", "none", "replace", "drop", "inner", "text"]))
    if corruption == "replace":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(json_values)
    elif corruption == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif corruption == "inner" and agents:
        obj["relations"][agents[0]] = draw(json_values)
    elif corruption == "text":
        return draw(st.text(alphabet='{}[]",:wa1 ', max_size=12))
    return json.dumps(obj)


@st.composite
def formula_texts(draw):
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10_000)))
        return print_formula(random_formula(rng, 4, ATOMS, AGENTS))
    return " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=10)))


defs_texts = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["r", "a", "p", "alpha"]), formula_texts(), max_size=2)
    .map(json.dumps),
    json_values.map(json.dumps),
)


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


@PROPERTY
@given(
    command=st.sampled_from(["check", "tree", "refine"]),
    model=model_texts(),
    point=st.sampled_from(WORLDS + ["zz"]),
    formula=formula_texts(),
    defs=defs_texts,
    kind=st.sampled_from(["local", "global", "semiprivate", "pal"]),
    coalition=st.sampled_from(["", "a", "a,b", "*", "c"]),
)
def test_pointed_commands_never_exit_internal(command, model, point, formula, defs, kind,
                                              coalition):
    with tempfile.TemporaryDirectory() as tmp:
        spec = f"{write(tmp, 'm.json', model)}:{point}"
        if command == "refine":
            argv = ["refine", spec, "--announce", formula, "--kind", kind,
                    "--coalition", coalition]
        else:
            argv = [command, spec, formula]
        if defs is not None:
            argv += ["--defs", write(tmp, "defs.json", defs)]
        assert run_cli(argv) in EXIT_CODES


@PROPERTY
@given(
    kind=st.sampled_from(["m", "pm", "coll"]),
    left=model_texts(),
    right=model_texts(),
    points=st.tuples(st.sampled_from(WORLDS), st.sampled_from(WORLDS + ["zz"])),
    depth=st.sampled_from([None, "0", "1", "2", "-1", "x"]),
    total=st.booleans(),
)
def test_bisim_never_exits_internal(kind, left, right, points, depth, total):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["bisim", "--kind", kind,
                "--left", f"{write(tmp, 'l.json', left)}:{points[0]}",
                "--right", f"{write(tmp, 'r.json', right)}:{points[1]}"]
        if depth is not None:
            argv += ["--distinguish", depth]
        if total:
            argv.append("--total")
        assert run_cli(argv) in EXIT_CODES


@PROPERTY
@given(
    command=st.sampled_from(["sat", "valid"]),
    formula=formula_texts(),
    max_worlds=st.sampled_from(["-1", "0", "1", "2", "7", "two"]),
    vocabulary=st.sampled_from([[], ["--agents", "a,a"], ["--agents", ","],
                                ["--agents", "b,a"], ["--atoms", "q,p"], ["--atoms", ""]]),
)
def test_bounded_commands_never_exit_internal(command, formula, max_worlds, vocabulary):
    argv = [command, formula, "--max-worlds", max_worlds]
    if command == "sat":
        argv += vocabulary
    assert run_cli(argv) in EXIT_CODES


@PROPERTY
@given(args=st.lists(st.sampled_from(["scenario", "muddy", "channel", "--n", "--variant",
                                      "N", "Nprime", "0", "3", "11", "-2", "x"]),
                     max_size=5))
def test_scenario_never_exits_internal(args):
    assert run_cli(args) in EXIT_CODES
