"""Command-line entry point: check, refine, tree, bisim, sat, valid, scenario, suite.

Pointed models are addressed as ``path.json:worldname``.  JSON goes to
stdout (deterministic: sorted keys, no timestamps); human diagnostics and
timings go to stderr.  Exit codes: 0/1 mirror boolean verdicts, 2 bound
exceeded, 64 usage, 65 formula syntax, 66 model load, 70 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import GRAMMAR_VERSION, __version__
from .errors import (
    BoundExceeded,
    FormatError,
    FormulaSyntaxError,
    GlalError,
    InvalidModel,
    UnknownWorld,
)
from .model import KripkeModel, PointedModel, load, save
from .semantics import (
    EvalContext,
    check,
    check_traced,
    refine_global,
    refine_local,
    refine_pal,
    refine_semiprivate,
)
from .syntax import atoms, is_name, parse, print_formula

EX_OK = 0
EX_FALSE = 1
EX_BOUND = 2
EX_USAGE = 64
EX_FORMULA = 65
EX_MODEL = 66
EX_INTERNAL = 70


class _UsageError(Exception):
    pass


# The bisimulation, SAT, scenario and suite engines load on first use, so a
# subcommand imports only the engine it runs.  These four stay module-level
# names that _run looks up at call time, so a caller can wrap them here.


def sat_bounded(*args, **kwargs):
    from .sat import sat_bounded
    return sat_bounded(*args, **kwargs)


def valid_bounded(*args, **kwargs):
    from .sat import valid_bounded
    return valid_bounded(*args, **kwargs)


def pointed_bisim(*args, **kwargs):
    from .bisim import pointed_bisim
    return pointed_bisim(*args, **kwargs)


def distinguishing_formula_search(*args, **kwargs):
    from .bisim import distinguishing_formula_search
    return distinguishing_formula_search(*args, **kwargs)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(obj, pretty_lines=None, pretty=False):
    if pretty and pretty_lines is not None:
        sys.stdout.write("\n".join(pretty_lines) + "\n")
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read_model(path: str) -> KripkeModel:
    with open(path, "r", encoding="utf-8") as handle:
        return load(handle.read())


def _read_pointed(spec: str) -> PointedModel:
    path, sep, world = spec.rpartition(":")
    if not sep or not path:
        raise FormatError(f"pointed model must be path.json:world, got {spec!r}")
    return PointedModel(_read_model(path), world)


def _load_defs(path: str | None) -> dict:
    """Alias names mapped to their parsed bodies."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"alias file is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not all(
        isinstance(v, str) for v in data.values()
    ):
        raise FormatError("alias file must map names to formula strings")
    for name in data:
        if not is_name(name):
            raise FormatError(f"alias name {name!r} is not an identifier")
    defs = {name: parse(body) for name, body in data.items()}
    for name, body in defs.items():
        # An atom that names an alias is spelled out in the body's text, so
        # only a body that contains an alias name needs its atoms walked.
        if not any(map(data[name].__contains__, data)):
            continue
        inside = atoms(body) & set(defs)
        if inside:
            raise FormatError(
                f"alias {name!r} mentions alias {sorted(inside)[0]!r}; "
                "aliases must expand in one pass"
            )
    return defs


def _write_model(model: KripkeModel, out: str | None):
    text = save(model)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names the type in its messages
    return convert


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a small query."""
    parser = _Parser(prog="glal", description=__doc__)
    parser.add_argument(
        "--version", action="version",
        version=f"glal {__version__} (grammar {GRAMMAR_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula at a pointed model")
    p.add_argument("pointed", help="model.json:world")
    p.add_argument("formula")
    p.add_argument("--defs", help="JSON file of formula aliases")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("refine", help="write a refined model")
    p.add_argument("pointed", help="model.json:world (world ignored for --kind pal)")
    p.add_argument("--announce", required=True, help="announced formula")
    p.add_argument("--kind", choices=["local", "global", "semiprivate", "pal"],
                   default="local")
    p.add_argument("--coalition", default="", help="comma-separated agents, or *")
    p.add_argument("--defs")
    p.add_argument("--out")

    p = sub.add_parser("tree", help="write the refinement tree of an evaluation")
    p.add_argument("pointed")
    p.add_argument("formula")
    p.add_argument("--defs")

    p = sub.add_parser("bisim", help="compare two pointed models")
    p.add_argument("--kind", choices=["m", "pm", "coll"], required=True)
    p.add_argument("--left", required=True, help="model.json:world")
    p.add_argument("--right", required=True, help="model.json:world")
    p.add_argument("--total", action="store_true",
                   help="also require every world to be matched")
    p.add_argument("--distinguish", type=_at_least(0), metavar="DEPTH", default=None,
                   help="when unrelated, search for a distinguishing formula")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("sat", help="bounded satisfiability")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=_at_least(1), default=4)
    p.add_argument("--agents", default=None, help="comma-separated agent pool")
    p.add_argument("--atoms", default=None, help="comma-separated atom pool")
    p.add_argument("--defs")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("valid", help="bounded validity")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=_at_least(1), default=4)
    p.add_argument("--defs")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("scenario", help="write a bundled example model")
    scen = p.add_subparsers(dest="scenario", required=True)
    pm = scen.add_parser("muddy")
    pm.add_argument("--n", type=_at_least(1), required=True)
    pm.add_argument("--out")
    pc = scen.add_parser("channel")
    pc.add_argument("--variant", choices=["N", "Nprime"], required=True)
    pc.add_argument("--out")

    p = sub.add_parser("suite", help="run the named regression suite")
    p.add_argument("--filter", default=None, help="substring or group name")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--models", type=_at_least(1), default=150,
                   help="size of the validity corpus")
    p.add_argument("--pretty", action="store_true")

    return parser


def _run(args) -> int:
    if args.command == "check":
        formula = parse(args.formula, _load_defs(args.defs))
        pointed = _read_pointed(args.pointed)
        result = check(pointed, formula)
        _emit({"result": result}, [f"result: {result}"], args.pretty)
        return EX_OK if result else EX_FALSE

    if args.command == "refine":
        defs = _load_defs(args.defs)
        announced = parse(args.announce, defs)
        pointed = _read_pointed(args.pointed)
        coalition = tuple(a for a in args.coalition.split(",") if a)
        if args.coalition.strip() == "*":
            coalition = pointed.model.agents
        ctx = EvalContext()
        if args.kind == "pal":
            refined = refine_pal(pointed.model, announced, context=ctx)
        else:
            refine = {
                "local": refine_local,
                "global": refine_global,
                "semiprivate": refine_semiprivate,
            }[args.kind]
            refined = refine(pointed.model, pointed.point, announced, coalition,
                             context=ctx)
        _write_model(refined, args.out)
        return EX_OK

    if args.command == "tree":
        formula = parse(args.formula, _load_defs(args.defs))
        pointed = _read_pointed(args.pointed)
        result, trace = check_traced(pointed, formula)
        _emit(trace.to_obj())
        return EX_OK if result else EX_FALSE

    if args.command == "bisim":
        kind = {"m": "modal", "pm": "plusminus", "coll": "collective"}[args.kind]
        left = _read_pointed(args.left)
        right = _read_pointed(args.right)
        result = pointed_bisim(left, right, kind, total=args.total)
        payload = result.to_obj()
        if not result.related and args.distinguish is not None:
            witness = distinguishing_formula_search(left, right, args.distinguish)
            payload["distinguishing_formula"] = (
                print_formula(witness) if witness is not None else None
            )
        lines = [f"related: {result.related}"]
        if result.fail_reason:
            lines.append(f"fail reason: {result.fail_reason}")
        _emit(payload, lines, args.pretty)
        return EX_OK if result.related else EX_FALSE

    if args.command == "sat":
        from .sat import SatQuery

        formula = parse(args.formula, _load_defs(args.defs))
        query = SatQuery(
            formula,
            max_worlds=args.max_worlds,
            agents=tuple(args.agents.split(",")) if args.agents else None,
            atoms=tuple(args.atoms.split(",")) if args.atoms else None,
        )
        result = sat_bounded(query)
        payload = {"status": result.status, "models_examined": result.models_examined}
        if result.witness:
            payload["witness"] = {
                "model": result.witness.model.to_obj(),
                "point": result.witness.point,
            }
        _emit(payload, [f"status: {result.status}"], args.pretty)
        return EX_OK if result.satisfiable else EX_FALSE

    if args.command == "valid":
        formula = parse(args.formula, _load_defs(args.defs))
        result = valid_bounded(formula, args.max_worlds)
        payload = {"status": result.status, "models_examined": result.models_examined}
        if result.counterexample:
            payload["counterexample"] = {
                "model": result.counterexample.model.to_obj(),
                "point": result.counterexample.point,
            }
        _emit(payload, [f"status: {result.status}"], args.pretty)
        return EX_OK if result.valid else EX_FALSE

    if args.command == "scenario":
        from .scenarios import bit_channel, muddy

        model = muddy(args.n) if args.scenario == "muddy" else bit_channel(args.variant)
        _write_model(model, args.out)
        return EX_OK

    if args.command == "suite":
        from .suite import run_suite

        results = run_suite(args.filter, seed=args.seed, n_models=args.models)
        if not results:
            raise _UsageError(f"--filter {args.filter!r} matches no check")
        for r in results:
            sys.stderr.write(f"{r.name}: {r.seconds:.3f}s\n")
        payload = {
            "checks": [r.to_obj() for r in results],
            "passed": sum(r.ok for r in results),
            "failed": sum(not r.ok for r in results),
        }
        lines = [
            f"{'PASS' if r.ok else 'FAIL'} {r.name} (expected {r.expected}, got {r.actual})"
            for r in results
        ] + [f"passed {payload['passed']}, failed {payload['failed']}"]
        _emit(payload, lines, args.pretty)
        return EX_OK if payload["failed"] == 0 else EX_FALSE

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EX_USAGE
    except FormulaSyntaxError as exc:
        sys.stderr.write(f"formula error: {exc}\n")
        return EX_FORMULA
    except BoundExceeded as exc:
        sys.stderr.write(f"bound exceeded: {exc}\n")
        return EX_BOUND
    except (FormatError, InvalidModel, UnknownWorld, OSError) as exc:
        sys.stderr.write(f"model error: {exc}\n")
        return EX_MODEL
    except GlalError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_MODEL
    except Exception as exc:  # pragma: no cover - internal invariant breach
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
