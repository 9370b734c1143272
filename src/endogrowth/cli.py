"""Command-line interface.

Subcommands: check, closed, empirical, compare, ball, wordlen, distortion.
Machine output (JSON, or CSV for tables) goes to --out when given, otherwise
to stdout; with --out a one-line human summary is printed to stdout.

Each command is one entry of ``COMMANDS`` and each flag one entry of
``FLAGS``.  A plain command line, ``CMD --flag value ...`` with every flag
spelled in full and belonging to CMD, no value starting with ``-``, every
value valid for its flag and every required flag given, is parsed from
``FLAGS`` into a ``types.SimpleNamespace``, without importing argparse.
Every other argv goes to the full parser of ``make_parser()``, the one place
that imports argparse, so help, usage and error text are its own.

Exit codes: 0 success, 2 validation error, 3 resource cap exceeded,
4 certification / contract failure.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from .ball import DEFAULT_CAP, ball_counts, counts_csv, cyclic_distortion, word_length
from .errors import (
    CertificationError,
    EndoGrowthError,
    ResourceCapExceeded,
    ValidationError,
)
from .exactlin import IntMatrix
from .families import check_params
from .nilgr import gr_from_blocks
from .reports import build_report, parse_endo, parse_group, report_json, unlimited_int_digits
from .words import ValidEndo, check_homomorphism, evaluate, eventually_trivial, parse_word, word_str

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_CERTIFICATION = 4

_BLOCK_SCHEMA = (("weight", "int"), ("matrix", "int matrix"))


# Real descriptors nest at most 4 levels.  A report holds its descriptors a few
# levels down and report_json recurses once per level, so this bound keeps it
# far from the recursion limit on every Python version.
MAX_JSON_DEPTH = 64


def _read_json(path):
    """The document in ``path``, refused unless it is JSON nested at most
    ``MAX_JSON_DEPTH`` containers deep (``[]`` and ``{"a": 1}`` are 1 deep)."""
    too_deep = f"{path}: nested deeper than {MAX_JSON_DEPTH} levels"
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        except RecursionError:  # how deep json's parser goes depends on the Python version
            raise ValidationError(too_deep) from None
    level = [doc]
    for _ in range(MAX_JSON_DEPTH + 1):  # one pass per depth, so no recursion
        kinds = set(map(type, level))
        if dict not in kinds and list not in kinds:
            return doc
        containers = (o for o in level if type(o) in (dict, list))
        level = list(itertools.chain.from_iterable(o.values() if type(o) is dict else o for o in containers))
    raise ValidationError(too_deep)


def _emit(args, machine_text: str, human: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(machine_text)
        print(human)
    else:
        sys.stdout.write(machine_text)


def _cmd_report(args, command: str):
    group_doc = _read_json(args.group)
    endo_doc = _read_json(args.endo)
    report = build_report(
        command,
        group_doc,
        endo_doc,
        kmax=args.kmax,
        radius=args.radius,
        cap=args.cap,
        tol=args.tol,
    )
    if command == "closed" and report["closed"] is None:
        raise ValidationError(
            f"no closed form for family {group_doc.get('family')!r}; use 'empirical'"
        )
    parts = []
    if report["closed"] is not None:
        parts.append(f"closed={report['closed']['value']:.12g}")
    if report["empirical"] is not None:
        parts.append(f"estimate={report['empirical']['estimate']:.12g}")
    if report["verdict"]:
        parts.append(f"verdict={report['verdict']}")
    _emit(args, report_json(report), f"{command}: " + " ".join(parts))
    return EXIT_OK


def _cmd_closed_blocks(args):
    doc = _read_json(args.blocks)
    if not isinstance(doc, list):
        raise ValidationError("block list must be a list of {weight, matrix} objects")
    items = [check_params(_BLOCK_SCHEMA, item, "block") for item in doc]
    blocks = [(item["weight"], IntMatrix.from_rows(item["matrix"])) for item in items]
    rep = gr_from_blocks(blocks, args.tol)
    out = {
        "command": "closed",
        "blocks": doc,
        "value": rep.value,
        "certificate": rep.certificate,
    }
    _emit(args, report_json(out), f"closed(blocks)={rep.value:.12g}")
    return EXIT_OK


def _cmd_check(args):
    _, machine = parse_group(_read_json(args.group))
    images = parse_endo(_read_json(args.endo), machine)
    verdict = check_homomorphism(machine, images)
    out = {"command": "check", "valid": verdict.valid}
    if verdict.valid:
        power = eventually_trivial(ValidEndo(machine, images))
        out["eventually_trivial"] = {"status": "no" if power is None else "yes", "power": power}
    else:
        out["violated_relator"] = word_str(verdict.violated_relator, machine.gens)
        with unlimited_int_digits():
            out["witness"] = repr(verdict.witness)
    _emit(args, report_json(out), f"check: valid={verdict.valid}")
    return EXIT_OK


def _cmd_ball(args):
    _, machine = parse_group(_read_json(args.group))
    counts = ball_counts(machine, args.radius, args.cap)
    human = f"ball: radius={args.radius} size={counts[-1]}"
    if args.format == "csv":
        _emit(args, counts_csv(counts), human)
    else:
        _emit(args, report_json({"command": "ball", "radius": args.radius, "counts": list(counts)}), human)
    return EXIT_OK


def _cmd_wordlen(args):
    _, machine = parse_group(_read_json(args.group))
    w = parse_word(args.word, machine.gens)
    elem = evaluate(machine, w)
    length = word_length(machine, elem, args.radius, args.cap)
    out = {
        "command": "wordlen",
        "word": args.word,
        "length": length,
        "known": length is not None,
        "radius": args.radius,
    }
    human = f"wordlen: {length}" if length is not None else f"wordlen: unknown beyond radius {args.radius}"
    _emit(args, report_json(out), human)
    return EXIT_OK


def _cmd_distortion(args):
    _, machine = parse_group(_read_json(args.group))
    table = cyclic_distortion(machine, args.subgroup, args.radius, args.cap)
    if args.format == "csv":
        _emit(args, table.to_csv(), f"distortion: delta({args.radius})={table.delta[-1]}")
    else:
        out = {
            "command": "distortion",
            "subgroup": args.subgroup,
            "ns": list(table.ns),
            "delta": list(table.delta),
            "witnesses": list(table.witnesses),
        }
        _emit(args, report_json(out), f"distortion: delta({args.radius})={table.delta[-1]}")
    return EXIT_OK


def _cmd_closed(args):
    if args.blocks:
        return _cmd_closed_blocks(args)
    if not (args.group and args.endo):
        raise ValidationError("closed needs --group and --endo, or --blocks")
    return _cmd_report(args, "closed")


class Flag(NamedTuple):
    type: Optional[Callable] = None  # int or float; None keeps the string
    choices: Optional[tuple] = None
    default: object = None
    help: Optional[str] = None


# Every flag: what converts and checks its value, its default and its help.
# Both the plain parse and make_parser() read it.
FLAGS = {
    "--group": Flag(help="group descriptor file (JSON)"),
    "--endo": Flag(help="endomorphism descriptor file (JSON)"),
    "--kmax": Flag(int, default=16),
    "--radius": Flag(int, default=10),
    "--cap": Flag(int, default=DEFAULT_CAP),
    "--tol": Flag(float, default=1e-9),
    "--format": Flag(choices=("json", "csv"), default="json"),
    "--out": Flag(),
    "--blocks": Flag(help="diagonal block list file (JSON) instead of group/endo"),
    "--word": Flag(help="word in the group's generators"),
    "--subgroup": Flag(help="generator spanning the subgroup"),
}
_COMMON = ("--kmax", "--radius", "--cap", "--tol", "--format", "--out")


class Command(NamedTuple):
    help: str
    flags: tuple[str, ...]  # the keys of FLAGS the command takes, in help order
    required: frozenset[str]  # the flags it cannot run without
    handler: Callable


# One entry per command: it feeds both the plain parse and make_parser().
COMMANDS = {
    "check": Command(
        "validate an endomorphism against the relators",
        ("--group", "--endo", *_COMMON), frozenset({"--group", "--endo"}), _cmd_check,
    ),
    "closed": Command(
        "closed-form growth rate",
        ("--group", "--endo", *_COMMON, "--blocks"), frozenset(), _cmd_closed,
    ),
    "empirical": Command(
        "iterate-length table and growth estimate",
        ("--group", "--endo", *_COMMON), frozenset({"--group", "--endo"}),
        functools.partial(_cmd_report, command="empirical"),
    ),
    "compare": Command(
        "closed form vs empirical estimate with verdict",
        ("--group", "--endo", *_COMMON), frozenset({"--group", "--endo"}),
        functools.partial(_cmd_report, command="compare"),
    ),
    "ball": Command("Cayley ball growth table", ("--group", *_COMMON), frozenset({"--group"}), _cmd_ball),
    "wordlen": Command(
        "exact word length of an element",
        ("--group", *_COMMON, "--word"), frozenset({"--group", "--word"}), _cmd_wordlen,
    ),
    "distortion": Command(
        "distortion profile of a cyclic subgroup",
        ("--group", *_COMMON, "--subgroup"), frozenset({"--group", "--subgroup"}), _cmd_distortion,
    ),
}


def _add_flags(parser, spec: Command):
    for flag in spec.flags:
        kind = FLAGS[flag]
        parser.add_argument(
            flag, type=kind.type, choices=kind.choices, default=kind.default,
            required=flag in spec.required, help=kind.help,
        )


def make_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser.  A plain command line
    never reaches it, so only here is argparse imported."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="endogrowth",
        description="Growth rates of group endomorphisms: closed forms vs exact word lengths",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)
    for name, spec in COMMANDS.items():
        _add_flags(subs.add_parser(name, help=spec.help), spec)
    return parser


def _parse_plain(argv) -> Optional[SimpleNamespace]:
    """The namespace of ``CMD --flag value ...``, or None for any other argv.

    Every flag must be spelled in full and belong to CMD, no value may start
    with ``-``, and every flag CMD requires must be given.  Each value, a
    repeated flag's too, converts by its flag's type and must be one of its
    choices; a repeated flag keeps its last value.  On such an argv the full
    parser returns a namespace of the same attributes, as its subparser sees
    only options and their values.
    """
    spec = COMMANDS.get(argv[0]) if argv else None
    if spec is None or len(argv) % 2 == 0:
        return None
    values = {flag: FLAGS[flag].default for flag in spec.flags}
    given = set()
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in values or text.startswith("-"):
            return None
        kind = FLAGS[flag]
        value = text
        if kind.type is not None:
            try:
                value = kind.type(text)
            except ValueError:
                return None
        if kind.choices is not None and value not in kind.choices:
            return None
        values[flag] = value
        given.add(flag)
    if not spec.required <= given:
        return None
    return SimpleNamespace(cmd=argv[0], **{flag[2:]: value for flag, value in values.items()})


def parse_args(argv):
    """The attributes ``make_parser().parse_args(argv)`` returns, without
    building any parser when argv is a plain ``CMD --flag value ...`` command
    line.

    ``_parse_plain`` says which argvs are plain.  Any other argv (no command,
    an option before it, an abbreviated or ``--flag=value`` option, a value
    starting with ``-``, a missing or invalid value, ``-h``) goes to the full
    parser, so help, usage and error text are the full parser's.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    return make_parser().parse_args(argv) if args is None else args


def run(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.radius < 0:
            raise ValidationError("radius must be nonnegative")
        if args.cap < 0:
            raise ValidationError("cap must be nonnegative")
        if args.kmax < 1:
            raise ValidationError("kmax must be >= 1")
        if not 0 < args.tol < math.inf:
            raise ValidationError("tol must be positive and finite")
        return COMMANDS[args.cmd].handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapExceeded as exc:
        done = "" if exc.completed_radius is None else f" (completed radius {exc.completed_radius})"
        print(f"resource cap: {exc}{done}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        # the traceback's frames still hold what filled memory: free it first
        exc.__traceback__ = None
        print("resource cap: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (EndoGrowthError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
