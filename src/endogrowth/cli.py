"""Command-line interface.

Subcommands: check, closed, empirical, compare, ball, wordlen, distortion.
Machine output (JSON, or CSV for tables) goes to --out when given, otherwise
to stdout; with --out a one-line human summary is printed to stdout.

Each command is one entry of ``COMMANDS``.  A run builds the parser of the
command it runs and nothing else; the full parser of ``make_parser()`` is
built only for help and errors: when argv does not start with a command name,
or when the command's parser leaves an argument unrecognized.

Exit codes: 0 success, 2 validation error, 3 resource cap exceeded,
4 certification / contract failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, NamedTuple, Optional

from .ball import DEFAULT_CAP, ball_counts, counts_csv, cyclic_distortion, word_length
from .errors import (
    CertificationError,
    ContractError,
    EndoGrowthError,
    InconsistencyError,
    ResourceCapExceeded,
    ValidationError,
)
from .exactlin import IntMatrix
from .families import check_params
from .nilgr import gr_from_blocks
from .reports import build_report, parse_endo, parse_group, report_json
from .words import ValidEndo, check_homomorphism, evaluate, eventually_trivial, parse_word, word_str

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_CERTIFICATION = 4

_BLOCK_SCHEMA = (("weight", "int"), ("matrix", "int matrix"))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None


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


class Command(NamedTuple):
    help: str
    endo: bool  # takes --endo
    required: bool  # --group, --endo and the extra flag are required
    extra: Optional[tuple[str, str]]  # (flag, help) of the command's own flag
    handler: Callable


# One entry per command: it feeds both the command's own parser and make_parser().
COMMANDS = {
    "check": Command("validate an endomorphism against the relators", True, True, None, _cmd_check),
    "closed": Command(
        "closed-form growth rate", True, False,
        ("--blocks", "diagonal block list file (JSON) instead of group/endo"), _cmd_closed,
    ),
    "empirical": Command(
        "iterate-length table and growth estimate", True, True, None,
        functools.partial(_cmd_report, command="empirical"),
    ),
    "compare": Command(
        "closed form vs empirical estimate with verdict", True, True, None,
        functools.partial(_cmd_report, command="compare"),
    ),
    "ball": Command("Cayley ball growth table", False, True, None, _cmd_ball),
    "wordlen": Command(
        "exact word length of an element", False, True,
        ("--word", "word in the group's generators"), _cmd_wordlen,
    ),
    "distortion": Command(
        "distortion profile of a cyclic subgroup", False, True,
        ("--subgroup", "generator spanning the subgroup"), _cmd_distortion,
    ),
}


def _add_flags(parser, spec: Command):
    parser.add_argument("--group", required=spec.required, help="group descriptor file (JSON)")
    if spec.endo:
        parser.add_argument("--endo", required=spec.required, help="endomorphism descriptor file (JSON)")
    parser.add_argument("--kmax", type=int, default=16)
    parser.add_argument("--radius", type=int, default=10)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None)
    if spec.extra:
        flag, text = spec.extra
        parser.add_argument(flag, required=spec.required, help=text)


def make_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser."""
    parser = argparse.ArgumentParser(
        prog="endogrowth",
        description="Growth rates of group endomorphisms: closed forms vs exact word lengths",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)
    for name, spec in COMMANDS.items():
        _add_flags(subs.add_parser(name, help=spec.help), spec)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """What ``make_parser().parse_args(argv)`` returns, building only the
    invoked command's parser when it accepts every argument.

    The command's parser is built as ``make_parser()`` builds its subparser,
    so its help and its errors are the same.  Anything else (no command, an
    option before it, an argument it does not recognize) goes to the full
    parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"endogrowth {argv[0]}")
        _add_flags(parser, COMMANDS[argv[0]])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.cmd = argv[0]
            return args
    return make_parser().parse_args(argv)


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
    except (CertificationError, ContractError, InconsistencyError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (EndoGrowthError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
