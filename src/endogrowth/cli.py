"""Command-line interface.

Subcommands: check, closed, empirical, compare, ball, wordlen, distortion.
Machine output (JSON, or CSV for tables) goes to --out when given, otherwise
to stdout; with --out a one-line human summary is printed to stdout.

Exit codes: 0 success, 2 validation error, 3 resource cap exceeded,
4 certification / contract failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .ball import DEFAULT_CAP, cyclic_distortion, enumerate_ball, word_length
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


def _common_flags(sub, endo=True, required=True):
    sub.add_argument("--group", required=required, help="group descriptor file (JSON)")
    if endo:
        sub.add_argument("--endo", required=required, help="endomorphism descriptor file (JSON)")
    sub.add_argument("--kmax", type=int, default=16)
    sub.add_argument("--radius", type=int, default=10)
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None)


def _emit(args, machine_text: str, human: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(machine_text)
        print(human)
    else:
        sys.stdout.write(machine_text)


def _cmd_report(args, command: str, want_closed: bool, want_empirical: bool):
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
        want_closed=want_closed,
        want_empirical=want_empirical,
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
        "certificate": rep.certificate(),
    }
    _emit(args, report_json(out), f"closed(blocks)={rep.value:.12g}")
    return EXIT_OK


def _cmd_check(args):
    _, machine = parse_group(_read_json(args.group))
    _, endo = parse_endo(_read_json(args.endo), machine)
    verdict = check_homomorphism(machine, endo)
    out = {"command": "check", "valid": verdict.valid}
    if verdict.valid:
        triv = eventually_trivial(ValidEndo(machine, endo, verdict.images))
        out["eventually_trivial"] = {"status": triv.status, "power": triv.power}
    else:
        out["violated_relator"] = word_str(verdict.violated_relator, machine.gens)
        out["witness"] = repr(verdict.witness)
    _emit(args, report_json(out), f"check: valid={verdict.valid}")
    return EXIT_OK


def _cmd_ball(args):
    _, machine = parse_group(_read_json(args.group))
    ball = enumerate_ball(machine, args.radius, args.cap)
    if args.format == "csv":
        _emit(args, ball.to_csv(), f"ball: radius={ball.radius} size={ball.counts[-1]}")
    else:
        out = {"command": "ball", "radius": ball.radius, "counts": list(ball.counts)}
        _emit(args, report_json(out), f"ball: radius={ball.radius} size={ball.counts[-1]}")
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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endogrowth",
        description="Growth rates of group endomorphisms: closed forms vs exact word lengths",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    sub = subs.add_parser("check", help="validate an endomorphism against the relators")
    _common_flags(sub)

    sub = subs.add_parser("closed", help="closed-form growth rate")
    _common_flags(sub, required=False)
    sub.add_argument("--blocks", help="diagonal block list file (JSON) instead of group/endo")

    sub = subs.add_parser("empirical", help="iterate-length table and growth estimate")
    _common_flags(sub)

    sub = subs.add_parser("compare", help="closed form vs empirical estimate with verdict")
    _common_flags(sub)

    sub = subs.add_parser("ball", help="Cayley ball growth table")
    _common_flags(sub, endo=False)

    sub = subs.add_parser("wordlen", help="exact word length of an element")
    _common_flags(sub, endo=False)
    sub.add_argument("--word", required=True, help="word in the group's generators")

    sub = subs.add_parser("distortion", help="distortion profile of a cyclic subgroup")
    _common_flags(sub, endo=False)
    sub.add_argument("--subgroup", required=True, help="generator spanning the subgroup")
    return parser


def run(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.cmd == "check":
            return _cmd_check(args)
        if args.cmd == "closed":
            if args.blocks:
                return _cmd_closed_blocks(args)
            if not (args.group and args.endo):
                raise ValidationError("closed needs --group and --endo, or --blocks")
            return _cmd_report(args, "closed", want_closed=True, want_empirical=False)
        if args.cmd == "empirical":
            return _cmd_report(args, "empirical", want_closed=False, want_empirical=True)
        if args.cmd == "compare":
            return _cmd_report(args, "compare", want_closed=True, want_empirical=True)
        if args.cmd == "ball":
            return _cmd_ball(args)
        if args.cmd == "wordlen":
            return _cmd_wordlen(args)
        if args.cmd == "distortion":
            return _cmd_distortion(args)
        raise ValidationError(f"unknown command {args.cmd!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapExceeded as exc:
        done = "" if exc.completed_radius is None else f" (completed radius {exc.completed_radius})"
        print(f"resource cap: {exc}{done}", file=sys.stderr)
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
