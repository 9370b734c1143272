import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endogrowth.ball import ClosedForm, GrowthEstimate, gr_estimate
from endogrowth.cli import COMMANDS, make_parser, parse_args, run
from endogrowth.errors import ValidationError
from endogrowth.families import BSMachine, FreeAbelianMachine, HeisenbergMachine, KleinMachine, TorsionProductMachine
from endogrowth.reports import (
    _verdict,
    build_report,
    closed_growth_rate,
    parse_endo,
    parse_group,
    report_json,
    unlimited_int_digits,
)

from endogrowth.words import validate_endo

from conftest import FIXTURE_DIR, SRC_DIR, count_calls, load_fixture, run_child

GOLDEN = (3 + math.sqrt(5)) / 2

# ``cli.run`` on the arguments after the memory limit, in a ``run_child`` child
CLI_CHILD = "from endogrowth.cli import run\nsys.exit(run(sys.argv[2:]))"

# The Heisenberg lattice with k = 1, a3 = [a2, a1], as a nilpotent2 group,
# which commands search, with the generator names of heis_ex1
HEIS_AS_NIL2 = {
    "family": "nilpotent2",
    "params": {"n_gens": 2, "central": ["a3"], "designated": {"a3": [2, 1]}, "tau_names": ["a1", "a2"]},
}


def fixture_path(name):
    return str(FIXTURE_DIR / name)


class TestLoading:
    def test_bundled_fixtures_load_and_validate(self):
        for stem in ("counter", "bs", "heis_ex1", "nil2_ex3", "klein", "sol_ex1", "sol_ex2", "sol_ex3"):
            _, machine = parse_group(load_fixture(f"{stem}.group"))
            images = parse_endo(load_fixture(f"{stem}.endo"), machine)
            from endogrowth.words import check_homomorphism

            assert check_homomorphism(machine, images).valid, stem

    def test_round_trip(self):
        for stem in ("counter", "bs", "heis_ex1", "nil2_ex3", "klein", "sol_ex1", "sol_ex2", "sol_ex3"):
            raw = load_fixture(f"{stem}.group")
            desc, machine = parse_group(json.loads(json.dumps(raw)))
            assert desc.raw == raw
            raw_endo = load_fixture(f"{stem}.endo")
            assert parse_endo(json.loads(json.dumps(raw_endo)), machine) == parse_endo(raw_endo, machine)

    def test_simple_group_loads(self):
        _, machine = parse_group({"family": "free_abelian", "params": {"rank": 2}})
        assert machine.gens.names == ("e1", "e2")

    def test_identity_holonomy_rejected(self):
        with pytest.raises(ValidationError):
            parse_group({"family": "sol_lattice", "params": {"A": [[1, 0], [0, 1]]}})

    def test_sol_shortcut_expands(self, sol_fib):
        images = parse_endo(load_fixture("sol_ex2.endo"), sol_fib)
        assert images[0] == (1, 2, 0)
        assert images[2] == (0, 0, 1)

    def test_matrix_shortcut(self, z2):
        assert parse_endo({"matrix": [[2, 0], [0, 1]]}, z2)[0] == (2, 0)

    def test_sol_shortcut_is_its_images_text(self, sol_fib):
        images = parse_endo(load_fixture("sol_ex2.endo"), sol_fib)
        text = {"a1": "a1 a2^2", "a2": "a1^2 a2^-1", "tau": "tau"}
        assert images == parse_endo({"images": text}, sol_fib)

    def test_matrix_shortcut_is_its_images_text(self):
        _, z3 = parse_group({"family": "free_abelian", "params": {"rank": 3}})
        images = parse_endo({"matrix": [[2, 0, -1], [1, 1, 0], [0, 3, 1]]}, z3)
        # column i is the image of generator i
        text = {"e1": "e1^2 e2", "e2": "e2 e3^3", "e3": "e1^-1 e3"}
        assert images == parse_endo({"images": text}, z3)


class TestClosedDispatch:
    def test_sol_example(self, sol_fib):
        images = parse_endo(load_fixture("sol_ex2.endo"), sol_fib)
        closed = closed_growth_rate(validate_endo(sol_fib, images))
        assert abs(closed.value - math.sqrt(5)) <= 1e-9

    def test_bs_has_no_closed_form(self, bs2):
        images = parse_endo(load_fixture("bs.endo"), bs2)
        assert closed_growth_rate(validate_endo(bs2, images)) is None

    def test_counter_closed_form(self, counter_machine):
        images = parse_endo(load_fixture("counter.endo"), counter_machine)
        closed = closed_growth_rate(validate_endo(counter_machine, images))
        assert closed.value == 1.0
        assert closed.certificate["eventually_trivial"] == "no"


class TestCommands:
    def test_compare_sol_ex3(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "compare",
                "--group", fixture_path("sol_ex3.group"),
                "--endo", fixture_path("sol_ex3.endo"),
                "--kmax", "20",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["closed"]["value"] - math.sqrt(2)) <= 1e-9
        assert report["verdict"] == "consistent"
        rows = report["empirical"]["rows"]
        for k in range(1, 11):
            assert rows[2 * k - 1]["length"] == 2**k + 2 * k

    def test_closed_heisenberg(self, tmp_path):
        out = tmp_path / "closed.json"
        code = run(
            [
                "closed",
                "--group", fixture_path("heis_ex1.group"),
                "--endo", fixture_path("heis_ex1.endo"),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["closed"]["value"] - GOLDEN) <= 1e-9
        assert abs(report["closed"]["entropy"] - math.log(GOLDEN)) <= 1e-9

    def test_empirical_counter(self, tmp_path):
        out = tmp_path / "emp.json"
        code = run(
            [
                "empirical",
                "--group", fixture_path("counter.group"),
                "--endo", fixture_path("counter.endo"),
                "--kmax", "16",
                "--radius", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert all(r["length"] == 1 for r in report["empirical"]["rows"])
        assert report["empirical"]["estimate"] == 1.0

    def test_check_reports_validity(self, tmp_path):
        out = tmp_path / "check.json"
        code = run(
            [
                "check",
                "--group", fixture_path("klein.group"),
                "--endo", fixture_path("klein.endo"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["valid"] is True

    def test_check_rejects_a_torsion_relator_violation(self, tmp_path):
        # beta has order 2, but alpha, its image, has infinite order
        (tmp_path / "e.json").write_text(json.dumps({"images": {"alpha": "alpha", "beta": "alpha"}}))
        out = tmp_path / "check.json"
        argv = ["check", "--group", fixture_path("counter.group"), "--endo", str(tmp_path / "e.json")]
        assert run([*argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["valid"] is False
        assert report["violated_relator"] == "beta^2"
        assert report["witness"] == "(2, 0)"  # alpha^2: the flat normal form (free exponent, residue)
        assert run(["closed", *argv[1:], "--out", str(out)]) == 2

    @staticmethod
    def _doubling_on_cyclic(tmp_path, order, command):
        """The report of ``command`` on t1 -> t1^2 of Z/order."""
        group, endo, out = tmp_path / "g.json", tmp_path / "e.json", tmp_path / "out.json"
        group.write_text(json.dumps({"family": "abelian_with_torsion", "params": {"rank": 0, "torsion": [order]}}))
        endo.write_text(json.dumps({"images": {"t1": "t1^2"}}))
        assert run([command, "--group", str(group), "--endo", str(endo), "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_check_decides_a_long_torsion_cycle(self, tmp_path):
        # 2 has order 210 modulo 211: the images cycle without dying
        report = self._doubling_on_cyclic(tmp_path, 211, "check")
        assert report["eventually_trivial"] == {"status": "no", "power": None}

    def test_closed_decides_a_longer_torsion_cycle(self, tmp_path):
        # 2 has order 515 modulo 1031
        report = self._doubling_on_cyclic(tmp_path, 1031, "closed")
        assert report["closed"]["value"] == 1.0
        assert report["closed"]["certificate"]["eventually_trivial"] == "no"

    def test_ball_csv(self, capsys):
        code = run(["ball", "--group", fixture_path("heis_ex1.group"), "--radius", "2", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,count,delta,witness"
        assert lines[1].startswith("0,1")

    def test_wordlen(self, capsys):
        code = run(["wordlen", "--group", fixture_path("bs.group"), "--word", "b^4", "--radius", "6"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["length"] == 4

    def test_distortion(self, capsys):
        code = run(
            ["distortion", "--group", fixture_path("bs.group"), "--subgroup", "b", "--radius", "9"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta"][-1] == 24

    def test_blocks(self, tmp_path, capsys):
        blocks = tmp_path / "blocks.json"
        blocks.write_text(json.dumps([
            {"weight": 1, "matrix": [[2, 1], [1, 1]]},
            {"weight": 2, "matrix": [[1]]},
        ]))
        code = run(["closed", "--blocks", str(blocks)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"] - GOLDEN) <= 1e-9


class TestExactFunctionals:
    def test_klein_rows_are_exact_and_certified(self, tmp_path):
        # the Klein normal-form length is the word length, so every row is exact
        out = tmp_path / "klein.json"
        code = run(
            [
                "compare",
                "--group", fixture_path("klein.group"),
                "--endo", fixture_path("klein.endo"),
                "--kmax", "20",
                "--radius", "10",
                "--out", str(out),
            ]
        )
        assert code == 0
        empirical = json.loads(out.read_text())["empirical"]
        assert [row["exact"] for row in empirical["rows"]] == [True] * 20
        assert empirical["certified_upper"] is True

    def test_heisenberg_rows_are_exact_and_certified(self, tmp_path):
        # the closed-form metric gives every row, past the radius too
        out = tmp_path / "heis.json"
        args = ["--group", fixture_path("heis_ex1.group"), "--endo", fixture_path("heis_ex1.endo")]
        assert run(["compare", *args, "--kmax", "25", "--out", str(out)]) == 0
        empirical = json.loads(out.read_text())["empirical"]
        assert [row["exact"] for row in empirical["rows"]] == [True] * 25
        assert empirical["certified_upper"] is True

    def test_bfs_families_keep_upper_bound_rows(self, tmp_path):
        # heis_ex1's endomorphism on the same group as nilpotent2, which
        # commands search: rows past the radius are upper bounds
        out = tmp_path / "heis.json"
        group = tmp_path / "heis_nil2.group"
        group.write_text(json.dumps(HEIS_AS_NIL2))
        args = ["--group", str(group), "--endo", fixture_path("heis_ex1.endo")]
        assert run(["compare", *args, "--kmax", "25", "--out", str(out)]) == 0
        empirical = json.loads(out.read_text())["empirical"]
        assert sum(row["exact"] for row in empirical["rows"]) == 2
        assert empirical["certified_upper"] is False

    # (radius, kmax, a word of length radius, a generator) at the benchmark's
    # sizes; the rank-3 group's endomorphism is a seeded matrix
    @pytest.mark.parametrize(
        "stem, radius, kmax, word, gen",
        [
            ("counter", 2, 32, "alpha beta", "beta"),
            ("klein", 160, 12, "x^80 y^80", "x"),
            ("z3", 25, 12, "e1^9 e2^-8 e3^8", "e1"),
            ("heis_ex1", 18, 16, "a1^-6 a2^3 a3^25", "a3"),
        ],
        ids=["counter", "klein", "z3", "heis_ex1"],
    )
    def test_commands_search_no_exact_family(self, stem, radius, kmax, word, gen, tmp_path, monkeypatch, capsys):
        # length_exact gives the lengths, sphere_sizes the sphere sizes and
        # power lookups the distortion, so no command builds a codec of these
        # families
        def searched(*args):
            pytest.fail("a command searched a length_exact family")

        for cls in (FreeAbelianMachine, TorsionProductMachine, KleinMachine, HeisenbergMachine):
            monkeypatch.setattr(cls, "codec", searched)
        if stem == "z3":
            rng = random.Random(3)
            group, endo = tmp_path / "z3.group", tmp_path / "z3.endo"
            group.write_text(json.dumps({"family": "free_abelian", "params": {"rank": 3}}))
            endo.write_text(json.dumps({"matrix": [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]}))
        else:
            group, endo = fixture_path(f"{stem}.group"), fixture_path(f"{stem}.endo")
        sizes = ["--radius", str(radius), "--kmax", str(kmax), "--out", str(tmp_path / "out")]
        for command in ("check", "closed", "empirical", "compare"):
            assert run([command, "--group", str(group), "--endo", str(endo), *sizes]) == 0, command
        assert run(["ball", "--group", str(group), *sizes]) == 0
        assert run(["wordlen", "--group", str(group), "--word", word, *sizes]) == 0
        assert capsys.readouterr().out.endswith(f"wordlen: {radius}\n")
        assert run(["distortion", "--group", str(group), "--subgroup", gen, *sizes]) == 0

    def test_only_ball_searches_baumslag_solitar(self, tmp_path, monkeypatch, capsys):
        # length_upper gives every length at the benchmark's sizes; only the
        # sphere counts of ball need a search
        built = count_calls(monkeypatch, BSMachine, "codec")
        group, endo = fixture_path("bs.group"), fixture_path("bs.endo")
        sizes = ["--radius", "14", "--kmax", "12", "--out", str(tmp_path / "out")]
        for command in ("check", "empirical", "compare"):
            assert run([command, "--group", group, "--endo", endo, *sizes]) == 0, command
        assert run(["wordlen", "--group", group, "--word", "a b^577 a^-7", *sizes]) == 0
        assert capsys.readouterr().out.endswith("wordlen: 14\n")
        assert run(["distortion", "--group", group, "--subgroup", "b", *sizes]) == 0
        assert built == []
        assert run(["ball", "--group", group, *sizes]) == 0
        assert built


class TestSingleValidation:
    STEMS = ("counter", "bs", "heis_ex1", "nil2_ex3", "klein", "sol_ex1", "sol_ex2", "sol_ex3")

    @pytest.mark.parametrize("command", ["check", "closed", "empirical", "compare"])
    def test_one_relator_check_per_command(self, command, tmp_path, monkeypatch):
        import endogrowth.cli as cli_mod
        import endogrowth.words as words_mod

        calls = []
        original = words_mod.check_homomorphism

        def counted(machine, images):
            calls.append(machine.family)
            return original(machine, images)

        monkeypatch.setattr(words_mod, "check_homomorphism", counted)
        monkeypatch.setattr(cli_mod, "check_homomorphism", counted)
        for stem in self.STEMS:
            calls.clear()
            args = ["--group", fixture_path(f"{stem}.group"), "--endo", fixture_path(f"{stem}.endo")]
            code = run([command, *args, "--kmax", "8", "--radius", "4", "--out", str(tmp_path / "o")])
            if command == "closed" and stem == "bs":
                # no closed form: refused before any validation
                assert (code, len(calls)) == (2, 0)
            else:
                assert (code, len(calls)) == (0, 1), stem

    @pytest.mark.parametrize("command", ["closed", "empirical", "compare"])
    def test_one_sol_classification_per_command(self, command, tmp_path, monkeypatch):
        import endogrowth.families as families_mod
        import endogrowth.solgr as solgr_mod

        calls = []
        original = solgr_mod.classify_endo

        def counted(valid):
            calls.append(valid.machine.family)
            return original(valid)

        monkeypatch.setattr(solgr_mod, "classify_endo", counted)
        monkeypatch.setattr(families_mod, "classify_endo", counted)
        for stem in ("sol_ex1", "sol_ex2", "sol_ex3"):
            calls.clear()
            args = ["--group", fixture_path(f"{stem}.group"), "--endo", fixture_path(f"{stem}.endo")]
            code = run([command, *args, "--kmax", "8", "--out", str(tmp_path / "o")])
            assert (code, len(calls)) == (0, 1), stem

    @pytest.mark.parametrize("command", ["closed", "empirical", "compare"])
    def test_one_holonomy_check_per_sol_command(self, command, tmp_path, monkeypatch):
        # the machine's minimizer checks and inverts the holonomy; the routes
        # reuse it
        import endogrowth.solgr as solgr_mod

        built = []
        original = solgr_mod.SolLengthMinimizer.__init__

        def counted(self, holonomy):
            built.append(holonomy)
            original(self, holonomy)

        monkeypatch.setattr(solgr_mod.SolLengthMinimizer, "__init__", counted)
        inverses = count_calls(monkeypatch, solgr_mod, "inverse_unimodular_2x2")
        for stem in ("sol_ex1", "sol_ex2", "sol_ex3"):
            built.clear()
            inverses.clear()
            args = ["--group", fixture_path(f"{stem}.group"), "--endo", fixture_path(f"{stem}.endo")]
            code = run([command, *args, "--kmax", "8", "--out", str(tmp_path / "o")])
            assert (code, len(built), len(inverses)) == (0, 1, 1), stem


class TestBundledComparisons:
    KMAX = {"counter": 32, "bs": 12, "heis_ex1": 25, "nil2_ex3": 12, "klein": 20,
            "sol_ex1": 40, "sol_ex2": 16, "sol_ex3": 20}

    def test_every_example_is_consistent_or_inconclusive(self):
        for stem, kmax in self.KMAX.items():
            report = build_report(
                "compare",
                load_fixture(f"{stem}.group"),
                load_fixture(f"{stem}.endo"),
                kmax=kmax,
                radius=8,
            )
            expected = "inconclusive" if stem == "bs" else "consistent"
            assert report["verdict"] == expected, (stem, report["verdict"])


class TestVerdict:
    def test_sol_collapse_to_the_torus_is_consistent(self):
        # tau -> a1^2 a2 and a_i -> 1: phi^2 is trivial
        endo = {"sol": {"M": [[0, 0], [0, 0]], "p": 2, "q": 1, "tau_exp": 0}}
        report = build_report("compare", load_fixture("sol_ex1.group"), endo, kmax=4)
        assert [row["length"] for row in report["empirical"]["rows"]] == [3, 0, 0, 0]
        assert report["closed"]["value"] == 0.0
        assert report["verdict"] == "consistent"

    def test_trivial_endomorphism_of_a_finite_group_is_consistent(self):
        group = {"family": "abelian_with_torsion", "params": {"rank": 0, "torsion": [3]}}
        report = build_report("compare", group, {"images": {"t1": ""}}, kmax=4, radius=2)
        assert report["closed"]["value"] == 0.0
        assert report["empirical"]["estimate"] == 0.0
        assert report["verdict"] == "consistent"

    def test_running_infimum_below_the_closed_form_is_inconsistent(self):
        # honest upper bounds of 1 per row cannot meet a growth rate of 2
        table = GrowthEstimate(("x",), (1, 2, 3), {"x": [1, 1, 1]}, (1, 1, 1), (True,) * 3, "test")
        assert _verdict(ClosedForm(2.0, "test", {}), gr_estimate(table)) == "inconsistent"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(
                [
                    "compare",
                    "--group", fixture_path("sol_ex2.group"),
                    "--endo", fixture_path("sol_ex2.endo"),
                    "--out", str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_report_reproduces_from_echoed_inputs(self):
        report = build_report(
            "closed",
            load_fixture("sol_ex2.group"),
            load_fixture("sol_ex2.endo"),
        )
        again = build_report(
            "closed",
            report["inputs"]["group"],
            report["inputs"]["endo"],
        )
        assert report_json(report) == report_json(again)


class TestBigIntegers:
    def test_compare_klein_beyond_float_range(self, tmp_path):
        # L_1000 = 5^1000 has no float value; its 1000th root still does
        out = tmp_path / "klein.json"
        code = run(
            [
                "compare",
                "--group", fixture_path("klein.group"),
                "--endo", fixture_path("klein.endo"),
                "--kmax", "1000",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        last = report["empirical"]["rows"][-1]
        assert last["k"] == 1000 and last["length"] > 2**1024
        assert abs(last["root"] - 5.0) <= 1e-9
        assert report["verdict"] == "consistent"

    def test_compare_heisenberg_lengths_beyond_machine_ints(self, tmp_path):
        # L_50 exceeds sys.maxsize, so the word length must not go through len()
        out = tmp_path / "heis.json"
        code = run(
            [
                "compare",
                "--group", fixture_path("heis_ex1.group"),
                "--endo", fixture_path("heis_ex1.endo"),
                "--kmax", "50",
                "--out", str(out),
            ]
        )
        assert code == 0
        last = json.loads(out.read_text())["empirical"]["rows"][-1]
        assert last["k"] == 50 and last["length"] > 2**63

    def test_compare_sol_beyond_float_range(self, tmp_path):
        # the torus columns of phi^1000 pass 2^1024; the shift certificate stays in integers
        out = tmp_path / "sol.json"
        code = run(
            [
                "compare",
                "--group", fixture_path("sol_ex2.group"),
                "--endo", fixture_path("sol_ex2.endo"),
                "--kmax", "1000",
                "--radius", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        last = json.loads(out.read_text())["empirical"]["rows"][-1]
        assert last["k"] == 1000 and last["length"] > 2**64

    @pytest.mark.parametrize("command", ["empirical", "compare"])
    def test_lengths_past_the_int_digit_limit(self, command, tmp_path):
        # L_480 = 10^4320 has more digits than CPython prints by default
        group, endo, out = tmp_path / "g.json", tmp_path / "e.json", tmp_path / "out.json"
        group.write_text(json.dumps({"family": "free_abelian", "params": {"rank": 1}}))
        endo.write_text(json.dumps({"matrix": [[10**9]]}))
        argv = [command, "--group", str(group), "--endo", str(endo), "--kmax", "480", "--out", str(out)]
        assert run(argv) == 0
        with unlimited_int_digits():
            last = json.loads(out.read_text())["empirical"]["rows"][-1]
            report = build_report(command, json.loads(group.read_text()), json.loads(endo.read_text()), kmax=480)
            expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert last["k"] == 480 and last["length"] == 10**4320
        assert out.read_text() == expected

    def test_check_witness_past_the_int_digit_limit(self, tmp_path, capsys):
        # a1 -> a1^N, a2 -> a2^N, a3 -> a3 breaks [a1, a2] = a3 by N^2 - 1
        n = 10**2200
        endo = tmp_path / "e.json"
        endo.write_text(json.dumps({"images": {"a1": f"a1^{n}", "a2": f"a2^{n}", "a3": "a3"}}))
        assert run(["check", "--group", fixture_path("heis_ex1.group"), "--endo", str(endo)]) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        with unlimited_int_digits():
            assert witness == repr((0, 0, 1 - n * n))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
    def test_an_oversized_int_in_a_descriptor_is_refused(self, tmp_path, capsys):
        group, endo = tmp_path / "g.json", tmp_path / "e.json"
        group.write_text(json.dumps({"family": "free_abelian", "params": {"rank": 1}}))
        endo.write_text('{"matrix": [[1' + "0" * 4400 + "]]}")
        assert run(["empirical", "--group", str(group), "--endo", str(endo)]) == 2
        assert "limit" in capsys.readouterr().err

    def test_wordlen_bs_huge_a_powers(self):
        # a^N b a^-N = b^(1/2^N): neither the normal form nor its lower bound
        # needs 2^N itself, so the search fits in a child of 256 MiB
        word = "a^10000000000 b a^-10000000000"
        argv = ["wordlen", "--group", fixture_path("bs.group"), "--word", word, "--radius", "3"]
        done = run_child(CLI_CHILD, *argv, limit_mb=256)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["known"] is False

    def test_wordlen_sol_deep_tau_power(self, capsys):
        code = run(["wordlen", "--group", fixture_path("sol_ex1.group"), "--word", "tau^3000"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["word"] == "tau^3000"


class TestExitCodes:
    def test_validation_error(self, tmp_path):
        bad = tmp_path / "bad.group"
        bad.write_text(json.dumps({"family": "sol_lattice", "params": {"A": [[1, 0], [0, 1]]}}))
        assert run(["ball", "--group", str(bad), "--radius", "2"]) == 2

    def test_resource_cap(self):
        assert (
            run(["ball", "--group", fixture_path("bs.group"), "--radius", "12", "--cap", "50"]) == 3
        )

    def test_out_of_memory_is_a_resource_exit(self, tmp_path):
        # a --cap past what fits in a 128 MiB child: the BFS itself ends in a
        # MemoryError, once a traceback with exit 1
        group = tmp_path / "heis_nil2.group"
        group.write_text(json.dumps(HEIS_AS_NIL2))
        argv = ["ball", "--group", str(group), "--radius", "1000", "--cap", "1000000000"]
        done = run_child(CLI_CHILD, *argv, limit_mb=128)
        assert done.returncode == 3, done.stderr
        assert "out of memory" in done.stderr

    def test_wordlen_resource_cap(self, tmp_path, capsys):
        group = tmp_path / "heis_nil2.group"
        group.write_text(json.dumps(HEIS_AS_NIL2))
        args = ["wordlen", "--group", str(group), "--word", "a1^3 a2^3 a3^3"]
        assert run([*args, "--radius", "12", "--cap", "30"]) == 3
        assert "completed radius" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["wordlen", "--group", fixture_path("sol_ex1.group"), "--word", "a1 a1^-1"],
            *(
                [command, "--group", fixture_path("sol_ex1.group"), "--endo", fixture_path("sol_ex1.endo")]
                for command in ("empirical", "compare", "closed", "check")
            ),
        ],
        ids=["wordlen", "sol-empirical", "sol-compare", "sol-closed", "sol-check"],
    )
    def test_negative_radius_is_a_validation_error(self, argv, capsys):
        # none of these reaches a radius check of the library
        assert run([*argv, "--radius", "-1"]) == 2
        assert "radius must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize(
        "argv",
        [
            *(
                [command, "--group", fixture_path(f"{stem}.group"), "--endo", fixture_path(f"{stem}.endo")]
                for command, stem in (
                    ("closed", "sol_ex1"), ("compare", "sol_ex1"), ("compare", "bs"),
                    ("empirical", "heis_ex1"), ("empirical", "counter"), ("closed", "heis_ex1"),
                    ("check", "klein"),
                )
            ),
            ["ball", "--group", fixture_path("klein.group")],
        ],
        ids=["sol-closed", "sol-compare", "bs-compare", "heis-empirical", "counter-empirical",
             "heis-closed", "check", "ball"],
    )
    def test_tolerance_must_be_positive_and_finite(self, argv, tol, tmp_path, capsys):
        # a NaN or infinite tol would be echoed as JSON no parser accepts
        out = tmp_path / "out.json"
        assert run([*argv, "--tol", tol, "--out", str(out)]) == 2
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cap", "-1"], "cap must be nonnegative"),
            (["--kmax", "0"], "kmax must be >= 1"),
            (["--kmax", "-3"], "kmax must be >= 1"),
            (["--kmax", "0", "--cap", "-7"], "cap must be nonnegative"),
        ],
        ids=["cap", "kmax-zero", "kmax-negative", "both"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            *(
                [command, "--group", fixture_path("heis_ex1.group"), "--endo", fixture_path("heis_ex1.endo")]
                for command in ("check", "closed", "empirical", "compare")
            ),
            ["ball", "--group", fixture_path("heis_ex1.group")],
            ["wordlen", "--group", fixture_path("heis_ex1.group"), "--word", "a1 a2"],
            ["distortion", "--group", fixture_path("heis_ex1.group"), "--subgroup", "a3"],
        ],
        ids=["check", "closed", "empirical", "compare", "ball", "wordlen", "distortion"],
    )
    def test_cap_and_kmax_must_be_in_range(self, argv, flags, message, tmp_path, capsys):
        # a negative cap used to exit 3 on a search, and to be echoed into a
        # closed report along with a kmax of 0
        out = tmp_path / "out.json"
        assert run([*argv, "--radius", "4", *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        # the least values in range pass the check
        run([*argv, "--radius", "1", "--kmax", "1", "--cap", "0", "--out", str(out)])
        assert "must be" not in capsys.readouterr().err

    def test_closed_on_bs_is_validation_error(self):
        assert (
            run(["closed", "--group", fixture_path("bs.group"), "--endo", fixture_path("bs.endo")])
            == 2
        )

    def test_invalid_endo(self, tmp_path):
        bad = tmp_path / "bad.endo"
        bad.write_text(json.dumps({"images": {"x": "x^2", "y": "y^2"}}))
        assert (
            run(["closed", "--group", fixture_path("klein.group"), "--endo", str(bad)]) == 2
        )

    def test_parse_error_names_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.group"
        bad.write_text("{not json")
        assert run(["ball", "--group", str(bad), "--radius", "1"]) == 2
        assert "broken.group" in capsys.readouterr().err

    def test_missing_file(self):
        assert run(["ball", "--group", "/nonexistent/g.group", "--radius", "1"]) == 2

    def test_unreachable_tolerance_exits_four_at_once(self, monkeypatch, capsys):
        # no float lies within 1e-300 of the golden ratio squared, so the
        # first precision rung ends the search
        import endogrowth.exactlin as exactlin

        rungs = count_calls(monkeypatch, exactlin, "_inclusion_bounds")
        argv = ["closed", "--group", fixture_path("heis_ex1.group"), "--endo", fixture_path("heis_ex1.endo")]
        assert run([*argv, "--tol", "1e-300"]) == 4
        assert "no float lies within 1e-300" in capsys.readouterr().err
        assert len(rungs) == 1

    def test_certification_failure_maps_to_four(self, tmp_path, monkeypatch):
        import endogrowth.cli as cli_mod
        from endogrowth.errors import CertificationError

        def boom(*args, **kwargs):
            raise CertificationError("forced")

        monkeypatch.setattr(cli_mod, "gr_from_blocks", boom)
        blocks = tmp_path / "blocks.json"
        blocks.write_text(json.dumps([{"weight": 1, "matrix": [[2]]}]))
        assert run(["closed", "--blocks", str(blocks)]) == 4


def parsed(parse, argv):
    """("ok", namespace items) or ("exit", code, stdout, stderr) of one parse.

    Values compare by repr, so that a NaN tol equals itself and 3 differs
    from 3.0.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return ("ok", sorted((key, repr(value)) for key, value in vars(parse(list(argv))).items()))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())


def full_parse(argv):
    return make_parser().parse_args(argv)


GROUP = fixture_path("klein.group")
ENDO = fixture_path("klein.endo")
COMMON = ["--kmax", "20", "--radius", "10", "--cap", "5000", "--tol", "1e-6", "--format", "csv", "--out", "o.json"]
# one argv per command that sets every flag the command takes
COMPLETE_ARGVS = [
    ["check", "--group", GROUP, "--endo", ENDO, *COMMON],
    ["closed", "--group", GROUP, "--endo", ENDO, *COMMON, "--blocks", "blocks.json"],
    ["empirical", "--group", GROUP, "--endo", ENDO, *COMMON],
    ["compare", "--group", GROUP, "--endo", ENDO, *COMMON],
    ["ball", "--group", GROUP, *COMMON],
    ["wordlen", "--group", GROUP, *COMMON, "--word", "x^2 y^-1"],
    ["distortion", "--group", GROUP, *COMMON, "--subgroup", "x"],
]
EDGE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    *([name, "-h"] for name in COMMANDS),
    ["frobnicate"],
    ["check"],
    ["wordlen", "--group", GROUP],
    ["compare", "--group", GROUP, "--endo", GROUP, "--kmax", "x"],
    ["ball", "--group", GROUP, "--format", "xml"],
    ["ball", "--group", GROUP, "--bogus"],
    ["ball", "--group", GROUP, "extra"],
    ["--radius", "2", "ball", "--group", GROUP],
    ["ball", "--gro", GROUP, "--rad", "2"],
    ["ball", "--group", GROUP, "--radius=2"],
    ["ball", "--group", GROUP, "--"],
    ["check", "--he"],
    ["ball", "--group", GROUP, "--radius", "2", "--radius", "3"],
    ["ball", "--group", GROUP, "--radius", "x", "--radius", "3"],
    ["wordlen", "--group", GROUP, "--word", ""],
    ["compare", "--endo", ENDO, "--kmax", "4"],
    ["closed"],
    *COMPLETE_ARGVS,
]
FLAGS = ["--group", "--endo", "--kmax", "--radius", "--cap", "--tol", "--format", "--out",
         "--blocks", "--word", "--subgroup"]
VALUES = ["2", "-1", "x", "1e-3", "json", "csv", "xml", "-x", "", "nan", "inf", "1_0", " 3", "+2", "0x10", "\u0663"]
TOKENS = st.sampled_from([
    *COMMANDS, *FLAGS, *VALUES, "-h", "--help", "--", "--gro", "--rad", "--he", "--k", "--sub", "--wo", "--e",
    "--radius=2", "--kmax=x", "--format=csv",
])
# single tokens, or a flag with a value so that some argvs parse
PIECES = st.one_of(TOKENS.map(lambda t: [t]), st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list))


class TestCommandParser:
    """``parse_args`` behaves as the full parser."""

    @pytest.mark.parametrize("argv", EDGE_ARGVS, ids=" ".join)
    def test_edge_argvs(self, argv):
        assert parsed(parse_args, argv) == parsed(full_parse, argv)

    @settings(max_examples=300, deadline=None)
    @given(head=st.sampled_from([*COMMANDS, "-h", "--radius", "x"]), tail=st.lists(PIECES, max_size=6))
    def test_any_tokens(self, head, tail):
        argv = [head, *(t for piece in tail for t in piece)]
        assert parsed(parse_args, argv) == parsed(full_parse, argv)

    @pytest.mark.parametrize("argv", COMPLETE_ARGVS, ids=lambda argv: argv[0])
    def test_a_plain_argv_builds_no_parser(self, argv, monkeypatch):
        import argparse

        import endogrowth.cli as cli_mod

        expected = full_parse(argv)
        assert None not in vars(expected).values()  # every flag is set

        def refuse(*args, **kwargs):
            raise AssertionError("a parser was built")

        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        monkeypatch.setattr(cli_mod, "make_parser", refuse)
        assert vars(parse_args(argv)) == vars(expected)

    def test_a_plain_run_imports_no_argparse(self, tmp_path, monkeypatch):
        code = (
            "from endogrowth.cli import run\nstatus = run(sys.argv[2:])\n"
            'print(status, [m for m in ("dataclasses", "inspect", "argparse") if m in sys.modules])'
        )
        out = tmp_path / "ball.json"
        done = run_child(code, "ball", "--group", GROUP, "--radius", "3", "--out", str(out), no_site=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"
        assert json.loads(out.read_text())["counts"][-1] > 1
        monkeypatch.setenv("COLUMNS", "80")  # one help width here and in the child
        done = run_child(CLI_CHILD, "-h")
        assert done.returncode == 0, done.stderr
        assert done.stdout == make_parser().format_help()

    def test_module_entry_point_writes_what_run_writes(self, capsys):
        argv = ["compare", "--group", GROUP, "--endo", fixture_path("klein.endo"), "--kmax", "8", "--radius", "4"]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        done = subprocess.run([sys.executable, "-m", "endogrowth.cli", *argv], env=env, capture_output=True, timeout=120)
        assert done.returncode == run(argv) == 0, done.stderr
        assert done.stdout == capsys.readouterr().out.encode()
