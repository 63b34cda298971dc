import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadratura import cli, darboux, expr, gallery, improper
from quadratura.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from quadratura.changevar import SubstitutionProblem
from quadratura.darboux import SamplingConfig
from quadratura.expr import evaluate, parse
from quadratura.gallery import GALLERY
from quadratura.improper import ImproperSchedule, improper_verify
from quadratura.partition import Interval, uniform_partition


IMPROPER = ["improper", "--f", "x", "--phi", "1/(1+t)", "--alpha", "0", "--beta", "inf",
            "--open-alpha"]

# ``reason`` is empty when both sides closed
SUBSTITUTE_KEYS = {"lhs", "rhs", "abs_diff", "tol", "hypotheses", "verdict", "reason"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestIntegrateCommand:
    def test_linear(self, capsys):
        code, out = run(capsys, "integrate", "--f", "x", "--a", "0", "--b", "1",
                        "--tol", "1e-6")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["midpoint"] - 0.5) < 1e-6
        assert payload["upper"] - payload["lower"] <= 1e-6

    def test_rational_hits_pi_over_8(self, capsys):
        code, out = run(capsys, "integrate", "--f", "x/(x^4+1)", "--a", "0",
                        "--b", "1", "--tol", "1e-6")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["midpoint"] - math.pi / 8.0) < 1e-6

    def test_parse_error_exit_code(self, capsys):
        code, _ = run(capsys, "integrate", "--f", "x**", "--a", "0", "--b", "1")
        assert code == EXIT_USAGE

    def test_nonconvergence_exit_code(self, capsys):
        code, out = run(capsys, "integrate", "--f", "x^2", "--a", "0", "--b", "1",
                        "--tol", "1e-13", "--max-cells", "16384")
        assert code == EXIT_NUMERIC
        payload = json.loads(out)
        assert "error" in payload
        assert payload["lower"] <= 1.0 / 3.0 <= payload["upper"]

    def test_overflow_exits_numeric_with_json(self, capsys):
        code, out = run(capsys, "integrate", "--f", "exp(x)", "--a", "0",
                        "--b", "1000")
        assert code == EXIT_NUMERIC
        payload = json.loads(out)
        assert "not finite" in payload["error"]
        assert payload["cells"] == 1024

    def test_negative_float_values(self, capsys):
        code, out = run(capsys, "integrate", "--f", "1", "--a", "-1e3", "--b", "-.5")
        assert code == EXIT_OK
        assert json.loads(out)["midpoint"] == 999.5

    @pytest.mark.parametrize("argv", [
        ["integrate", "--f", "x", "--a", "0", "--b", "1", "--tol"],
        ["substitute", "--f", "x", "--phi", "t", "--alpha", "0", "--beta", "1", "--tol"],
        [*IMPROPER, "--tol"], [*IMPROPER, "--inner-tol"], [*IMPROPER, "--lhs-inner-tol"],
        [*IMPROPER, "--lhs-tol"], ["gallery", "--tol"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
    @pytest.mark.parametrize("value", ["nan", "-1", "0"])
    def test_nan_tolerance_is_usage_error(self, capsys, argv, value):
        # rejected before any work: one error line, nothing on stdout
        with mock.patch.object(darboux, "integrate", side_effect=AssertionError("integrated")):
            code = main([*argv, value])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        option = argv[-1]
        assert captured.err.splitlines() == [
            f"error: argument {option}: tolerance must be positive, got {float(value)}"
        ]

    def test_overflowing_width_is_usage_error(self, capsys):
        code = main(["integrate", "--f", "x", "--a", "-1e308", "--b", "1e308"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "width overflows" in lines[0]

    def test_reversed_orientation(self, capsys):
        code, out = run(capsys, "integrate", "--f", "x", "--a", "1", "--b", "0",
                        "--tol", "1e-5")
        assert code == EXIT_OK
        assert abs(json.loads(out)["midpoint"] + 0.5) < 1e-5

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "est.json"
        code, out = run(capsys, "integrate", "--f", "x", "--a", "0", "--b", "1",
                        "--tol", "1e-4", "--out", str(target))
        assert code == EXIT_OK
        payload = json.loads(target.read_text())
        assert abs(payload["midpoint"] - 0.5) < 1e-4


class TestSubstituteCommand:
    def test_sqrt_substitution(self, capsys):
        code, out = run(capsys, "substitute", "--f", "x/(x^4+1)", "--phi", "sqrt(t)",
                        "--alpha", "0", "--beta", "1", "--tol", "1e-5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "verified"
        mid = 0.5 * (payload["lhs"]["lower"] + payload["lhs"]["upper"])
        assert abs(mid - math.pi / 8.0) < 1e-6

    def test_oscillator_flags(self, capsys):
        code, out = run(capsys, "substitute", "--f", "x^3", "--phi", "t*sin(1/t)",
                        "--alpha", "0", "--beta", repr(2.0 / math.pi),
                        "--tol", "5e-4", "--samples", "64")
        assert code == EXIT_OK
        payload = json.loads(out)
        verdicts = {h["name"]: h["verdict"] for h in payload["hypotheses"]}
        assert verdicts["phi_prime_bounded"] == "fail"
        assert verdicts["product_bounded"] == "pass"

    @pytest.mark.parametrize("phi, alpha", [("abs(0*t)", "0"), ("0^t", "0.5")])
    def test_phi_constant_through_abs_or_a_power(self, capsys, phi, alpha):
        # phi' is 0, not undefined at every sample
        code, out = run(capsys, "substitute", "--f", "x", "--phi", phi,
                        "--alpha", alpha, "--beta", "1")
        payload = json.loads(out)
        assert code == EXIT_OK and payload["verdict"] == "verified"
        assert (payload["rhs"]["lower"], payload["rhs"]["upper"]) == (0.0, 0.0)

    def test_unevaluable_phi_inconclusive(self, capsys):
        code, out = run(capsys, "substitute", "--f", "x^2", "--phi", "sqrt(-1-t^2)",
                        "--alpha", "0", "--beta", "1", "--tol", "1e-5")
        assert code == EXIT_NUMERIC
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_schema(self, capsys):
        code, out = run(capsys, "substitute", "--f", "x^2", "--phi", "t",
                        "--alpha", "0", "--beta", "1", "--tol", "1e-5")
        payload = json.loads(out)
        assert set(payload) == SUBSTITUTE_KEYS
        assert payload["reason"] == ""

    def test_unbounded_image_interval_is_undecidable(self, capsys):
        # phi(800) overflows, so J = [1, inf]: no grid on J has a defined sample
        code, out = run(capsys, "substitute", "--f", "x", "--phi", "exp(t)",
                        "--alpha", "0", "--beta", "800")
        payload = json.loads(out)
        assert set(payload) == SUBSTITUTE_KEYS
        check = next(h for h in payload["hypotheses"] if h["name"] == "f_bounded_on_J")
        assert check["verdict"] == "undecidable-numerically"
        assert check["witness"] == {"unbounded_end": "upper"}
        assert payload["reason"].startswith("lhs: ")
        assert "rhs: sum is not finite" in payload["reason"]


    def test_aliasing_mismatch_is_inconclusive(self, capsys):
        # at 2 samples and 1,024 cells every lhs edge is a zero of f, so the lhs
        # closes near 0 while the rhs closes near 1/2; on 1,025 cells it does not close
        code, out = run(capsys, "substitute", "--f", "sin(1024*pi*x)^2", "--phi", "t^2",
                        "--alpha", "0", "--beta", "1", "--tol", "1e-3")
        payload = json.loads(out)
        assert code == EXIT_NUMERIC and payload["verdict"] == "inconclusive"
        assert payload["reason"].startswith("lhs: the mismatch is not confirmed on 1025 cells")
        assert payload["lhs"]["upper"] < 1e-25  # the accepted brackets are kept
        assert abs(payload["rhs"]["lower"] - 0.5) < 1e-3


class TestImproperCommand:
    def test_proper_integral_matches_integrate(self, capsys):
        code, out = run(capsys, "improper", "--f", "x^2", "--phi", "t",
                        "--alpha", "0", "--beta", "1", "--open-alpha", "--open-beta",
                        "--tol", "1e-3", "--inner-tol", "1e-4")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "verified"
        code2, out2 = run(capsys, "integrate", "--f", "x^2", "--a", "0", "--b", "1",
                          "--tol", "1e-4")
        reference = json.loads(out2)["midpoint"]
        assert abs(payload["lhs"]["value"] - reference) < 2e-3
        assert abs(payload["rhs"]["value"] - reference) < 2e-3

    def test_inverse_sqrt_singularity(self, capsys):
        code, out = run(capsys, "improper", "--f", "1/sqrt(x)", "--phi", "t^2",
                        "--alpha", "0", "--beta", "1", "--open-alpha",
                        "--tol", "1e-2", "--inner-tol", "1e-3",
                        "--lhs-inner-tol", "5e-3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "verified"
        assert abs(payload["rhs"]["value"] - 2.0) < 1e-2
        assert abs(payload["lhs"]["value"] - 2.0) < 1e-2

    @pytest.mark.parametrize("argv, value", [
        (["--phi", "t", "--alpha", "5", "--beta", "inf"], 0.2),
        (["--phi", "1/t", "--alpha", "0", "--beta", "0.2", "--open-alpha"], -0.2),
    ], ids=["t side", "x side"])
    def test_first_cutoff_lies_past_the_finite_end(self, capsys, argv, value):
        # the default cutoff 1.0 lay below the finite end 5 of [5, inf)
        code, out = run(capsys, "improper", "--f", "1/x^2", *argv, "--tol", "1e-3")
        payload = json.loads(out)
        assert code == EXIT_OK and payload["verdict"] == "verified"
        assert abs(payload["rhs"]["value"] - value) < 1e-3
        assert abs(payload["lhs"]["value"] - value) < 1e-3

    def test_requires_open_endpoint(self, capsys):
        code, _ = run(capsys, "improper", "--f", "x", "--phi", "t",
                      "--alpha", "0", "--beta", "1")
        assert code == EXIT_USAGE

    def test_literal_inf_endpoint(self, capsys):
        # phi = 1/(1+t) maps (0, inf) onto (0, 1) with reversed orientation
        code, out = run(capsys, "improper", "--f", "x", "--phi", "1/(1+t)",
                        "--alpha", "0", "--beta", "inf", "--open-alpha",
                        "--tol", "1e-3", "--inner-tol", "1e-5", "--steps", "20")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["image"]["orientation"] == -1.0
        assert abs(payload["rhs"]["value"] + 0.5) < 2e-3
        assert abs(payload["lhs"]["value"] + 0.5) < 2e-3

    def test_subnormal_image_is_inconclusive(self, capsys):
        # the image (0, 5e-324) is one subnormal wide: its default offset rounds to 0
        code, out = run(capsys, "improper", "--f", "x", "--phi", "5e-324/(1+t)",
                        "--alpha", "0", "--beta", "inf", "--open-alpha", "--tol", "1e-3")
        payload = json.loads(out)
        assert code == EXIT_NUMERIC and payload["verdict"] == "inconclusive"
        assert "offset must be positive and finite, got 0.0" in payload["lhs"]["error"]
        assert payload["lhs"]["steps"] == [] and payload["rhs"]["steps"]

    def test_csv_step_table(self, capsys):
        code, out = run(capsys, "improper", "--f", "x^2", "--phi", "t",
                        "--alpha", "0", "--beta", "1", "--open-alpha", "--open-beta",
                        "--tol", "1e-3", "--inner-tol", "1e-4", "--csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "side,step,lo,hi,value,bracket_width,cells"
        assert any(line.startswith("rhs,0,") for line in lines)
        assert any(line.startswith("lhs,") for line in lines)

    def test_negative_infinite_alpha_value(self, capsys):
        # --alpha -inf (not only --alpha=-inf) reads as a value
        code, out = run(capsys, "improper", "--f", "exp(x)", "--phi", "t",
                        "--alpha", "-inf", "--beta", "0", "--tol", "1e-4")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rhs"]["steps"][-1]["lo"] < -10.0
        assert abs(payload["rhs"]["value"] - 1.0) < 1e-4
        assert abs(payload["lhs"]["value"] - 1.0) < 1e-4

    def test_infinite_endpoints_imply_open(self, capsys):
        code, out = run(capsys, "improper", "--f", "1/(x^2+1)", "--phi", "tan(t)",
                        "--alpha", repr(-math.pi / 2), "--beta", repr(math.pi / 2),
                        "--open-alpha", "--open-beta", "--steps", "25",
                        "--offset", repr(math.pi / 4),
                        "--tol", "1e-6", "--inner-tol", "1e-8",
                        "--lhs-inner-tol", "2e-2", "--lhs-cutoff-base", "125",
                        "--lhs-steps", "5", "--lhs-tol", "1.5e-3")
        assert code == EXIT_NUMERIC or code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["rhs"]["value"] - math.pi) < 1e-5


class TestApproxCommand:
    def test_constant(self, capsys, tmp_path):
        target = tmp_path / "c.csv"
        code, out = run(capsys, "approx", "--f", "1", "--a", "0", "--b", "1",
                        "--n", "3", "--out", str(target))
        assert code == EXIT_OK
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_identity_plateaus(self, capsys, tmp_path):
        target = tmp_path / "x.csv"
        code, out = run(capsys, "approx", "--f", "x", "--a", "0", "--b", "1",
                        "--n", "3", "--out", str(target))
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["knots"] == 23
        assert summary["deficit_within_bound"]
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = sorted({float(r[1]) for r in rows})
        assert values == [k / 8 for k in range(8)]

    def test_blocks_evaluated_once(self, capsys, monkeypatch):
        sizes = []
        real = darboux.evaluate_array

        def counting(e, xs):
            sizes.append(np.size(xs))
            return real(e, xs)

        monkeypatch.setattr(darboux, "evaluate_array", counting)
        code, out = run(capsys, "approx", "--f", "x^2", "--a", "0", "--b", "1",
                        "--n", "10", "--samples", "2")
        assert code == EXIT_OK
        # the 1,025 block edges for g and its lower sum, 4,097 points for the bound
        assert sorted(sizes) == [1025, 4097]
        blocks = uniform_partition(Interval(0.0, 1.0), 2**10)
        want = darboux.lower_sum(parse("x^2"), blocks, SamplingConfig(samples_per_cell=2))
        assert json.loads(out)["block_lower_sum"] == want

    def test_resource_cap(self, capsys):
        code, _ = run(capsys, "approx", "--f", "x", "--a", "0", "--b", "1", "--n", "30")
        assert code == EXIT_NUMERIC

    def test_bad_level(self, capsys):
        code, _ = run(capsys, "approx", "--f", "x", "--a", "0", "--b", "1", "--n", "0")
        assert code == EXIT_USAGE

    def test_blocks_below_float_resolution(self, capsys):
        # 32 blocks of width 1/32 at 1e15, where the float spacing is 1/8
        code = main(["approx", "--f", "x", "--a", "1e15", "--b", "1000000000000001",
                     "--n", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == (
            "error: level 5 is too fine for [1000000000000000.0, 1000000000000001.0]:"
            " some of its 2^5 blocks round to zero width\n"
        )

    def test_overflowing_integral_is_an_error(self, capsys, tmp_path):
        # 1e308 over a width of 2: the integral is inf, which no bound can judge
        target = tmp_path / "never.csv"
        code = main(["approx", "--f", "1e308", "--a", "-1", "--b", "1", "--n", "3",
                     "--out", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC and captured.out == ""
        assert captured.err == "error: the integral overflows (inf)\n"
        assert not target.exists()


class TestDiffCommand:
    def test_prints_derivative(self, capsys):
        code, out = run(capsys, "diff", "--f", "t*sin(1/t)")
        assert code == EXIT_OK
        d = parse(out.strip())
        t = 0.37
        want = math.sin(1 / t) - (1 / t) * math.cos(1 / t)
        assert abs(evaluate(d, t) - want) < 1e-12

    def test_json_mode(self, capsys):
        code, out = run(capsys, "diff", "--f", "x^3", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert evaluate(parse(payload["derivative"]), 2.0) == 12.0

    def test_abs_derivative(self, capsys):
        code, out = run(capsys, "diff", "--f", "abs(t)")
        assert code == EXIT_OK and out == "t/abs(t)\n"

    @pytest.mark.parametrize("text", ["abs(0*t)", "abs(t-t)", "0^t"])
    def test_constant_through_abs_or_a_power(self, capsys, text):
        code, out = run(capsys, "diff", "--f", text)
        assert code == EXIT_OK and out == "0\n"

    def test_out_file_without_json(self, capsys, tmp_path):
        target = tmp_path / "d.txt"
        code, out = run(capsys, "diff", "--f", "x^3", "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert target.read_text() == run(capsys, "diff", "--f", "x^3")[1]


class TestGalleryCommand:
    def test_default_run_all_pass(self, capsys):
        code, out = run(capsys, "gallery")
        assert code == EXIT_OK
        assert "3/3 pass" in out

    def test_single_entry_table(self, capsys):
        code, out = run(capsys, "gallery", "--only", "E2")
        assert code == EXIT_OK
        assert "E2" in out
        assert "1/1 pass" in out

    def test_table_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.txt"
        code, out = run(capsys, "gallery", "--only", "E2", "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert target.read_text() == run(capsys, "gallery", "--only", "E2")[1]
        assert target.read_text().endswith("1/1 pass\n")

    def test_json_rows(self, capsys):
        code, out = run(capsys, "gallery", "--only", "E2", "--json")
        assert code == EXIT_OK
        rows = json.loads(out)
        assert rows[0]["id"] == "E2"
        assert rows[0]["pass"] is True
        assert abs(rows[0]["expected"] - math.pi / 8.0) < 1e-15

    def test_unattainable_tolerance_is_inconclusive(self, capsys):
        code, out = run(capsys, "gallery", "--only", "E1", "--tol", "1e-15",
                        "--samples", "2", "--max-cells", "8192", "--json")
        assert code == EXIT_NUMERIC
        rows = json.loads(out)
        assert rows[0]["verdict"] == "inconclusive"
        assert rows[0]["pass"] is False

    def test_unknown_id(self, capsys):
        code, _ = run(capsys, "gallery", "--only", "E9")
        assert code == EXIT_USAGE

    def test_csv_rows(self, capsys):
        code, out = run(capsys, "gallery", "--only", "E2", "--csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("id,lhs,rhs,expected")
        assert lines[1].startswith("E2,")

    def test_expected_values_are_formulas(self):
        expected = {e.id: e.expected for e in GALLERY}
        assert expected == {"E1": "4/pi^4", "E2": "pi/8", "E3": "pi"}
        assert math.isclose(
            gallery.expected_value(GALLERY[0]), 4.0 / math.pi**4, rel_tol=1e-15
        )


def readme_commands(*names: str) -> list[list[str]]:
    """The arguments of the README's ``quadratura NAME`` lines, for each NAME, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()  # join continued lines
    return [shlex.split(line)[1:] for line in lines
            if line.split()[:2] in [["quadratura", name] for name in names]]


class TestGalleryRunsTheCli:
    """Each gallery entry is its command line, run through the CLI's own code."""

    @pytest.mark.parametrize("entry", GALLERY, ids=lambda g: g.id)
    def test_detail_is_the_command_report(self, capsys, entry):
        detail = gallery.run_gallery_entry(entry)["detail"]
        code, out = run(capsys, *entry.argv())
        assert code == EXIT_OK
        assert json.loads(out) == cli._finite_json(detail)

    def test_override_is_the_flag(self, capsys):
        e3 = GALLERY[2]
        detail = gallery.run_gallery_entry(e3, tol_override=1e-3)["detail"]
        _, out = run(capsys, *e3.argv(), "--tol", "0.001")
        assert json.loads(out) == cli._finite_json(detail)

    def test_readme_examples_are_the_entries(self):
        # the CLI section's substitute and improper examples, then the gallery section's E1
        parser = cli.build_parser()
        readme = [vars(parser.parse_args(argv)) for argv in readme_commands("substitute", "improper")]
        e1, e2, e3 = GALLERY
        assert readme == [vars(parser.parse_args(e.argv())) for e in (e2, e3, e1)]

    def test_cli_import_leaves_the_gallery_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for program in ("import sys, quadratura.cli; assert 'quadratura.gallery' not in sys.modules",
                        "import quadratura.gallery"):
            subprocess.run([sys.executable, "-c", program], env=env, timeout=60, check=True)

    def test_module_run_loads_the_cli_once(self, capsys):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        argv = ["gallery", "--only", "E2"]
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "quadratura.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK
        # -X importtime writes one stderr line a module: "import time: self | cumulative | name"
        assert [line for line in proc.stderr.splitlines()
                if line.split("|")[-1].strip() == "quadratura.cli"] == []
        assert run(capsys, *argv) == (EXIT_OK, proc.stdout)

    def test_library_errors_stay_value_errors(self, capsys):
        e2 = GALLERY[1]
        with pytest.raises(ValueError, match="samples_per_cell must be >= 2"):
            gallery.run_gallery_entry(e2, samples_override=1)
        row = gallery.run_gallery_entry(e2, max_cells=0)
        assert row["verdict"] == "inconclusive" and row["pass"] is False
        assert row["detail"]["reason"].startswith("lhs: max_cells must be >= 1")
        assert capsys.readouterr().err == ""


class TestImproperSchedule:
    def test_finite_open_monotone(self):
        s = ImproperSchedule(lo=0.0, hi=1.0, lo_open=True, hi_open=True, offset=0.25)
        lows = [s.truncation(k)[0] for k in range(8)]
        highs = [s.truncation(k)[1] for k in range(8)]
        assert all(a > b for a, b in zip(lows, lows[1:]))
        assert all(a < b for a, b in zip(highs, highs[1:]))
        assert all(0.0 < lo < hi < 1.0 for lo, hi in zip(lows, highs))

    def test_infinite_cutoffs_double(self):
        s = ImproperSchedule(lo=-math.inf, hi=math.inf, cutoff_base=125.0)
        assert s.truncation(0) == (-125.0, 125.0)
        assert s.truncation(4) == (-2000.0, 2000.0)

    def test_default_cutoff_lies_past_a_finite_end(self):
        def schedule(lo, hi, **kwargs):
            s = ImproperSchedule(lo=lo, hi=hi, **kwargs)
            return s.cutoff_base, s.truncation(0)

        assert schedule(0.0, math.inf, lo_open=True) == (1.0, (0.25, 1.0))
        assert schedule(-math.inf, math.inf) == (1.0, (-1.0, 1.0))
        assert schedule(1.0, math.inf) == (2.0, (1.0, 2.0))
        assert schedule(5.0, math.inf) == (8.0, (5.0, 8.0))
        assert schedule(-math.inf, -5.0, hi_open=True) == (8.0, (-8.0, -5.25))
        assert schedule(5.0, math.inf, cutoff_base=1.0)[1] == (5.0, 1.0)  # as given
        with pytest.raises(ValueError, match=r"no finite first cutoff .* \[1e\+308, inf\]"):
            ImproperSchedule(lo=1e308, hi=math.inf)

    def test_steps_run_from_one_to_the_cap(self):
        assert ImproperSchedule(lo=0.0, hi=math.inf, max_steps=improper.MAX_STEPS).max_steps == 1024
        for steps in (0, 1025):
            with pytest.raises(ValueError, match=r"max_steps must be in \[1, 1024\]"):
                ImproperSchedule(lo=0.0, hi=math.inf, max_steps=steps)

    def test_closed_side_fixed(self):
        s = ImproperSchedule(lo=0.0, hi=1.0, lo_open=True, offset=0.25)
        assert all(s.truncation(k)[1] == 1.0 for k in range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            ImproperSchedule(lo=1.0, hi=0.0)
        with pytest.raises(ValueError):
            ImproperSchedule(lo=0.0, hi=1.0, offset=-1.0)

    def test_default_offset_is_a_quarter_of_a_finite_span(self):
        def offset(lo, hi, **kwargs):
            return ImproperSchedule(lo=lo, hi=hi, lo_open=True, **kwargs).offset

        assert offset(0.0, 1.0) == 0.25
        assert offset(-math.pi / 2, math.pi / 2) == math.pi / 4  # gallery E3's, bit for bit
        assert offset(0.0, math.inf) == offset(-math.inf, math.inf) == 0.25
        assert offset(-1e308, 1e308) == 0.25  # the span overflows
        assert offset(0.0, 8.0, offset=0.5) == 0.5
        with pytest.raises(ValueError, match="offset must be positive and finite, got 0.0"):
            offset(0.0, 5e-324)

    @pytest.mark.parametrize("length", ["offset", "cutoff_base"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_lengths_are_finite_and_positive(self, length, value):
        with pytest.raises(ValueError, match=f"{length} must be positive and finite"):
            ImproperSchedule(lo=0.0, hi=1.0, lo_open=True, **{length: value})


IMPROPER_CASES = {
    "x over 1/(1+t) on (0, inf)": (
        "x", "1/(1+t)", dict(lo=0.0, hi=math.inf, lo_open=True, max_steps=20, tol=1e-3)),
    # the product sqrt(t)/2 is undefined at t = 0, so the rhs truncates too
    "x^2 over sqrt(t) on (0, 1)": (
        "x^2", "sqrt(t)", dict(lo=0.0, hi=1.0, lo_open=True, hi_open=True, tol=1e-3)),
}
# The t^-2 tail needs most of each step's budget in the strip toward inf.
TAIL_CASE = "x^2 over t/(1+t) on (0, inf)"
BUDGET_CASES = {
    **IMPROPER_CASES,
    TAIL_CASE: ("x^2", "t/(1+t)", dict(lo=0.0, hi=math.inf, lo_open=True, max_steps=20, tol=1e-3)),
}
INNER_TOL = 1e-4


def improper_report(case: str):
    f, phi, sched = BUDGET_CASES[case]
    schedule = ImproperSchedule(**sched)
    p = SubstitutionProblem(parse(f), parse(phi), *schedule.truncation(0))
    return improper_verify(p, schedule, tol=1e-3, rhs_inner_tol=INNER_TOL,
                           lhs_inner_tol=INNER_TOL, cfg=SamplingConfig(samples_per_cell=2))


def recorded_improper(monkeypatch, case: str):
    """(report, {evaluator: [(a, b, tol) per strip]}), rhs evaluator first."""
    calls: dict = {}
    integrate = darboux.integrate

    def recording(ev, iv, tol, *args, **kwargs):
        calls.setdefault(ev, []).append((iv.a, iv.b, tol))
        return integrate(ev, iv, tol, *args, **kwargs)

    monkeypatch.setattr(improper.darboux, "integrate", recording)
    report = improper_report(case)
    monkeypatch.undo()
    assert report.verdict == "verified"
    return report, calls


@pytest.fixture(params=list(IMPROPER_CASES))
def traced_improper(request, monkeypatch):
    """(report, {evaluator: integrated intervals}), rhs evaluator first."""
    report, calls = recorded_improper(monkeypatch, request.param)
    return report, {ev: [(a, b) for a, b, _ in strips] for ev, strips in calls.items()}


def step_strips(steps: list[dict]):
    """The strips each step integrates, in the runner's order."""
    yield [(steps[0]["lo"], steps[0]["hi"])]
    for prev, step in zip(steps, steps[1:]):
        yield [(a, b) for a, b in ((step["lo"], prev["lo"]), (prev["hi"], step["hi"])) if a < b]


class TestImproperEngine:
    def test_decreasing_phi_orientation(self):
        # phi = -t maps [0, 1) onto (-1, 0]; image endpoints reversed
        p = SubstitutionProblem(parse("x^2"), parse("-t"), 0.0, 1.0)
        schedule = ImproperSchedule(lo=0.0, hi=1.0, hi_open=True, offset=0.25, tol=1e-4)
        report = improper_verify(
            p, schedule, tol=1e-3, rhs_inner_tol=1e-5, lhs_inner_tol=1e-5,
            cfg=SamplingConfig(samples_per_cell=2),
        )
        assert report.orientation == -1.0
        assert report.verdict == "verified"
        assert abs(report.lhs.value + 1.0 / 3.0) < 1e-3
        assert abs(report.rhs.value + 1.0 / 3.0) < 1e-3

    def test_running_bracket_and_cells(self, traced_improper):
        report, _ = traced_improper
        for side in (report.rhs, report.lhs):
            assert len(side.steps) >= 4
            assert all(s["bracket_width"] <= INNER_TOL for s in side.steps)
            cells = [s["cells"] for s in side.steps]
            assert cells == sorted(cells)

    def test_strips_tile_the_last_truncation(self, traced_improper):
        report, calls = traced_improper
        assert len(calls) == 2
        for side, strips in zip((report.rhs, report.lhs), calls.values()):
            strips = sorted(strips)
            assert strips[0][0] == side.steps[-1]["lo"]
            assert strips[-1][1] == side.steps[-1]["hi"]
            assert all(b == a for (_, b), (a, _) in zip(strips, strips[1:]))

    def test_last_step_matches_one_integration(self, traced_improper):
        report, calls = traced_improper
        cfg = SamplingConfig(samples_per_cell=2)
        signs = (1.0, report.orientation)
        for side, ev, sign in zip((report.rhs, report.lhs), calls, signs):
            last = side.steps[-1]
            whole = darboux.integrate(ev, Interval(last["lo"], last["hi"]), INNER_TOL, cfg)
            assert abs(last["value"] - sign * whole.midpoint) <= INNER_TOL

    def test_product_defined_at_both_ends_takes_the_proper_route(self):
        # t^2 is defined at 0 and 1: the rhs is one step over [0, 1]; the x
        # side keeps the caller's open ends
        p = SubstitutionProblem(parse("x^2"), parse("t"), 0.0, 1.0)
        schedule = ImproperSchedule(lo=0.0, hi=1.0, lo_open=True, hi_open=True, tol=1e-3)
        report = improper_verify(p, schedule, tol=1e-3, rhs_inner_tol=INNER_TOL,
                                 lhs_inner_tol=INNER_TOL, cfg=SamplingConfig(samples_per_cell=2))
        assert report.verdict == "verified"
        assert [(s["lo"], s["hi"]) for s in report.rhs.steps] == [(0.0, 1.0)]
        assert report.rhs.converged and report.rhs.steps[0]["bracket_width"] <= INNER_TOL
        assert len(report.lhs.steps) >= 4 and report.lhs.steps[0]["lo"] > report.image_lo
        assert abs(report.rhs.value - 1.0 / 3.0) <= INNER_TOL

    def test_repeatable(self):
        first, second = (improper_report("x over 1/(1+t) on (0, inf)") for _ in range(2))
        assert first.rhs.steps + first.lhs.steps == second.rhs.steps + second.lhs.steps

    @pytest.mark.parametrize("case", list(BUDGET_CASES))
    def test_strip_budgets_carry_the_slack(self, monkeypatch, case):
        # Step k >= 1 gets half of what the running bracket leaves under
        # inner_tol, and a strip passes on what it leaves unused: no strip
        # gets less than the halving schedule inner_tol * 2^-(k+1) / n, and
        # some get more.
        report, calls = recorded_improper(monkeypatch, case)
        for side, strips in zip((report.rhs, report.lhs), calls.values()):
            assert all(s["bracket_width"] < INNER_TOL for s in side.steps)
            strips = iter(strips)
            surplus = []
            for k, expected in enumerate(step_strips(side.steps)):
                for a, b in expected:
                    got_a, got_b, tol = next(strips)
                    assert (got_a, got_b) == (a, b)
                    if k == 0:
                        assert tol == INNER_TOL / 2.0
                    else:
                        halving = INNER_TOL * 2.0 ** -(k + 1) / len(expected)
                        assert tol >= halving
                        surplus.append(tol > halving)
            assert next(strips, None) is None
            assert any(surplus)

    def test_tail_cells(self):
        # x^2 over t/(1+t) on (0, inf) at rhs inner tol 1e-5: the halving
        # schedule swept ~8.3 M rhs cells; carrying the slack needs < 2^21.
        f, phi, sched = BUDGET_CASES[TAIL_CASE]
        schedule = ImproperSchedule(**sched)
        p = SubstitutionProblem(parse(f), parse(phi), *schedule.truncation(0))
        report = improper_verify(p, schedule, tol=1e-3, rhs_inner_tol=1e-5,
                                 lhs_inner_tol=1e-5, cfg=SamplingConfig(samples_per_cell=2))
        assert report.verdict == "verified"
        assert report.rhs.steps[-1]["cells"] <= 2**21
        assert all(s["bracket_width"] < 1e-5 for s in report.rhs.steps)

    def test_overflowing_running_bracket_stops(self):
        # Every strip of 1e305/(1+(x/4000)^2) on (0, inf) is finite, but the
        # running sums pass 1.8e308; the side stops there with a reason
        # instead of budgeting the next strips with NaN.
        schedule = ImproperSchedule(lo=0.0, hi=math.inf, lo_open=True, max_steps=40, tol=1e300)
        p = SubstitutionProblem(parse("1e305/(1+(x/4000)^2)"), parse("t"),
                                *schedule.truncation(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = improper_verify(p, schedule, tol=1e300, rhs_inner_tol=1e306,
                                     lhs_inner_tol=1e306, cfg=SamplingConfig(samples_per_cell=2))
        assert report.verdict == "inconclusive"
        assert report.rhs.error.endswith("running bracket is not finite")
        assert all(math.isfinite(s["bracket_width"]) for s in report.rhs.steps)

    def test_step_value_of_huge_finite_sums_is_finite(self):
        # Both running sums of 1.5e305/(1+(x/1000)^2) stay finite while
        # their sum passes 1.8e308; the step value must not overflow.
        schedule = ImproperSchedule(lo=0.0, hi=math.inf, lo_open=True, max_steps=40, tol=1e300)
        p = SubstitutionProblem(parse("1.5e305/(1+(x/1000)^2)"), parse("t"),
                                *schedule.truncation(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = improper_verify(p, schedule, tol=1e300, rhs_inner_tol=1e306,
                                     lhs_inner_tol=1e306, cfg=SamplingConfig(samples_per_cell=2))
        steps = report.rhs.steps + report.lhs.steps
        assert any(s["value"] > 0.9e308 for s in steps)
        assert all(math.isfinite(s["value"]) for s in steps)


class TestUsage:
    def test_missing_command(self, capsys):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("integrate", "--f", "x", "--a", "0", "--b", "1"),
        ("substitute", "--f", "x", "--phi", "t", "--alpha", "0", "--beta", "1"),
        ("improper", "--f", "x", "--phi", "t", "--alpha", "0", "--beta", "1", "--open-alpha",
         "--tol", "1e-3", "--csv"),
        ("approx", "--f", "x", "--a", "0", "--b", "1", "--n", "3"),
        ("diff", "--f", "x^2"),
        ("gallery", "--only", "E2"),
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_is_one_error_line(self, tmp_path, argv):
        target = tmp_path / "missing" / "report"
        lines = _usage_error_of([*argv, "--out", str(target)])
        assert lines == [f"error: cannot write {target}: No such file or directory"]

    @pytest.mark.parametrize("argv", [
        ("integrate", "--f", "x", "--a", "0"),
        ("integrate", "--f", "--x", "--a", "0", "--b", "1"),
        ("diff", "--f", "x", "--bogus"),
        ("nosuch",),
        (),
    ])
    def test_argparse_errors_are_one_line(self, capsys, argv):
        assert main(list(argv)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err

    def test_closed_stdout_exits_one_silently(self):
        # The read end is closed before the command starts, so its first
        # write fails however small the output is.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "quadratura.cli", "diff", "--f", "x^2", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == b""

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ("substitute", "--f", "x", "--phi", "exp(t)", "--alpha", "0", "--beta", "800"),
        ("integrate", "--f", "x", "--a=-1e308", "--b", "1e308"),
    ])
    def test_no_runtime_warnings_on_stderr(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            main(list(argv))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("integrate", "--f", "-x^2", "--a", "0", "--b", "1"),
        ("substitute", "--f", "-x", "--phi", "-t", "--phi-prime", "-1",
         "--alpha", "0", "--beta", "1"),
        ("improper", "--f", "-x^2", "--phi", "-t", "--alpha", "0", "--beta", "1",
         "--open-beta"),
        ("approx", "--f", "-x+2", "--a", "0", "--b", "1", "--n", "3"),
        ("diff", "--f", "-x^2"),
    ], ids=lambda argv: argv[0])
    def test_formula_starting_with_minus(self, capsys, argv):
        assert main(list(argv)) == EXIT_OK
        assert capsys.readouterr().err == ""


class TestDeepFormulas:
    """A formula of any height is JSON; only a printed derivative is capped."""

    @staticmethod
    def one_error_line(capsys, code):
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        return lines[0]

    def test_integrate_twenty_thousand_terms(self, capsys):
        code, out = run(capsys, "integrate", "--f", "+".join(["x"] * 20000),
                        "--a", "0", "--b", "1", "--tol", "100")
        assert code == EXIT_OK
        assert json.loads(out)["midpoint"] == 10000.0

    def test_phi_at_height_cap(self, capsys):
        phi = "+".join(["t"] * expr.MAX_TREE_HEIGHT)
        code, out = run(capsys, "substitute", "--f", "x", "--phi", phi,
                        "--alpha", "0", "--beta", "1", "--tol", "50")
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "verified"
        code, out = run(capsys, "diff", "--f", phi)
        assert code == EXIT_OK and out.strip() == str(expr.MAX_TREE_HEIGHT)

    @pytest.mark.parametrize("terms", [expr.MAX_TREE_HEIGHT + 1, 20000])
    @pytest.mark.parametrize("command", ["diff"])
    def test_phi_above_height_cap(self, capsys, command, terms):
        line = self.one_error_line(capsys, main([command, "--f", "+".join(["t"] * terms)]))
        assert f"taller than {expr.MAX_TREE_HEIGHT} levels" in line

    @pytest.mark.parametrize("terms", [expr.MAX_TREE_HEIGHT + 1, 20000])
    @pytest.mark.parametrize("command", ["substitute", "improper"])
    def test_phi_of_any_height(self, capsys, command, terms):
        # x over t+...+t: both sides are terms^2/2; a bracket of 1,024 cells is
        # terms^2/1024 wide, so the sides close at their first level
        phi = "+".join(["t"] * terms)
        argv = [command, "--f", "x", "--phi", phi, "--alpha", "0", "--beta", "1",
                "--tol", repr(terms**2 / 256)]
        code, out = run(capsys, *argv, *(["--open-beta"] if command == "improper" else []))
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "verified"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """``json.loads`` that rejects the Infinity, -Infinity and NaN tokens."""
    return json.loads(text, parse_constant=_reject_constant)


class TestStrictJson:
    """Non-finite numbers are the strings "inf", "-inf" and "nan"."""

    @pytest.mark.parametrize("argv, path, value", [
        (("substitute", "--f", "x", "--phi", "exp(t)", "--alpha", "0", "--beta", "800"),
         ("abs_diff",), "nan"),
        (("substitute", "--f", "x", "--phi", "exp(t)", "--alpha", "0", "--beta", "800"),
         ("rhs", "upper"), "inf"),
        (("integrate", "--f", "exp(x)", "--a", "0", "--b", "1000"), ("upper",), "inf"),
        (("integrate", "--f", "-exp(x)", "--a", "0", "--b", "1000"), ("lower",), "-inf"),
    ])
    def test_non_finite_numbers_are_strings(self, capsys, argv, path, value):
        code, out = run(capsys, *argv)
        assert code == EXIT_NUMERIC
        payload = strict_json(out)
        if argv[0] == "substitute":
            assert set(payload) == SUBSTITUTE_KEYS
        for key in path:
            payload = payload[key]
        assert payload == value


_FUNCTIONS = ("sin", "cos", "tan", "sqrt", "atan", "exp", "log", "abs")


def _formulas(var: str = "x"):
    """Small formula texts in ``var`` from the grammar; some are errors (a
    second variable, nesting past the parse-depth cap), some leave every
    domain."""

    def grow(inner):
        return st.one_of(
            st.builds("-{}".format, inner),
            st.builds("{} {} {}".format, inner, st.sampled_from("+-*/^"), inner),
            st.builds("{}({})".format, st.sampled_from(_FUNCTIONS), inner),
            st.builds("({})".format, inner),
        )

    atoms = st.sampled_from((var, var, "2", "0", "0.5", "1e308", "pi", "e", "1/0", "y"))
    small = st.recursive(atoms, grow, max_leaves=6)
    deep = st.builds(lambda n, f: "(" * n + f + ")" * n, st.integers(90, 110), small)
    return st.one_of(small, small, deep)


_ENDPOINTS = st.sampled_from(
    (0.0, 1.0, -1.0, 0.5, 1e308, -1e308, math.inf, -math.inf, math.nan, 5e-324))


def _formula_args(option: str, text: str) -> list[str]:
    # argparse reads a token that begins with '--' as an option
    return [f"{option}={text}"] if text.startswith("--") else [option, text]


class TestCliFuzz:
    """Any formula and any endpoints: strict JSON, or exactly one ``error:`` line."""

    @staticmethod
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC), argv
        assert not caught, (argv, [str(w.message) for w in caught])
        out, err = out.getvalue(), err.getvalue()
        if out:
            assert err == "", argv
            strict_json(out)
        else:
            lines = err.splitlines()
            assert code != EXIT_OK and len(lines) == 1, (argv, err)
            assert lines[0].startswith("error:"), (argv, err)

    @settings(max_examples=150, deadline=None)
    @given(f=_formulas(), a=_ENDPOINTS, b=_ENDPOINTS, same=st.booleans())
    def test_integrate(self, f, a, b, same):
        b = a if same else b
        self.check(["integrate", *_formula_args("--f", f), "--a", repr(a), "--b", repr(b),
                    "--max-cells", "4096"])

    @settings(max_examples=150, deadline=None)
    @given(f=_formulas(), phi=_formulas("t"), a=_ENDPOINTS, b=_ENDPOINTS, same=st.booleans())
    # phi's neighbouring samples near -1e308 differ by more than a double holds
    @example(f="x", phi="t * sin(t)", a=-1e308, b=0.0, same=False)
    def test_substitute(self, f, phi, a, b, same):
        b = a if same else b
        self.check(["substitute", *_formula_args("--f", f), *_formula_args("--phi", phi),
                    "--alpha", repr(a), "--beta", repr(b), "--max-cells", "4096"])

    @settings(max_examples=150, deadline=None)
    @given(f=_formulas())
    def test_diff(self, f):
        self.check(["diff", *_formula_args("--f", f), "--json"])

    @settings(max_examples=300, deadline=None)
    @given(f=_formulas(), phi=_formulas("t"), a=_ENDPOINTS, b=_ENDPOINTS,
           open_ends=st.sampled_from([[], ["--open-alpha"], ["--open-beta"],
                                      ["--open-alpha", "--open-beta"]]),
           steps=st.integers(1, 4))
    # partial sums of +-1e308 overflow both ways: numpy warned "invalid value"
    @example(f="1e308", phi="sin(t)", a=-math.inf, b=1e308, open_ends=[], steps=1)
    def test_improper(self, f, phi, a, b, open_ends, steps):
        self.check(["improper", *_formula_args("--f", f), *_formula_args("--phi", phi),
                    "--alpha", repr(a), "--beta", repr(b), *open_ends,
                    "--steps", str(steps), "--lhs-steps", str(steps), "--max-cells", "4096"])

    @settings(max_examples=500, deadline=None)
    @given(f=_formulas(), a=_ENDPOINTS, b=_ENDPOINTS, same=st.booleans(),
           n=st.integers(-1, 8))
    # reversed ends raised a ValueError traceback; 1e308 overflowed a trapezoid
    @example(f="x", a=1.0, b=0.0, same=False, n=3)
    @example(f="1e308", a=-1.0, b=0.0, same=False, n=3)
    # the integral overflowed: exit 0 with "integral": "inf" and "deficit": "nan"
    @example(f="1e308", a=-1.0, b=1.0, same=False, n=3)
    def test_approx(self, f, a, b, same, n):
        b = a if same else b
        self.check(["approx", *_formula_args("--f", f), "--a", repr(a), "--b", repr(b),
                    "--n", str(n)])


# One valid call per command, for the count options checked below.
_COMMAND_ARGS = {
    "integrate": ["--f", "x", "--a", "0", "--b", "1"],
    "substitute": ["--f", "x", "--phi", "t", "--alpha", "0", "--beta", "1"],
    "improper": ["--f", "x", "--phi", "t", "--alpha", "0", "--beta", "1", "--open-alpha"],
    "approx": ["--f", "x", "--a", "0", "--b", "1", "--n", "3"],
    "gallery": ["--only", "E1"],
}

_OUT_OF_RANGE = [
    (command, option, value)
    for command in _COMMAND_ARGS
    for option, value in (("--samples", "1"), ("--samples", "0"), ("--samples", "8193"),
                          ("--samples", "100000000000"))
] + [
    (command, option, value)
    for command in _COMMAND_ARGS if command != "approx"
    for option, value in (("--max-cells", "0"), ("--max-cells", "-5"),
                          ("--max-cells", "16777217"))
] + [
    ("substitute", "--grid-size", "50"),
    ("substitute", "--grid-size", "-1"),
    ("substitute", "--grid-size", "1048577"),
    ("improper", "--steps", "0"),
    ("improper", "--lhs-steps", "0"),
    # step 1,024's cutoff 2.0**1024 raised OverflowError
    ("improper", "--steps", "1025"),
    ("improper", "--lhs-steps", "1025"),
] + [
    # the lengths of improper's truncation schedules are finite and > 0
    ("improper", option, value)
    for option in ("--offset", "--cutoff-base", "--lhs-offset", "--lhs-cutoff-base")
    for value in ("0", "-1", "nan", "inf")
]

# Each command declares only the options it reads; any other is a usage error.
_UNREAD_OPTIONS = [
    ("integrate", ["--json"]), ("integrate", ["--csv"]),
    ("substitute", ["--json"]), ("substitute", ["--csv"]),
    ("improper", ["--json"]),
    ("approx", ["--tol", "1e-3"]), ("approx", ["--max-cells", "4096"]),
    ("approx", ["--json"]), ("approx", ["--csv"]),
]


def _usage_error_of(argv) -> list[str]:
    """The stderr lines of ``main(argv)``, which must exit 1 with nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == EXIT_USAGE
    assert out.getvalue() == ""
    return err.getvalue().splitlines()


class TestCountOptions:
    """An out-of-range count or length is one ``error:`` line and exit 1, before any work."""

    @pytest.mark.parametrize("command, option, value", _OUT_OF_RANGE)
    def test_out_of_range_is_a_usage_error(self, command, option, value):
        lines = _usage_error_of([command, *_COMMAND_ARGS[command], option, value])
        assert len(lines) == 1 and lines[0].startswith(f"error: argument {option}:"), lines

    @pytest.mark.parametrize("command, option", _UNREAD_OPTIONS)
    def test_unread_option_is_a_usage_error(self, command, option):
        lines = _usage_error_of([command, *_COMMAND_ARGS[command], *option])
        assert len(lines) == 1 and lines[0].startswith("error: unrecognized arguments:"), lines
        assert option[0] in lines[0]

    def test_lowest_valid_counts_run(self, capsys):
        code, out = run(capsys, "integrate", "--f", "x", "--a", "0", "--b", "1",
                        "--samples", "2", "--max-cells", "1", "--tol", "1")
        assert code == EXIT_OK and json.loads(out)["cells"] == 1
        code, out = run(capsys, "substitute", "--f", "x", "--phi", "t", "--alpha", "0",
                        "--beta", "1", "--grid-size", "100", "--tol", "1e-3")
        assert code == EXIT_OK and json.loads(out)["verdict"] == "verified"

    def test_highest_valid_samples_run(self, capsys):
        # one cell's 8,192 samples fill one evaluation block
        code, out = run(capsys, "integrate", "--f", "x", "--a", "0", "--b", "1",
                        "--samples", "8192", "--max-cells", "1", "--tol", "1")
        assert code == EXIT_OK and json.loads(out)["cells"] == 1

    def test_highest_valid_steps_run(self, capsys):
        code, out = run(capsys, "improper", "--f", "1", "--phi", "t", "--alpha", "0",
                        "--beta", "inf", "--tol", "1e-3", "--steps", "1024")
        payload = json.loads(out)
        assert code == EXIT_NUMERIC and payload["verdict"] == "inconclusive"
        assert payload["rhs"]["steps"][-1]["step"] == 1023

    @pytest.mark.parametrize("steps", [0, 1025])
    def test_library_rejects_lhs_steps_out_of_range_before_the_rhs(self, monkeypatch, steps):
        def integrating(*args, **kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr(improper.darboux, "integrate", integrating)
        p = SubstitutionProblem(parse("x"), parse("1/(1+t)"), 1.0, 2.0)
        schedule = ImproperSchedule(lo=0.0, hi=math.inf, lo_open=True, tol=1e-3)
        with pytest.raises(ValueError, match=r"lhs_max_steps must be in \[1, 1024\]"):
            improper_verify(p, schedule, tol=1e-3, rhs_inner_tol=1e-4, lhs_inner_tol=1e-4,
                            lhs_max_steps=steps)

    @pytest.mark.parametrize("lengths", [{"lhs_offset": math.nan}, {"lhs_offset": -1.0},
                                         {"lhs_cutoff_base": 0.0}], ids=str)
    def test_library_rejects_a_bad_lhs_length_before_the_rhs(self, monkeypatch, lengths):
        def integrating(*args, **kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr(improper.darboux, "integrate", integrating)
        p = SubstitutionProblem(parse("x"), parse("1/(1+t)"), 1.0, 2.0)
        schedule = ImproperSchedule(lo=0.0, hi=math.inf, lo_open=True, tol=1e-3)
        (name,) = lengths
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            improper_verify(p, schedule, tol=1e-3, rhs_inner_tol=1e-4, lhs_inner_tol=1e-4,
                            **lengths)

    def test_library_rejects_a_cap_below_one_cell(self):
        with pytest.raises(ValueError, match="max_cells"):
            darboux.integrate(parse("x"), Interval(0.0, 1.0), 1e-3, max_cells=0)
        p = SubstitutionProblem(parse("x"), parse("t"), 0.0, 1.0)
        schedule = ImproperSchedule(lo=0.0, hi=1.0, lo_open=True, hi_open=False,
                                    offset=0.25, cutoff_base=1.0, max_steps=3, tol=1e-3)
        with pytest.raises(ValueError, match="max_cells"):
            improper_verify(p, schedule, tol=1e-3, rhs_inner_tol=1e-4, lhs_inner_tol=1e-4,
                            max_cells=0)
