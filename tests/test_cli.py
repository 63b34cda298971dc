import csv
import json
import math

import numpy as np
import pytest

from quadratura import gallery
from quadratura.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from quadratura.changevar import SubstitutionProblem
from quadratura.darboux import SamplingConfig
from quadratura.expr import evaluate, parse
from quadratura.gallery import GALLERY
from quadratura.improper import ImproperSchedule, improper_verify


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

    def test_unevaluable_phi_inconclusive(self, capsys):
        code, out = run(capsys, "substitute", "--f", "x^2", "--phi", "sqrt(-1-t^2)",
                        "--alpha", "0", "--beta", "1", "--tol", "1e-5")
        assert code == EXIT_NUMERIC
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_schema(self, capsys):
        code, out = run(capsys, "substitute", "--f", "x^2", "--phi", "t",
                        "--alpha", "0", "--beta", "1", "--tol", "1e-5")
        payload = json.loads(out)
        assert set(payload) == {"lhs", "rhs", "abs_diff", "tol", "hypotheses", "verdict"}


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

    def test_csv_step_table(self, capsys):
        code, out = run(capsys, "improper", "--f", "x^2", "--phi", "t",
                        "--alpha", "0", "--beta", "1", "--open-alpha", "--open-beta",
                        "--tol", "1e-3", "--inner-tol", "1e-4", "--csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "side,step,lo,hi,value,bracket_width,cells"
        assert any(line.startswith("rhs,0,") for line in lines)
        assert any(line.startswith("lhs,") for line in lines)

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

    def test_resource_cap(self, capsys):
        code, _ = run(capsys, "approx", "--f", "x", "--a", "0", "--b", "1", "--n", "30")
        assert code == EXIT_NUMERIC

    def test_bad_level(self, capsys):
        code, _ = run(capsys, "approx", "--f", "x", "--a", "0", "--b", "1", "--n", "0")
        assert code == EXIT_USAGE


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

    def test_abs_rejected(self, capsys):
        code, _ = run(capsys, "diff", "--f", "abs(x)")
        assert code == EXIT_USAGE


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

    def test_closed_side_fixed(self):
        s = ImproperSchedule(lo=0.0, hi=1.0, lo_open=True, offset=0.25)
        assert all(s.truncation(k)[1] == 1.0 for k in range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            ImproperSchedule(lo=1.0, hi=0.0)
        with pytest.raises(ValueError):
            ImproperSchedule(lo=0.0, hi=1.0, offset=-1.0)


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


class TestUsage:
    def test_missing_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
