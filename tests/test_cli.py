"""CLI surface: exit codes, JSON schema validation, golden files, round trips."""

import functools
import io
import json
import random
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahweyl import cli, derivations, verify
from ahweyl.centerpoly import CenterPoly
from ahweyl.cli import main
from ahweyl.context import AhContext, weyl_context
from ahweyl.derivations import CenterDerivation, DecompCharP, DecompCharZero, is_inner
from ahweyl.fields import FieldSpec
from ahweyl.hochschild import (
    HH1CharPReport,
    HH1ReportChar0,
    NormalizerQuotientLevel,
    freeness_and_module_report_charp,
    structure_report_char0,
)
from ahweyl.parse import parse_factors, parse_poly
from ahweyl.poly import Poly, QPoly
from ahweyl.record import Record
from ahweyl.verify import PropertyResult, random_derivation, random_poly, random_weyl
from ahweyl.weyl import WeylElement

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "ahweyl" / "schema.json").read_text()
)


def run_cli(argv, stdin_text="", capsys=None):
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(argv)
    finally:
        sys.stdin = old_stdin
    out, err = capsys.readouterr()
    return code, out, err


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = run_cli(["analyze", "--h", "x", "--char", "0"], capsys=capsys)
        assert code == 0 and err == ""

    def test_domain_error_parse(self, capsys):
        code, out, err = run_cli(["analyze", "--h", "x +", "--char", "0"], capsys=capsys)
        assert code == 1
        assert "parse error" in err

    def test_parse_error_at_the_end_of_input(self, capsys):
        code, out, err = run_cli(["analyze", "--h", "", "--char", "3"], capsys=capsys)
        assert code == 1 and out == ""
        assert err == "error (parse error): unexpected end of input (at position 0)\n"

    @pytest.mark.parametrize(
        "h,char,message",
        [
            ("1/3*x", "3", "denominator 3 of 1/3 is divisible by the characteristic 3"),
            ("3/3*x^2 + 1", "3", "denominator 3 of 3/3 is divisible by the characteristic 3"),
            ("x + 1/0", "0", "zero denominator"),
        ],
    )
    def test_parse_error_bad_denominator(self, h, char, message, capsys):
        code, out, err = run_cli(["analyze", "--h", h, "--char", char], capsys=capsys)
        assert code == 1 and out == ""
        assert "parse error" in err and message in err

    def test_parse_error_degree_over_the_limit(self, capsys):
        code, out, err = run_cli(["analyze", "--h", "x^1000000000", "--char", "0"], capsys=capsys)
        assert code == 1 and out == ""
        assert err == (
            "error (parse error): degree 1000000000 exceeds the limit 1000000 (at position 2)\n"
        )

    def test_parse_error_dense_size_over_the_limit(self, capsys):
        stdin = json.dumps({"Dx": "x^1000000*(1+y) + y^2", "Dyhat": "0"})
        code, out, err = run_cli(
            ["classify", "--h", "x^2+1", "--char", "3"], stdin_text=stdin, capsys=capsys
        )
        assert code == 1 and out == ""
        assert err == (
            "error (parse error): the value takes 2000003 coefficient slots, over the limit"
            " 2000002 (at position 18)\n"
        )

    @pytest.mark.parametrize("char", ["0", "10007"])
    def test_parse_error_reordering_product_over_the_limit(self, char, capsys):
        # 19 characters whose product is refused before it is formed
        argv = ["normalizer", "--h", "x", "--char", char, "--element", "y^1000000*x^1000000"]
        code, out, err = run_cli(argv, capsys=capsys)
        assert code == 1 and out == ""
        assert err == (
            "error (parse error): a reordering product may take more coefficient slots than the"
            " limit 2000002 (at position 9)\n"
        )

    @pytest.mark.parametrize(
        "h,position", [("2^14000*2^14000*x", 7), ("(x+2^14000)^2", 12)]
    )
    def test_parse_error_coefficient_over_the_digit_limit(self, h, position, capsys):
        code, out, err = run_cli(["analyze", "--h", h, "--char", "0"], capsys=capsys)
        assert code == 1 and out == ""
        assert err == (
            "error (parse error): a coefficient would take more than 4300 digits"
            f" (at position {position})\n"
        )

    @pytest.mark.parametrize(
        "argv,stdin_text",
        [
            # phi(yhat^2) carries g^2 = 10^5000
            (["exp-aut", "--h", "x", "--char", "0", "--g", "10^2500", "--element", "x^2*y^2"], ""),
            # the bracket's coefficients carry 3^16000
            (
                ["bracket", "--h", "x^2", "--char", "0"],
                json.dumps(
                    {
                        "left": {"Dx": "-3^8000*x^2", "Dyhat": "-3^8000*2*x^2"},
                        "right": {"Dx": "0", "Dyhat": "3^8000*x^3"},
                    }
                ),
            ),
        ],
    )
    def test_domain_error_computed_coefficient_over_the_digit_limit(self, argv, stdin_text, capsys):
        for output in ("text", "json"):
            code, out, err = run_cli([*argv, "--output", output], stdin_text=stdin_text, capsys=capsys)
            assert code == 1 and out == ""
            assert err == (
                "error (domain error): a computed coefficient takes more than 4300 digits,"
                " the limit for printing\n"
            )

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--h", "x^\u00b2"], "unexpected character '\u00b2' (at position 2)"),
            (["--h", "2/\u00b3*x"], "expected digits after '/' (at position 2)"),
            (["--h", "x^2", "--factors", "x^\u00b2"], "unexpected character '\u00b2' (at position 2)"),
        ],
    )
    def test_parse_error_non_decimal_digit(self, extra, message, capsys):
        code, out, err = run_cli(["analyze", "--char", "0", *extra], capsys=capsys)
        assert code == 1 and out == ""
        assert err == f"error (parse error): {message}\n"

    @pytest.mark.parametrize(
        "factors,message",
        [
            ("x, y", "unknown name 'y' (at position 3)"),
            ("x,x^2^", "unexpected trailing '^' (at position 5)"),
            ("x^2,  (x+1", "expected ')' (at position 10)"),
            ("x,x^" + "9" * 4301, "number literal of 4301 digits exceeds the limit 4300 (at position 4)"),
        ],
        ids=["second-chunk", "trailing-caret", "leading-spaces", "multiplicity-literal"],
    )
    def test_parse_error_position_counts_in_the_whole_factor_list(self, factors, message, capsys):
        code, out, err = run_cli(
            ["analyze", "--h", "x^3", "--char", "0", "--factors", factors], capsys=capsys
        )
        assert code == 1 and out == ""
        assert err == f"error (parse error): {message}\n"

    def test_domain_error_negative_degree_bound(self, capsys):
        code, out, err = run_cli(
            ["analyze", "--h", "x^2+1", "--char", "3", "--degree-bound", "-4"],
            capsys=capsys,
        )
        assert code == 1 and out == ""
        assert "--degree-bound must be >= 0, got -4" in err

    def test_domain_error_factor_list(self, capsys):
        code, out, err = run_cli(
            ["analyze", "--h", "x^2", "--char", "0", "--factors", "x^3"], capsys=capsys
        )
        assert code == 1
        assert "factor list error" in err

    def test_domain_error_membership(self, capsys):
        code, out, err = run_cli(
            ["exp-aut", "--h", "x", "--char", "0", "--g", "1", "--element", "y"],
            capsys=capsys,
        )
        assert code == 1 and out == ""
        assert err == (
            "error (membership error): y-degree 1 coefficient not divisible by h^1: not in A_h\n"
        )

    def test_domain_error_zero_h(self, capsys):
        code, out, err = run_cli(["analyze", "--h", "0", "--char", "0"], capsys=capsys)
        assert code == 1

    def test_domain_error_bad_char(self, capsys):
        code, out, err = run_cli(["analyze", "--h", "x", "--char", "4"], capsys=capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "char,message",
        [
            # the product of the two primes after 2^31: trial division took
            # longer than 20 s to reject it
            ("4611686138686472687", "characteristic must be 0 or prime"),
            ("3317044064679887385961981", "too large"),
            # zeta = h^p y^p: h(x^p) alone would take 2p + 1 coefficients
            ("1000000007", "degree 2000000014 in x or y, over the limit 1000000"),
        ],
    )
    def test_domain_error_large_char(self, char, message, capsys):
        code, out, err = run_cli(["analyze", "--h", "x^2", "--char", char], capsys=capsys)
        assert code == 1 and out == ""
        assert err.startswith("error (domain error): ") and message in err

    def test_zeta_degree_under_the_limit_is_accepted(self, capsys):
        # zeta has x-degree 200006, the figure parse.MAX_DEGREE was sized on
        code, out, err = run_cli(["center", "--h", "x^2+1", "--char", "100003"], capsys=capsys)
        assert (code, err) == (0, "")
        assert "zeta: " in out

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["analyze", "--char", "0"])
        assert e.value.code == 2
        capsys.readouterr()

    def test_bad_json_stdin(self, capsys):
        code, out, err = run_cli(
            ["classify", "--h", "x", "--char", "0"], stdin_text="{oops", capsys=capsys
        )
        assert code == 1
        assert "invalid JSON" in err

    def test_bracket_without_right(self, capsys):
        stdin = json.dumps({"left": {"Dx": "0", "Dyhat": "1"}})
        code, out, err = run_cli(
            ["bracket", "--h", "x", "--char", "0"], stdin_text=stdin, capsys=capsys
        )
        assert (code, out) == (1, "")
        assert err == 'error (domain error): bracket JSON must be {"left": {...}, "right": {...}}\n'

    @pytest.mark.parametrize("value", [0, None])
    @pytest.mark.parametrize("command", ["classify", "bracket"])
    def test_non_string_derivation_part(self, command, value, capsys):
        derivation = {"Dx": value, "Dyhat": "1"}
        if command == "bracket":
            derivation = {"left": {"Dx": "0", "Dyhat": "1"}, "right": derivation}
        code, out, err = run_cli(
            [command, "--h", "x", "--char", "0"], stdin_text=json.dumps(derivation), capsys=capsys
        )
        assert (code, out) == (1, "")
        assert err == 'error (domain error): derivation JSON must be {"Dx": "...", "Dyhat": "..."}\n'


# an inner derivation of A_h at h = x^2+1 over GF(3), with a y^3 term
_X2P1_CHAR3_DERIVATION = (
    '{"Dx": "x^2 + x^4", "Dyhat": "2*x^2 + 2*x^4 + (x + 2*x^3 + x^5)*y'
    ' + (2 + 2*x^2 + 2*x^6 + 2*x^8)*y^3"}'
)

_BRACKET_INPUT = json.dumps(
    {"left": {"Dx": "0", "Dyhat": "1"}, "right": {"Dx": "x", "Dyhat": "2*x + x^2*y"}}
)


@pytest.mark.parametrize(
    "argv,stdin_text",
    [
        (["classify", "--h", "x", "--char", "0"], '{"Dx": "0", "Dyhat": "1"}'),
        (["classify", "--h", "x^2", "--char", "0"], '{"Dx": "0", "Dyhat": "x^2"}'),
        (["classify", "--h", "x^2", "--char", "3"], '{"Dx": "0", "Dyhat": "2*x^6*y^3"}'),
        (
            ["classify", "--h", "x^2+1", "--char", "3"],
            _X2P1_CHAR3_DERIVATION,
        ),
        (["bracket", "--h", "x^2", "--char", "0"], _BRACKET_INPUT),
        (["bracket", "--h", "x^2", "--char", "3"], _BRACKET_INPUT),
    ],
)
def test_one_decomposition_per_classified_derivation(argv, stdin_text, monkeypatch, capsys):
    # is_inner's verdict carries the decomposition the CLI prints; the names
    # are also patched in cli, so that a decomposition made there counts too
    calls = []
    for name in ("decompose_Ah_char0", "decompose_Ah_charp"):
        original = getattr(derivations, name)

        def counted(d, original=original):
            calls.append(d)
            return original(d)

        monkeypatch.setattr(derivations, name, counted)
        monkeypatch.setattr(cli, name, counted, raising=False)
    code, out, _ = run_cli(argv + ["--output", "json"], stdin_text=stdin_text, capsys=capsys)
    assert code == 0
    assert json.loads(out)["valid"] is True
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv,stdin_text",
    [
        (["classify", "--h", "x^2", "--char", "0"], '{"Dx": "0", "Dyhat": "x^2"}'),
        (["classify", "--h", "x^2", "--char", "3"], '{"Dx": "0", "Dyhat": "2*x^6*y^3"}'),
        (
            ["classify", "--h", "x^2+1", "--char", "3"],
            _X2P1_CHAR3_DERIVATION,
        ),
    ],
)
def test_classify_validates_its_input_once(argv, stdin_text, monkeypatch, capsys):
    # make_derivation validates the parsed derivation, and the decomposition
    # that is_inner makes of it reads that cached verdict
    checked, classified = [], []
    original_defect, original_is_inner = derivations.Derivation.criterion_defect, cli.is_inner

    def counted_defect(d):
        checked.append(d)
        return original_defect(d)

    def recorded_is_inner(d):
        classified.append(d)
        return original_is_inner(d)

    monkeypatch.setattr(derivations.Derivation, "criterion_defect", counted_defect)
    monkeypatch.setattr(cli, "is_inner", recorded_is_inner)
    code, out, _ = run_cli(argv + ["--output", "json"], stdin_text=stdin_text, capsys=capsys)
    assert code == 0 and json.loads(out)["valid"] is True
    (d,) = classified
    assert sum(c is d for c in checked) == 1


# D_g + ad(n) over h = -3/2*x^2*(x+1)^3, g of degree 3 and n in the
# normalizer, as perfbench's char0-classes draws them
_FRAC_LC_DX = "3*x + 5*x^2 + 2*x^3 + (-6*x^3 - 24*x^4 - 36*x^5 - 24*x^6 - 6*x^7)*y"
_FRAC_LC_DYHAT_TAIL = (
    " + (-9/2*x^2 + 291*x^4 + 1557*x^5 + 7497/2*x^6 + 4989*x^7 + 3807*x^8 + 1566*x^9"
    " + 270*x^10)*y + (9/2*x^4 + 81/2*x^5 + 297/2*x^6 + 585/2*x^7 + 675/2*x^8"
    " + 459/2*x^9 + 171/2*x^10 + 27/2*x^11)*y^2"
)
BRACKET_FRAC_LC_PAIR = {
    "left": {
        "Dx": _FRAC_LC_DX,
        "Dyhat": "-2 - 8*x - 195/2*x^2 - 463/2*x^3 + 477/2*x^4 + 3615/2*x^5 + 3294*x^6"
        " + 2997*x^7 + 1404*x^8 + 270*x^9" + _FRAC_LC_DYHAT_TAIL,
    },
    "right": {
        "Dx": _FRAC_LC_DX,
        "Dyhat": "2 - 9*x - 93*x^2 - 229*x^3 + 216*x^4 + 1776*x^5 + 3282*x^6"
        " + 2997*x^7 + 1404*x^8 + 270*x^9" + _FRAC_LC_DYHAT_TAIL,
    },
}


# (golden text file, argv, stdin); each text golden has a JSON twin, the
# same name with .json, from the same command with --output json
GOLDEN_CASES = [
    (
        "analyze_x2_char0.txt",
        ["analyze", "--h", "x^2", "--char", "0", "--factors", "x^2"],
        "",
    ),
    ("analyze_1_char0.txt", ["analyze", "--h", "1", "--char", "0"], ""),
    ("analyze_x_char3.txt", ["analyze", "--h", "x", "--char", "3"], ""),
    (
        "classify_D1_x_char0.txt",
        ["classify", "--h", "x", "--char", "0"],
        '{"Dx": "0", "Dyhat": "1"}',
    ),
    (
        "analyze_x3x1sq_char5.txt",
        ["analyze", "--h", "x^3*(x+1)^2", "--char", "5"],
        "",
    ),
    (
        "classify_x2p1_char3.txt",
        ["classify", "--h", "x^2+1", "--char", "3"],
        _X2P1_CHAR3_DERIVATION,
    ),
    (
        "classify_x2_char3.txt",
        ["classify", "--h", "x^2", "--char", "3"],
        '{"Dx": "0", "Dyhat": "2*x^6*y^3"}',
    ),
    (
        "bracket_frac_lc_char0.txt",
        ["bracket", "--h=-3/2*x^2*(x+1)^3", "--char", "0"],
        json.dumps(BRACKET_FRAC_LC_PAIR),
    ),
    (
        "exp_aut_x2_char0.txt",
        ["exp-aut", "--h", "x^2", "--char", "0", "--g", "x+1", "--element", "x^2*y"],
        "",
    ),
    (
        "exp_aut_x3x1sq_char5.txt",
        [
            "exp-aut", "--h", "x^3*(x+1)^2", "--char", "5", "--g", "x^2+2",
            "--element", "(y*(x^3*(x+1)^2) + x)^7",
        ],
        "",
    ),
    (
        "normalizer_xy_x2p1_char3.txt",
        ["normalizer", "--h", "x^2+1", "--char", "3", "--element", "x*y"],
        "",
    ),
    (
        "normalizer_y_x2p1_char3.txt",
        ["normalizer", "--h", "x^2+1", "--char", "3", "--element", "y"],
        "",
    ),
    (
        "center_x3_x2p1_char3.txt",
        ["center", "--h", "x^2+1", "--char", "3", "--element", "x^3"],
        "",
    ),
    ("center_3_x2_char0.txt", ["center", "--h", "x^2", "--char", "0", "--element", "3"], ""),
    ("verify_x_char2.txt", ["verify", "--h", "x", "--char", "2", "--seed", "3"], ""),
    (
        "classify_invalid_x2_char0.txt",
        ["classify", "--h", "x^2", "--char", "0"],
        '{"Dx": "y", "Dyhat": "1"}',
    ),
    (
        "bracket_D1_x2p1_char3.txt",
        ["bracket", "--h", "x^2+1", "--char", "3"],
        '{"left": {"Dx": "0", "Dyhat": "1"}, "right": ' + _X2P1_CHAR3_DERIVATION + "}",
    ),
]


class TestGolden:
    @pytest.mark.parametrize("name,argv,stdin_text", GOLDEN_CASES)
    def test_byte_for_byte(self, name, argv, stdin_text, capsys):
        code, out, err = run_cli(argv, stdin_text=stdin_text, capsys=capsys)
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("name,argv,stdin_text", GOLDEN_CASES)
    def test_json_twin(self, name, argv, stdin_text, capsys):
        code, out, err = run_cli([*argv, "--output", "json"], stdin_text=stdin_text, capsys=capsys)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).with_suffix(".json").read_text()
        validate(json.loads(out))


# passes of the closed form K of the yhat side (`AhContext._add_d_yhat`) on
# the classify and bracket goldens: one per derivation whose W is read
# (validate, or the bracket's derivation) or recorded (ad of the witness),
# which the criterion, apply, D(zeta) and the peel of ad_b then share
K_PASSES = {
    "classify_D1_x_char0.txt": 1,
    "classify_x2p1_char3.txt": 2,
    "classify_x2_char3.txt": 1,
    "bracket_frac_lc_char0.txt": 3,
    "classify_invalid_x2_char0.txt": 1,
    "bracket_D1_x2p1_char3.txt": 4,
}


@pytest.mark.parametrize("name,argv,stdin_text", [c for c in GOLDEN_CASES if c[0] in K_PASSES])
def test_goldens_read_each_w_once(name, argv, stdin_text, monkeypatch, capsys):
    passes = []
    original = AhContext._add_d_yhat

    def counted(ctx, w, u, sign):
        passes.append(sign)
        return original(ctx, w, u, sign)

    monkeypatch.setattr(AhContext, "_add_d_yhat", counted)
    code, out, _ = run_cli(argv, stdin_text=stdin_text, capsys=capsys)
    assert (code, out) == (0, (GOLDEN / name).read_text())
    assert len(passes) == K_PASSES[name]


_CHAR0_ANALYZE = [
    argv
    for _, argv, _ in GOLDEN_CASES
    if argv[0] == "analyze" and argv[argv.index("--char") + 1] == "0"
] + [["analyze", "--h", "x^2*(x-1)^3", "--char", "0", "--factors", "(x-1)^3,x^2"]]


@pytest.mark.parametrize("argv", _CHAR0_ANALYZE, ids=lambda argv: argv[2])
def test_analyze_char0_without_factors_differs_only_in_prime_fields(argv, capsys):
    # the report without --factors equals the report with a verified list
    # (implied empty for h = 1) on every field but the two that name primes
    def report(args):
        code, out, err = run_cli([*args, "--output", "json"], capsys=capsys)
        assert (code, err) == (0, "")
        return json.loads(out)

    listed = report(argv)
    bare = report(argv[: argv.index("--factors")] if "--factors" in argv else argv)
    for field in ("multiplicity_gt1_primes", "witt_summand_count"):
        assert listed["hh1"].pop(field) is not None
        without = bare["hh1"].pop(field)
        if "--factors" in argv:
            assert without is None
    assert bare == listed


class TestTextOutput:
    @pytest.mark.parametrize(
        "argv,stdin_text,expected",
        [
            (
                ["bracket", "--h", "x^2", "--char", "0"],
                '{"left": {"Dx": "0", "Dyhat": "1"}, "right": {"Dx": "x", "Dyhat": "2*x + x^2*y"}}',
                "h: x^2\n"
                "characteristic: 0\n"
                "bracket D(x): 0\n"
                "bracket D(yhat): 1\n"
                "classification of the bracket:\n"
                "  valid: yes\n"
                "  D part: D_[1]\n"
                "  inner witness: 0\n"
                "  verdict: outer (nonzero class components in the D/ad_{r a_n} slots)\n",
            ),
            (
                ["bracket", "--h", "x", "--char", "3"],
                '{"left": {"Dx": "0", "Dyhat": "x"}, "right": {"Dx": "x", "Dyhat": "0"}}',
                "h: x\n"
                "characteristic: 3\n"
                "bracket D(x): 0\n"
                "bracket D(yhat): 2*x\n"
                "classification of the bracket:\n"
                "  valid: yes\n"
                "  u (coefficient of D_qbreve): 0\n"
                "  v (coefficient of bhat_f): 0\n"
                "  s (complement of im delta in Theta): 0\n"
                "  normalizer part: 0\n"
                "  inner witness: x\n"
                "  verdict: inner, witness x\n",
            ),
            (
                ["bracket", "--h", "x", "--char", "3"],
                '{"left": {"Dx": "0", "Dyhat": "x"}, "right": {"Dx": "x^2", "Dyhat": "x^3*y"}}',
                "h: x\n"
                "characteristic: 3\n"
                "valid: no (right: criterion defect [v,x] + [yhat,u] - d(h) = x^2 + x^3)\n",
            ),
            (
                ["normalizer", "--h", "x^2", "--char", "0", "--element", "y"],
                "",
                "h: x^2\n"
                "element: y\n"
                "in A_h: no\n"
                "in normalizer: no\n"
                "first failing term: y-degree 1 (pi_h * h^0 does not divide the y^1 coefficient)\n",
            ),
            (
                ["normalizer", "--h", "x^2", "--char", "3", "--element", "x*y + x^5*y^3"],
                "",
                "h: x^2\nelement: x*y + x^5*y^3\nin A_h: no\nin normalizer: yes\n",
            ),
            (
                ["center", "--h", "x", "--char", "2", "--element", "x^2*y^2 + x^2"],
                "",
                "h: x\n"
                "Z(A_h) = F[t1, t2] with t1 = x^p, t2 = zeta\n"
                "zeta: x^2*y^2\n"
                "zeta_hat_coeff: 1\n"
                "hbar: 1\n"
                "qbreve: 1\n"
                "element coordinates: t1 + t2\n",
            ),
            (
                ["center", "--h", "x", "--char", "2", "--element", "x*y"],
                "",
                "h: x\n"
                "Z(A_h) = F[t1, t2] with t1 = x^p, t2 = zeta\n"
                "zeta: x^2*y^2\n"
                "zeta_hat_coeff: 1\n"
                "hbar: 1\n"
                "qbreve: 1\n"
                "element: not central (y-degree 1 is not a multiple of 2)\n",
            ),
            (
                ["center", "--h", "x^2", "--char", "0"],
                "",
                "h: x^2\nZ(A_h) = F (scalars only)\n",
            ),
            (
                ["exp-aut", "--h", "x^2", "--char", "0", "--g", "x+1", "--element", "x^2*y"],
                "",
                "h: x^2\n"
                "g: 1 + x\n"
                "phi_g(x): x\n"
                "phi_g(yhat): 1 + 3*x + x^2*y\n"
                "phi_g(element): 1 + x + x^2*y\n",
            ),
            (
                # without --factors, only the fields that name primes are missing
                ["analyze", "--h", "x^3", "--char", "0"],
                "",
                "h: x^3\n"
                "characteristic: 0\n"
                "pi_h: x\n"
                "varrho_h: 1\n"
                "h/pi_h: x^2\n"
                "HH1 structure (characteristic 0):\n"
                "  dim Z(HH1): 1\n"
                "  center basis: D_[x^2]\n"
                "  HH1 trivial: no\n"
                "  abelian: no\n"
                "  primes with multiplicity > 1: (needs --factors)\n"
                "  nilpotent ideal trivial: no\n"
                "  nilpotency index bound: 2\n"
                "  Witt summands: (needs --factors)\n",
            ),
        ],
    )
    def test_text(self, argv, stdin_text, expected, capsys):
        code, out, err = run_cli(argv, stdin_text=stdin_text, capsys=capsys)
        assert code == 0 and err == ""
        assert out == expected


@pytest.mark.parametrize(
    "element,reason",
    [
        ("x*y", "y-degree 1 is not a multiple of 2"),
        ("x*y^2", "y^2 coefficient not divisible by h^2"),
        ("x^3*y^2", "y^2 coordinate x is not in F[x^p]"),
        # the coordinates are tested in order of y-degree: y^0 fails first
        ("x + y^2", "y^0 coordinate x is not in F[x^p]"),
    ],
)
def test_center_element_not_central_reasons(element, reason, capsys):
    argv = ["center", "--h", "x", "--char", "2", "--element", element]
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == f"element: not central ({reason})"
    code, out, err = run_cli([*argv, "--output", "json"], capsys=capsys)
    payload = json.loads(out)
    assert payload["element_coords"] is None
    assert payload["not_central_reason"] == reason


@pytest.mark.parametrize(
    "element,last",
    [
        ("x", "element: not central (not a scalar)"),
        ("y", "element: not central (not a scalar)"),
        ("0", "element coordinates: 0"),
    ],
)
def test_center_over_q_takes_scalars_only(element, last, capsys):
    argv = ["center", "--h", "x^2", "--char", "0", "--element", element]
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 0 and err == ""
    assert out == f"h: x^2\nZ(A_h) = F (scalars only)\n{last}\n"


def readme_block(section: str, language: str) -> str:
    """The first fenced `language` block after the README heading `section`."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    after = text.split(f"\n## {section}\n", 1)[1]
    return after.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_commands():
    """Each `ahweyl ...` command of the README's command-line examples, as
    (argv, stdin): continued lines joined, a quoted text that spans lines
    kept whole, and the text of an `echo ... |` in front taken as stdin."""
    commands, pending = [], ""
    for line in readme_block("Command line", "sh").splitlines():
        if not pending and (not line.strip() or line.lstrip().startswith("#")):
            continue
        pending += line + "\n"
        if pending.count("'") % 2 or pending.endswith("\\\n"):
            continue
        words = shlex.split(pending.replace("\\\n", " "))
        pending, stdin = "", ""
        if words[0] == "echo":
            stdin, bar, words = words[1], words[2], words[3:]
            assert bar == "|"
        assert words[0] == "ahweyl"
        commands.append((words[1:], stdin))
    assert not pending
    return commands


@pytest.mark.parametrize("argv,stdin_text", readme_commands())
def test_readme_commands_run(argv, stdin_text, capsys):
    code, out, err = run_cli(argv, stdin_text=stdin_text, capsys=capsys)
    assert code == 0, err
    assert out


def test_readme_library_example_runs(capsys):
    exec(compile(readme_block("Library example", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "D_[1]"


class TestJsonSchema:
    def test_analyze_char0(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--h", "x^2", "--char", "0", "--factors", "x^2", "--output", "json"],
            capsys=capsys,
        )
        assert code == 0
        validate(json.loads(out))

    def test_analyze_charp(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--h", "x^2", "--char", "3", "--output", "json"], capsys=capsys
        )
        assert code == 0
        validate(json.loads(out))

    def test_classify_both(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--h", "x", "--char", "0", "--output", "json"],
            stdin_text='{"Dx": "0", "Dyhat": "1"}',
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["inner"] is False
        code, out, _ = run_cli(
            ["classify", "--h", "x", "--char", "3", "--output", "json"],
            stdin_text='{"Dx": "0", "Dyhat": "x"}',
            capsys=capsys,
        )
        assert code == 0
        validate(json.loads(out))

    def test_classify_invalid_derivation(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--h", "1", "--char", "0", "--output", "json"],
            stdin_text='{"Dx": "0", "Dyhat": "y"}',
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["valid"] is False
        assert "defect" in payload and payload["defect"]

    def test_bracket(self, capsys):
        stdin_text = json.dumps(
            {
                "left": {"Dx": "0", "Dyhat": "1"},
                "right": {"Dx": "x", "Dyhat": "2*x + x^2*y"},
            }
        )
        code, out, _ = run_cli(
            ["bracket", "--h", "x^2", "--char", "0", "--output", "json"],
            stdin_text=stdin_text,
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        # [D_1, ad_{a_1}] = (m-1) D_1 = D_1 for h = x^2
        assert payload["bracket"] == {"Dx": "0", "Dyhat": "1"}

    def test_normalizer(self, capsys):
        code, out, _ = run_cli(
            [
                "normalizer",
                "--h",
                "x^2",
                "--char",
                "0",
                "--element",
                "y",
                "--output",
                "json",
            ],
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["in_normalizer"] is False
        assert payload["failing_y_degree"] == 1

    def test_center(self, capsys):
        code, out, _ = run_cli(
            [
                "center",
                "--h",
                "x",
                "--char",
                "2",
                "--element",
                "x^2*y^2 + x^2",
                "--output",
                "json",
            ],
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["element_coords"] == "t1 + t2"

    def test_exp_aut(self, capsys):
        code, out, _ = run_cli(
            [
                "exp-aut",
                "--h",
                "x^2",
                "--char",
                "0",
                "--g",
                "x+1",
                "--output",
                "json",
            ],
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)

    def test_verify(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--h", "x", "--char", "2", "--output", "json", "--seed", "3"],
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["all_passed"] is True


_DEFS = SCHEMA["$defs"]
_RECORD_SCHEMAS = [
    (HH1ReportChar0, _DEFS["hh1_char0"]),
    (HH1CharPReport, _DEFS["charp_report"]),
    (NormalizerQuotientLevel, _DEFS["charp_report"]["properties"]["normalizer_quotient"]["items"]),
    (DecompCharZero, _DEFS["decomposition_char0"]),
    (DecompCharP, _DEFS["decomposition_charp"]),
    (PropertyResult, _DEFS["verify"]["properties"]["properties"]["items"]),
]


@pytest.mark.parametrize(
    "record,definition", _RECORD_SCHEMAS, ids=[r.__name__ for r, _ in _RECORD_SCHEMAS]
)
def test_records_print_under_their_schema_keys(record, definition):
    # the CLI prints a result record as the dict of its fields by name, so
    # its schema definition names exactly those fields, all required
    names = list(record.__slots__)
    assert list(definition["properties"]) == names
    assert definition["required"] == names


class TestVerifyCommand:
    def test_text_pass_lines(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--h", "x^2", "--char", "0", "--seed", "1"], capsys=capsys
        )
        assert code == 0
        assert "[pass]" in out
        assert "FAIL" not in out
        assert out.strip().endswith("all passed")

    def test_seed_determinism(self, capsys):
        argv = ["verify", "--h", "x^2", "--char", "3", "--seed", "17"]
        _, out1, _ = run_cli(argv, capsys=capsys)
        _, out2, _ = run_cli(argv, capsys=capsys)
        assert out1 == out2

    def test_negative_seed_reports_a_seed_that_reproduces_the_run(self, capsys):
        argv = ["verify", "--h", "x", "--char", "2", "--output", "json", "--seed"]
        code, out, err = run_cli([*argv, "-1"], capsys=capsys)
        assert (code, err) == (0, "")
        seed = json.loads(out)["seed"]
        assert 0 <= seed < 2**31
        assert run_cli([*argv, str(seed)], capsys=capsys) == (0, out, "")

    def test_seed_changes_draws(self, capsys):
        argv1 = ["verify", "--h", "x", "--char", "0", "--seed", "1", "--output", "json"]
        argv2 = ["verify", "--h", "x", "--char", "0", "--seed", "2", "--output", "json"]
        _, out1, _ = run_cli(argv1, capsys=capsys)
        _, out2, _ = run_cli(argv2, capsys=capsys)
        # same structure, different seeds both pass
        assert json.loads(out1)["all_passed"] and json.loads(out2)["all_passed"]


class TestCliRoundTrip:
    def test_printed_values_reparse(self, capsys):
        from ahweyl.fields import FieldSpec
        from ahweyl.parse import parse_poly, parse_weyl

        code, out, _ = run_cli(
            ["analyze", "--h", "x^2+x", "--char", "3", "--output", "json"],
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        field = FieldSpec(3)
        for key in ("h", "pi_h", "varrho_h", "h_over_pi", "qbreve", "zeta_hat_coeff"):
            parse_poly(payload[key], field)
        parse_weyl(payload["zeta"], field)
        parse_poly(payload["hbar"], field, var="u")
        for s in payload["S_basis"]:
            parse_poly(s, field)


def test_analyze_never_builds_the_unit_context(capsys):
    # analyze reads E_x only through bhat_x's Leibniz form of E_x(yhat), so
    # it never builds A_1 as A_h at h = 1, whose Bezout loop runs over all
    # p Frobenius components
    weyl_context.cache_clear()
    code, _, err = run_cli(["analyze", "--h", "x^2+1", "--char", "1009"], capsys=capsys)
    assert (code, err) == (0, "")
    assert weyl_context.cache_info().currsize == 0


# -- the JSON writer against json.dumps --------------------------------------------------

# quote, backslash, control characters, DEL, non-ASCII, a line separator, an
# astral character (a surrogate pair in the output) and a lone surrogate
JSON_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "\xe9", "\u2028", "\U0001d11e", "\ud800"]),
    st.characters(),
)
JSON_STRINGS = st.text(JSON_CHARS, max_size=12)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**300),
    st.integers(min_value=-(2**300), max_value=-(2**64)),
    JSON_STRINGS,
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.lists(JSON_STRINGS, max_size=5),  # a list of strings only
        st.dictionaries(JSON_STRINGS, kids, max_size=5),
    ),
    max_leaves=40,
)


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@given(JSON_TREES)
@settings(max_examples=400, deadline=None)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == dumps(value)


@pytest.mark.parametrize(
    "value", [{}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]], "", [""], {"": ""}], ids=repr
)
def test_json_writer_empty_containers(value):
    assert cli._json_text(value) == dumps(value)


@given(tree=JSON_TREES, bad=st.sampled_from([{1, 2}, Fraction(1, 2), b"x", 1j, object()]))
@settings(max_examples=100, deadline=None)
def test_json_writer_refuses_what_json_dumps_refuses(tree, bad):
    # also inside a record field, where the writer reads the record itself
    for value in (
        bad,
        [tree, bad],
        {"k": tree, "z": (bad,)},
        NormalizerQuotientLevel(1, 1, (bad,)),
        (tree, PropertyResult("p", 1, False, [bad])),
    ):
        with pytest.raises(TypeError):
            dumps(_json(value))
        with pytest.raises(TypeError):
            cli._json_text(value)


def test_json_error_leaves_no_output(monkeypatch, capsys):
    # the text is made whole before it is printed: an unserializable value
    # deep in the payload raises with stdout still empty
    monkeypatch.setattr(cli, "_charp_center", lambda ctx: {"zeta": "1", "late": [object()]})
    with pytest.raises(TypeError):
        run_cli(["analyze", "--h", "x", "--char", "3", "--output", "json"], capsys=capsys)
    assert capsys.readouterr().out == ""


def test_json_error_in_a_record_leaves_no_output(monkeypatch, capsys):
    # a bad value in the last normalizer level of a real report: the record
    # is written whole before any of it is printed
    def report(ctx, seed):
        rep = freeness_and_module_report_charp(ctx, seed=seed)
        bad = NormalizerQuotientLevel(7, 1, (object(),))
        fields = [getattr(rep, name) for name in HH1CharPReport.__slots__[:-1]]
        return HH1CharPReport(*fields, (*rep.normalizer_quotient, bad))

    monkeypatch.setattr(cli, "freeness_and_module_report_charp", report)
    with pytest.raises(TypeError):
        run_cli(["analyze", "--h", "x", "--char", "3", "--output", "json"], capsys=capsys)
    assert capsys.readouterr().out == ""


# -- the JSON writer on result records, against the converter it replaced -----------------

_TEXT_TYPES = frozenset((Poly, QPoly, WeylElement, CenterPoly))
_RECORD_TYPES = (Record, PropertyResult)


def _json(value):
    """The JSON form of a value: the text of a polynomial or Weyl element, a
    list for a tuple or list, the description of a center derivation, the
    dict of a result record's fields by name (its slots, which are its keys
    in schema.json). Dispatch is on the exact type, text types first:
    analyze converts every normalizer level and every generator."""
    kind = type(value)
    if kind in _TEXT_TYPES:
        return str(value)
    if kind is tuple or kind is list:
        return [_json(v) for v in value]
    if kind is CenterDerivation:
        return value.describe()
    if isinstance(value, _RECORD_TYPES):
        return {name: _json(getattr(value, name)) for name in kind.__slots__}
    return value


FIELDS = {p: FieldSpec(p) for p in (0, 2, 3, 5)}
# (h, --factors) over Q: None fields without factors, multiplicities with
CHAR0_H = [
    ("1", None),
    ("x", "x"),
    ("x^2", None),
    ("x^2", "x^2"),
    ("x^3+x", None),
    ("(x+1)^2*x", "(x+1)^2,x"),
    ("-2*x^3*(x-1/2)^2", "x^3,(x-1/2)^2"),
]
CHARP_H = ["1", "x", "x^2", "x^2+1", "x*(x+1)^2"]


@functools.cache
def _context(p: int, h_text: str, factors_text=None, degree_bound=None) -> AhContext:
    F = FIELDS[p]
    factors = parse_factors(factors_text, F) if factors_text else None
    return AhContext(parse_poly(h_text, F), factors=factors, degree_bound=degree_bound)


@functools.cache
def _charp_report(p: int, h_text: str, degree_bound: int, seed: int):
    return freeness_and_module_report_charp(
        _context(p, h_text, degree_bound=degree_bound), seed, certificates=2
    )


@functools.cache
def _decomposition(p: int, h_text: str, seed: int):
    return is_inner(random_derivation(random.Random(seed), _context(p, h_text))).decomposition


CHAR0_REPORTS = st.sampled_from(CHAR0_H).map(lambda hf: structure_report_char0(_context(0, *hf)))
CHARP_REPORTS = st.builds(
    _charp_report,
    st.sampled_from([2, 3, 5]),
    st.sampled_from(CHARP_H),
    st.integers(0, 4),
    st.integers(0, 3),
)
DECOMPOSITIONS = st.builds(
    _decomposition,
    st.sampled_from([0, 2, 3, 5]),
    st.sampled_from(CHARP_H),
    st.integers(0, 3),
)
PROPERTY_RESULTS = st.builds(
    PropertyResult,
    JSON_STRINGS,
    st.integers(0, 50),
    st.booleans(),
    st.lists(JSON_STRINGS, max_size=3),
)
_SEEDED_FIELDS = st.tuples(st.integers(0, 2**16), st.sampled_from(list(FIELDS.values())))
TEXT_VALUES = st.one_of(
    _SEEDED_FIELDS.map(lambda sf: random_poly(random.Random(sf[0]), sf[1])),
    _SEEDED_FIELDS.map(lambda sf: random_weyl(random.Random(sf[0]), sf[1])),
    DECOMPOSITIONS.filter(lambda d: isinstance(d, DecompCharP)).map(lambda d: d.u),
)
CENTER_DERIVATIONS = CHARP_REPORTS.flatmap(lambda rep: st.sampled_from(rep.res_image_generators))
RECORD_VALUES = st.one_of(CHAR0_REPORTS, CHARP_REPORTS, DECOMPOSITIONS)
# lists and tuples that mix the five kinds of value: records, text values,
# center derivations, property results and plain JSON
MIXED = st.recursive(
    st.one_of(RECORD_VALUES, TEXT_VALUES, CENTER_DERIVATIONS, PROPERTY_RESULTS, JSON_LEAVES),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple)),
    max_leaves=8,
)


@given(st.one_of(RECORD_VALUES, PROPERTY_RESULTS, MIXED))
@settings(max_examples=150, deadline=None)
def test_json_writer_on_records_matches_the_converter(value):
    # the bytes the CLI wrote when it first turned a payload into dicts,
    # lists and strings and then wrote that
    assert cli._json_text(value) == dumps(_json(value))


def test_failing_verify_is_rendered(monkeypatch, capsys):
    def check_fails_four_times(ctx, rng):
        res = PropertyResult("a property that fails")
        for i in range(6):
            res.check(i < 2, lambda i=i: f"case {i}")
        return res

    monkeypatch.setattr(verify, "COMMON", [*verify.COMMON, check_fails_four_times])
    argv = ["verify", "--h", "x", "--char", "2", "--seed", "3"]
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, err) == (1, "")
    assert "[FAIL] a property that fails (6 checks)\n" in out
    assert [line.strip() for line in out.splitlines() if "counterexample:" in line] == [
        f"counterexample: case {i}" for i in (2, 3, 4)
    ]
    assert out.endswith("result: FAILURES\n")
    code, out, err = run_cli([*argv, "--output", "json"], capsys=capsys)
    assert (code, err) == (1, "")
    payload = json.loads(out)
    validate(payload)
    assert payload["all_passed"] is False
    assert [prop for prop in payload["properties"] if not prop["passed"]] == [{
        "name": "a property that fails",
        "count": 6,
        "passed": False,
        "counterexamples": ["case 2", "case 3", "case 4"],
    }]
