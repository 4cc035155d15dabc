"""CLI surface: exit codes, JSON schema validation, golden files, round trips."""

import io
import json
import sys
from pathlib import Path

import jsonschema
import pytest

from ahweyl import cli, derivations
from ahweyl.cli import main

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

    @pytest.mark.parametrize(
        "h,char,message",
        [
            ("1/3*x", "3", "denominator 3 of 1/3 is divisible by the characteristic 3"),
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
        assert err == "error (membership error): y is not in A_h\n"

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
        ],
    )
    def test_domain_error_large_char(self, char, message, capsys):
        code, out, err = run_cli(["analyze", "--h", "x", "--char", char], capsys=capsys)
        assert code == 1
        assert message in err

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
            '{"Dx": "x^2 + x^4", "Dyhat": "2*x^2 + 2*x^4 + (x + 2*x^3 + x^5)*y'
            ' + (2 + 2*x^2 + 2*x^6 + 2*x^8)*y^3"}',
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


class TestGolden:
    @pytest.mark.parametrize(
        "name,argv,stdin_text",
        [
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
                '{"Dx": "x^2 + x^4", "Dyhat": "2*x^2 + 2*x^4 + (x + 2*x^3 + x^5)*y'
                ' + (2 + 2*x^2 + 2*x^6 + 2*x^8)*y^3"}',
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
        ],
    )
    def test_byte_for_byte(self, name, argv, stdin_text, capsys):
        code, out, err = run_cli(argv, stdin_text=stdin_text, capsys=capsys)
        assert code == 0
        assert out == (GOLDEN / name).read_text()


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
        ],
    )
    def test_text(self, argv, stdin_text, expected, capsys):
        code, out, err = run_cli(argv, stdin_text=stdin_text, capsys=capsys)
        assert code == 0 and err == ""
        assert out == expected


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
