"""Large cases, beyond the benchmark's p <= 13 and small h.

They check the paper's large-p claims: HH^1 is free over the center iff
h/pi_h is a unit; the normalizer levels N_i/(A_h + Z(A_1)) have dim |S| at
p | i; a normalizer term at y-degree kp is inner iff h^{kp} divides it. They
also run classify and verify on large h over Q, and verify on A_1 itself
(h = 1) at large p.

They also check that input which would exhaust time or memory is refused
before the work starts, as a domain error.

Each row of `CASES` is (id, argv, stdin, predicate, cap). The stdin is the
text given to the command, a builder of that text on the public `ahweyl`
API, or None. The row runs as `python -m ahweyl.cli <argv> --output json` in
a new session and must finish within its cap in seconds; a builder's time
counts against the cap. It must exit 0, write nothing to stderr, and satisfy
the predicate on its JSON; or, where the predicate is `Refused(category)`,
exit 1 with that category on stderr and nothing on stdout. A row over its
cap has its whole process group killed, verify's forked workers with it,
and fails. A new large case is one row.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from ahweyl import QQ, AhContext, D_g, FieldSpec, WeylElement, ad, parse_poly, parse_weyl

SRC = Path(__file__).resolve().parent.parent / "src"


def charp_levels(free, levels, dim, **fields):
    """analyze in characteristic p: freeness, `levels` normalizer levels,
    each of dimension `dim`, and the report fields given."""

    def check(out):
        r = out["charp_report"]
        q = r["normalizer_quotient"]
        return (
            r["free_over_center"] is free
            and len(q) == levels
            and all(level["dim"] == dim for level in q)
            and all(r[k] == v for k, v in fields.items())
        )

    return check


def char0_outer(g, terms):
    """classify over Q: not inner, with the D_g part and the ad_{r a_n} terms given."""

    def check(out):
        c = out["decomposition"]
        return out["inner"] is False and c["g"] == g and c["terms"] == terms

    return check


class Refused(NamedTuple):
    """The predicate of a row that must exit 1 with this error category."""

    category: str


def all_passed(out):
    return out["all_passed"] is True


def ad_term_plus_a_n(h, r, k, n, g=None):
    """The builder of ad(r h^k y^k + a_n) + D_g over Q, as classify's stdin."""

    def build():
        ctx = AhContext(parse_poly(h, QQ))
        a = WeylElement.from_term(parse_poly(r, QQ) * ctx.h_power(k), k) + ctx.a_n_element(n)
        d = ad(a, ctx)
        if g is not None:
            d = d + D_g(parse_poly(g, QQ), ctx)
        return json.dumps({"Dx": str(d.image_x), "Dyhat": str(d.image_yhat)})

    return build


def element_image(text, p):
    """exp-aut: the image of the element is `text`, read in characteristic p."""

    def check(out):
        F = FieldSpec(p)
        return parse_weyl(out["element_image"], F) == parse_weyl(text, F)

    return check


CASES = [
    (
        "analyze-free-p151",
        ["analyze", "--h", "x^4+x+2", "--char", "151"],
        None,
        charp_levels(True, 453, 0, freeness_certificates=10),
        120,
    ),
    (
        "analyze-not-free-p61",
        ["analyze", "--h", "x^3*(x+1)^2", "--char", "61"],
        None,
        charp_levels(False, 183, 3, theta_quotient_dim=3),
        120,
    ),
    (
        # 1203 levels of three generators each: 32 MB of JSON, the printing
        # kernel and the JSON writer at scale
        "analyze-not-free-p401",
        ["analyze", "--h", "x^3*(x+1)^2", "--char", "401"],
        None,
        charp_levels(False, 1203, 3, theta_quotient_dim=3),
        20,
    ),
    (
        "analyze-free-p1009",
        ["analyze", "--h", "x^2+1", "--char", "1009"],
        None,
        charp_levels(True, 3 * 1009, 0, freeness_certificates=10),
        60,
    ),
    (
        "analyze-free-p10007",
        ["analyze", "--h", "x^2+1", "--char", "10007"],
        None,
        charp_levels(True, 3 * 10007, 0, freeness_certificates=10),
        60,
    ),
    (
        # a dense h over Q: the context reads no derivative of h past h'
        "analyze-char0-dense-1000",
        ["analyze", "--h", "(x+1)^1000", "--char", "0"],
        None,
        lambda out: out["pi_h"] == "1 + x" and out["hh1"]["dim_center"] == 1,
        2,
    ),
    (
        "classify-inner-y61-p61",
        ["classify", "--h", "x^2+1", "--char", "61"],
        json.dumps(
            {
                "Dx": "x^2 + x^4",
                "Dyhat": "2*x^2 + 2*x^4 + (59*x + 57*x^3 + 59*x^5)*y"
                " + (60 + 60*x^2 + 60*x^122 + 60*x^124)*y^61",
            }
        ),
        lambda out: out["inner"] is True,
        120,
    ),
    (
        "classify-outer-y61-p61",
        ["classify", "--h", "x^2", "--char", "61"],
        json.dumps({"Dx": "0", "Dyhat": "x^122*y^61"}),
        lambda out: out["inner"] is False and "at y-degree 61 " in out["certificate"],
        120,
    ),
    (
        "classify-char0-ad-y8-plus-a5",
        ["classify", "--h", "x^2*(x+1)^3*(x^2+2)^2", "--char", "0"],
        ad_term_plus_a_n("x^2*(x+1)^3*(x^2+2)^2", "1+2*x", 8, 5),
        char0_outer("0", [[5, "1"]]),
        120,
    ),
    (
        "classify-char0-42kb",
        ["classify", "--h", "x^4*(x-1)^5*(x^2+x+1)^3", "--char", "0"],
        ad_term_plus_a_n("x^4*(x-1)^5*(x^2+x+1)^3", "1 + 2*x - 1/3*x^2", 10, 7, g="x^3 - 1/2"),
        char0_outer("-1/2 + x^3", [[7, "1"]]),
        120,
    ),
    (
        # h = 1 at a large p: h^(p-1) has one nonzero Frobenius component,
        # and the Bezout multipliers and qbreve are built from it alone
        "center-h1-p999983",
        ["center", "--h", "1", "--char", "999983"],
        None,
        lambda out: out["hbar"] == "1" and out["qbreve"] == "999982*x^999982",
        5,
    ),
    (
        "verify-free-p31",
        ["verify", "--h", "x^2+1", "--char", "31", "--seed", "1"],
        None,
        all_passed,
        120,
    ),
    (
        # the cliff of verify in p: Res morphism and the two bracket
        # properties read D(zeta) and brackets of derivations at p = 61
        "verify-free-p61",
        ["verify", "--h", "x^2+1", "--char", "61", "--seed", "1"],
        None,
        all_passed,
        60,
    ),
    (
        "verify-not-free-p11",
        ["verify", "--h", "x^3*(x+1)^2", "--char", "11", "--seed", "2"],
        None,
        all_passed,
        120,
    ),
    (
        "verify-not-free-p13-deg7",
        ["verify", "--h", "(x+1)^5*x^2", "--char", "13", "--seed", "3"],
        None,
        all_passed,
        120,
    ),
    (
        # A_1 itself: E_x, E_y and the extensions to A_1 at large p
        "verify-weyl-p61",
        ["verify", "--h", "1", "--char", "61", "--seed", "1"],
        None,
        all_passed,
        30,
    ),
    (
        "verify-char0-deg35",
        ["verify", "--h", "x^10*(x-1)^7*(x^3+x+1)^4*(x^2-3)^3", "--char", "0", "--seed", "1"],
        None,
        all_passed,
        120,
    ),
    (
        # phi_g(yhat + x) = yhat + x + g, and the parser's Weyl product forms the power
        "exp-aut-y30-p13",
        [
            "exp-aut", "--h", "(x+1)^5*x^2", "--char", "13", "--g", "x^2+3*x+1",
            "--element", "(y*((x+1)^5*x^2) + x)^30",
        ],
        None,
        element_image("(y*((x+1)^5*x^2) + x + x^2+3*x+1)^30", 13),
        10,
    ),
    (
        # a multiplicity past the digit limit is a number literal past it
        "factors-multiplicity-digits",
        ["analyze", "--h", "x", "--char", "0", "--factors", "x^" + "9" * 5000],
        None,
        Refused("parse error"),
        2,
    ),
    (
        # the degrees are compared before x^3000000 is formed
        "factors-multiplicity-degree",
        ["analyze", "--h", "x", "--char", "0", "--factors", "x^3000000"],
        None,
        Refused("factor list error"),
        2,
    ),
    (
        # zeta = h^p y^p would have x-degree 2p: refused before h(x^p) is formed
        "analyze-zeta-degree-p1000000007",
        ["analyze", "--h", "x^2", "--char", "1000000007"],
        None,
        Refused("domain error"),
        2,
    ),
    (
        # h = 1: zeta = y^p, whose y-degree p is over the limit
        "analyze-zeta-degree-h1-p1000003",
        ["analyze", "--h", "1", "--char", "1000003"],
        None,
        Refused("domain error"),
        2,
    ),
]


def run_row(argv, stdin_text, timeout):
    """(exit code, stdout, stderr) of the command in a new session, or None
    if it outlives `timeout`: then its process group is killed and the
    command reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ahweyl.cli", *argv, "--output", "json"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(stdin_text, timeout=max(timeout, 0))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return None
        raise
    return proc.returncode, out, err


@pytest.mark.parametrize("case_id,argv,stdin,check,cap", CASES, ids=[c[0] for c in CASES])
def test_large_case(case_id, argv, stdin, check, cap):
    deadline = time.monotonic() + cap
    stdin_text = stdin() if callable(stdin) else stdin or ""
    result = run_row(argv, stdin_text, deadline - time.monotonic())
    if result is None:
        pytest.fail(f"{case_id} ran over its cap of {cap} s")
    code, out, err = result
    if isinstance(check, Refused):
        assert code == 1 and out == "", f"{case_id}: exit {code}"
        assert err.startswith(f"error ({check.category}): "), f"{case_id}: {err[:200]}"
        return
    assert (code, err) == (0, ""), f"{case_id}: exit {code}"
    holds = check(json.loads(out))
    assert holds, f"{case_id}: the predicate does not hold"
