"""Seeded inputs for the benchmark workloads.

The generator is the benchmark's own. It picks every parameter (p, the
factor shape and coefficients of h, the parts of each derivation) from
`random.Random` seeded by workload, seed and round; sympy decides
squarefreeness and coprimality, and ahweyl's public constructors print the
result in canonical normal form. A job is one CLI call: argv plus stdin.

A workload is a list of rounds. Every round holds the same cells, so rounds
cost about the same whatever the seed, and the number of rounds follows
from the requested seconds through ROUND_SECONDS.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import random
from fractions import Fraction

import sympy

from ahweyl.centerpoly import CenterPoly
from ahweyl.context import AhContext
from ahweyl.derivations import D_g, ad, bhat_f
from ahweyl.fields import FieldSpec
from ahweyl.poly import Poly
from ahweyl.weyl import WeylElement

WORKLOADS = ("charp-analyze", "charp-bracket", "char0-classes", "verify-suite")

# Wall seconds of one round in one pass at the commit that defined the
# benchmark (2-core x86 container, Python 3.11). Only used to turn --seconds
# into a fixed number of rounds, so both sides of a comparison run the same
# jobs; run.py runs the job list in PASSES passes.
ROUND_SECONDS = {
    "charp-analyze": 2.5,
    "charp-bracket": 1.6,
    "char0-classes": 1.85,
    "verify-suite": 7.8,
}
PASSES = 2

# charp-analyze: squarefree h (free over the center) and h with a repeated
# factor (not free), as (p, deg h). Cells whose single job takes a second or
# more (free p = 13 or deg 8 at p >= 5, non-free deg 8 at p >= 11) are left
# out so that a run holds enough jobs for its tail percentile.
ANALYZE_FREE = ((3, 2), (3, 4), (3, 8), (5, 2), (5, 4), (7, 2), (7, 4), (11, 2))
ANALYZE_NONFREE = tuple(
    (p, d) for p in (3, 5, 7, 11, 13) for d in (2, 4, 8) if not (p >= 11 and d == 8)
)

# charp-bracket: (p, deg h) -> (bracket jobs, classify jobs) per round, all
# sharing the round's h for that cell. A bracket at p = 7, deg h = 4 takes
# seconds, so that cell only classifies.
BRACKET_CELLS = {(3, 2): (1, 1), (3, 4): (1, 1), (5, 2): (1, 1), (5, 4): (1, 1), (7, 2): (1, 1), (7, 4): (0, 2)}

# char0-classes: factor shapes of h over Q as (deg u, multiplicity) per
# prime factor u; total degree 2, 4 or 8.
CHAR0_SHAPES = (
    ((1, 1), (1, 1)),
    ((1, 2),),
    ((2, 1),),
    ((1, 1), (1, 3)),
    ((2, 2),),
    ((2, 1), (1, 1), (1, 1)),
    ((1, 3), (1, 2), (2, 1), (1, 1)),
    ((2, 2), (1, 2), (1, 2)),
)

# verify-suite: (p, deg h) -> jobs per round; p = 0 is Q. A verify job takes
# 0.2 s (p = 2) to over 1 s (p = 5), so most jobs are small. GF(2) and GF(3)
# have few h of low degree, so h repeats there; each job has its own --seed.
VERIFY_CELLS = {(2, 1): 22, (2, 2): 10, (2, 3): 4, (3, 1): 6, (3, 2): 2, (0, 1): 2, (5, 1): 2}

CHAR0_UNITS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 2))

_X = sympy.Symbol("x")


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / (PASSES * ROUND_SECONDS[workload])))


def input_digest(jobs) -> str:
    """sha256 over every job's argv and stdin, in order."""
    blob = json.dumps([[j["argv"], j["stdin"]] for j in jobs], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_jobs(workload: str, seed: int, rounds: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    make_round = {
        "charp-analyze": _analyze_round,
        "charp-bracket": _bracket_round,
        "char0-classes": _char0_round,
        "verify-suite": _verify_round,
    }[workload]
    used = set()
    jobs = []
    for r in range(rounds):
        rng = random.Random(f"{workload}:{seed}:{r}")
        cell_jobs = make_round(rng, used)
        rng.shuffle(cell_jobs)
        for i, job in enumerate(cell_jobs):
            job["id"] = f"r{r}.{i}"
            jobs.append(job)
    return jobs


# -- coefficient lists (lowest degree first) ------------------------------------


def _sym(coeffs, p):
    domain = sympy.GF(p) if p else sympy.QQ
    return sympy.Poly(list(reversed(coeffs)), _X, domain=domain)


def _squarefree(coeffs, p) -> bool:
    return _sym(coeffs, p).is_sqf


def _coprime(a, b, p) -> bool:
    return _sym(a, p).gcd(_sym(b, p)).degree() == 0


def _mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return [c % p for c in out] if p else out


def _power(a, m, p):
    out = [1]
    for _ in range(m):
        out = _mul(out, a, p)
    return out


def _monic(rng, p, d):
    return [rng.randrange(p) for _ in range(d)] + [1]


def _monic_squarefree(rng, p, d, coprime_to=None):
    while True:
        f = _monic(rng, p, d)
        if d == 0 or (
            _squarefree(f, p) and (coprime_to is None or _coprime(f, coprime_to, p))
        ):
            return f


def _unit(rng, p):
    return rng.randrange(1, p)


def _scaled(rng, p, f):
    """f times a random unit of GF(p)."""
    c = _unit(rng, p)
    return [c * v % p for v in f]


def _text(p, coeffs) -> str:
    return str(Poly(FieldSpec(p), coeffs))


def _distinct(used, p, make, tries=None, key=lambda value: value):
    """Draw from make() until the cell (p, key(value)) is new; after `tries`
    draws accept a repeat (for cells with only a few possible h)."""
    for n in itertools.count(1):
        value = make()
        cell = (p, tuple(key(value)))
        if cell not in used or n == tries:
            used.add(cell)
            return value


def _job(cell, command, p, h_text, extra=(), stdin=""):
    # "--h=..." because h may start with a minus sign
    argv = [command, f"--h={h_text}", "--char", str(p), *extra, "--output", "json"]
    return {"cell": cell, "command": command, "p": p, "h": h_text, "argv": argv, "stdin": stdin}


# -- charp-analyze -------------------------------------------------------------------


def _nonfree_shape(p, d):
    """(multiplicity, degree) of the repeated factor g in h = c g^m k."""
    if d == 2:
        return 2, 1
    if d == 4:
        return (3, 1) if p == 3 else (2, 1)
    return {3: (3, 2), 5: (5, 1)}.get(p, (2, 2))


def _analyze_round(rng, used):
    jobs = []
    for p, d in ANALYZE_FREE:
        h = _distinct(used, p, lambda: _scaled(rng, p, _monic_squarefree(rng, p, d)))
        jobs.append(_job(f"free p={p} deg={d}", "analyze", p, _text(p, h)))
    for p, d in ANALYZE_NONFREE:
        m, dg = _nonfree_shape(p, d)

        def make():
            g = _monic_squarefree(rng, p, dg)
            k = _monic_squarefree(rng, p, d - m * dg, coprime_to=g)
            return _scaled(rng, p, _mul(_power(g, m, p), k, p))

        h = _distinct(used, p, make)
        jobs.append(_job(f"non-free p={p} deg={d}", "analyze", p, _text(p, h)))
    return jobs


# -- derivations ------------------------------------------------------------------------


def _serialize(d) -> dict:
    return {"Dx": str(d.image_x), "Dyhat": str(d.image_yhat)}


def _poly(rng, F, d, lo=None, hi=None):
    """Degree-d polynomial with nonzero leading coefficient."""
    if F.is_char_zero:
        coeffs = [rng.randint(lo, hi) for _ in range(d)] + [rng.choice((-2, -1, 1, 2))]
    else:
        coeffs = [rng.randrange(F.p) for _ in range(d)] + [_unit(rng, F.p)]
    return Poly(F, coeffs)


def _normalizer_element(rng, ctx):
    """r0 + r1 pi_h y + r2 pi_h h y^2, in the normalizer of A_h for p > 2."""
    F = ctx.field
    out = WeylElement.from_poly(_poly(rng, F, 2, -3, 3))
    out = out + WeylElement.from_term(_poly(rng, F, 1, -3, 3) * ctx.pi_h, 1)
    out = out + WeylElement.from_term(_poly(rng, F, 0, -3, 3) * ctx.pi_h * ctx.h, 2)
    return out


def _derivation_char0(rng, ctx):
    return D_g(_poly(rng, ctx.field, 3, -3, 3), ctx) + ad(_normalizer_element(rng, ctx), ctx)


def _derivation_charp(rng, ctx, dq, bf):
    """D_g + ad(n) + (a + b t1 + c t2) D_qbreve + (d + e t1) bhat_f."""
    F = ctx.field
    p = F.p
    u = CenterPoly(F, {(0, 0): rng.randrange(p), (1, 0): _unit(rng, p), (0, 1): _unit(rng, p)})
    v = CenterPoly(F, {(0, 0): _unit(rng, p), (1, 0): _unit(rng, p)})
    d = D_g(_poly(rng, F, 3), ctx) + ad(_normalizer_element(rng, ctx), ctx)
    return d + dq.central_scale(u) + bf.central_scale(v)


# -- charp-bracket ----------------------------------------------------------------------------


def _bracket_round(rng, used):
    jobs = []
    for (p, d), (n_bracket, n_classify) in BRACKET_CELLS.items():
        F = FieldSpec(p)
        h = _scaled(rng, p, _monic(rng, p, d))
        h_text = _text(p, h)
        ctx = AhContext(Poly(F, h))
        dq, bf = D_g(ctx.qbreve, ctx), bhat_f(ctx)
        for _ in range(n_bracket):
            left, right = (_derivation_charp(rng, ctx, dq, bf) for _ in range(2))
            body = {"left": _serialize(left), "right": _serialize(right)}
            jobs.append(_job(f"bracket p={p} deg={d}", "bracket", p, h_text, stdin=json.dumps(body)))
        for _ in range(n_classify):
            body = _serialize(_derivation_charp(rng, ctx, dq, bf))
            jobs.append(_job(f"classify p={p} deg={d}", "classify", p, h_text, stdin=json.dumps(body)))
    return jobs


# -- char0-classes ------------------------------------------------------------------------------


def _char0_h(rng, shape):
    """(h, factor list text) for h = c * prod u^m over the factor shape,
    with u = x + a or x^2 + b (b > 0), all distinct."""
    linear = rng.sample(range(-4, 5), 4)
    quadratic = rng.sample(range(1, 7), 2)
    factors = []
    for deg, mult in shape:
        u = [linear.pop(), 1] if deg == 1 else [quadratic.pop(), 0, 1]
        factors.append((u, mult))
    h = [rng.choice(CHAR0_UNITS)]
    for u, mult in factors:
        h = _mul(h, _power(u, mult, 0), 0)
    return h, ",".join(f"{_text(0, u)}^{mult}" for u, mult in factors)


def _char0_round(rng, used):
    F = FieldSpec(0)
    first = operator.itemgetter(0)
    jobs = []
    for shape in CHAR0_SHAPES:
        h, factor_text = _distinct(used, 0, lambda: _char0_h(rng, shape), key=first)
        cell = f"shape {shape}"
        jobs.append(_job(f"analyze {cell}", "analyze", 0, _text(0, h), extra=(f"--factors={factor_text}",)))
        h, _ = _distinct(used, 0, lambda: _char0_h(rng, shape), key=first)
        ctx = AhContext(Poly(F, h))
        body = _serialize(_derivation_char0(rng, ctx))
        jobs.append(_job(f"classify {cell}", "classify", 0, _text(0, h), stdin=json.dumps(body)))
        h, _ = _distinct(used, 0, lambda: _char0_h(rng, shape), key=first)
        ctx = AhContext(Poly(F, h))
        left, right = (_derivation_char0(rng, ctx) for _ in range(2))
        body = {"left": _serialize(left), "right": _serialize(right)}
        jobs.append(_job(f"bracket {cell}", "bracket", 0, _text(0, h), stdin=json.dumps(body)))
    return jobs


# -- verify-suite ----------------------------------------------------------------------------------


def _verify_round(rng, used):
    jobs = []
    cells = [cell for cell, n in VERIFY_CELLS.items() for _ in range(n)]
    for p, d in cells:
        if p:
            h = _distinct(used, p, lambda: _scaled(rng, p, _monic(rng, p, d)), tries=20)
        else:
            unit = rng.choice((1, 2, -1))
            h = _distinct(used, p, lambda: [unit * rng.randint(-3, 3) for _ in range(d)] + [unit])
        seed = rng.randrange(10**6)
        jobs.append(_job(f"verify p={p} deg={d}", "verify", p, _text(p, h), extra=("--seed", str(seed))))
    return jobs
