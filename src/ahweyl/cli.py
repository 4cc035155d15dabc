"""Command-line frontend.

Subcommands: analyze, bracket, classify, normalizer, center, exp-aut, verify.
Common flags: --h, --char, --factors, --degree-bound, --seed,
--output text|json. classify and bracket read derivation JSON from stdin.
Exit codes: 0 success, 1 domain error (category printed), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .context import (
    AhContext,
    FactorListError,
    MembershipError,
    MissingFactorizationError,
    NotCentralizing,
)
from .derivations import (
    AhAlgebraMap,
    Derivation,
    InnerWitness,
    InvalidDerivation,
    InvalidDerivationError,
    is_inner,
    make_derivation,
)
from .fields import ExactDivisionError, FieldMismatchError, FieldSpec
from .hochschild import freeness_and_module_report_charp, structure_report_char0
from .parse import ParseError, parse_factors, parse_poly, parse_weyl
from .verify import run_verify

# Domain errors (exit 1) and the category printed for each; isinstance picks
# the first match, so every subclass comes before ValueError.
_ERROR_CATEGORIES = {
    ParseError: "parse error",
    FactorListError: "factor list error",
    MembershipError: "membership error",
    MissingFactorizationError: "missing factorization",
    InvalidDerivationError: "invalid derivation",
    ExactDivisionError: "non-exact division",
    FieldMismatchError: "field mismatch",
    ZeroDivisionError: "division by zero",
    ValueError: "domain error",
}


def _error_category(exc: Exception) -> str:
    return next(name for cls, name in _ERROR_CATEGORIES.items() if isinstance(exc, cls))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every command in `_COMMANDS`, built at the first call
    and kept for the rest of the process."""
    parser = argparse.ArgumentParser(
        prog="ahweyl",
        description=(
            "Exact computations in the subalgebras A_h of the Weyl algebra: "
            "invariants, derivations, and first Hochschild cohomology."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--h", dest="h_text", required=True, help='e.g. "x^2 - 1"')
    common.add_argument(
        "--char", dest="characteristic", type=int, required=True, help="0 or a prime"
    )
    common.add_argument(
        "--factors",
        default=None,
        help='optional verified prime factorization, e.g. "x^2,x-1"',
    )
    common.add_argument(
        "--degree-bound",
        type=int,
        default=None,
        help="the number N of normalizer levels y^1..y^N that analyze reads in "
        "characteristic p (default 3p, at least deg h); no effect over Q",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the randomized suites; negative draws a time-based "
        "seed (fuzzing) and reports the one used",
    )
    common.add_argument("--output", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        for flag, kwargs in options:
            cmd.add_argument(flag, **kwargs)
    return parser


def _build_context(args) -> AhContext:
    if args.degree_bound is not None and args.degree_bound < 0:
        raise ValueError(f"--degree-bound must be >= 0, got {args.degree_bound}")
    field = FieldSpec(args.characteristic)
    h = parse_poly(args.h_text, field)
    if h.is_zero():
        raise ValueError("h must be nonzero")
    factors = parse_factors(args.factors, field) if args.factors else None
    return AhContext(h, factors=factors, degree_bound=args.degree_bound)


def _yesno(flag) -> str:
    if flag is None:
        return "(needs --factors)"
    return "yes" if flag else "no"


# -- analyze -------------------------------------------------------------------


def _report_char0_payload(ctx: AhContext) -> dict:
    rep = structure_report_char0(ctx)
    return {
        "dim_center": rep.dim_center,
        "center_basis": [str(g) for g in rep.center_basis],
        "hh1_trivial": rep.hh1_trivial,
        "abelian": rep.abelian,
        "multiplicity_gt1_primes": (
            None
            if rep.multiplicity_gt1_primes is None
            else [[str(u), a] for u, a in rep.multiplicity_gt1_primes]
        ),
        "nilpotent_N_trivial": rep.nilpotent_N_trivial,
        "nilpotency_index_bound": rep.nilpotency_index_bound,
        "witt_summand_count": rep.witt_summand_count,
    }


def _report_charp_payload(ctx: AhContext, seed: int) -> dict:
    rep = freeness_and_module_report_charp(ctx, seed=seed)
    return {
        "free_over_center": rep.free_over_center,
        "theta_quotient_dim": rep.theta_quotient_dim,
        "res_image_generators": [d.describe() for d in rep.res_image_generators],
        "basis_if_free": list(rep.basis_if_free) if rep.basis_if_free else None,
        "freeness_certificates": rep.freeness_certificates,
        "normalizer_quotient": [
            {
                "y_degree": lvl.y_degree,
                "dim": lvl.dim,
                "generators": [str(g) for g in lvl.generators],
            }
            for lvl in rep.normalizer_quotient
        ],
    }


def cmd_analyze(args) -> dict:
    ctx = _build_context(args)
    payload = {
        "command": "analyze",
        "characteristic": ctx.field.characteristic,
        "h": str(ctx.h),
        "pi_h": str(ctx.pi_h),
        "varrho_h": str(ctx.varrho_h),
        "h_over_pi": str(ctx.h_over_pi),
    }
    if ctx.field.is_char_zero:
        payload["hh1"] = _report_char0_payload(ctx)
    else:
        payload.update(
            {
                "zeta": str(ctx.zeta_element()),
                "zeta_hat_coeff": str(ctx.zeta_hat_coeff),
                "hbar": ctx.hbar.to_text("u"),
                "qbreve": str(ctx.qbreve),
                "hbar_components": [c.to_text("u") for c in ctx.hbar_components],
                "S_basis": [str(s) for s in ctx.theta_complement_S()],
            }
        )
        payload["charp_report"] = _report_charp_payload(ctx, args.seed)
    return payload


def _analyze_text(payload: dict) -> str:
    lines = [
        f"h: {payload['h']}",
        f"characteristic: {payload['characteristic']}",
        f"pi_h: {payload['pi_h']}",
        f"varrho_h: {payload['varrho_h']}",
        f"h/pi_h: {payload['h_over_pi']}",
    ]
    if "hh1" in payload:
        rep = payload["hh1"]
        primes = rep["multiplicity_gt1_primes"]
        lines += [
            "HH1 structure (characteristic 0):",
            f"  dim Z(HH1): {rep['dim_center']}",
            "  center basis: "
            + (", ".join(f"D_[{g}]" for g in rep["center_basis"]) or "(empty)"),
            f"  HH1 trivial: {'yes' if rep['hh1_trivial'] else 'no'}",
            f"  abelian: {'yes' if rep['abelian'] else 'no'}",
            "  primes with multiplicity > 1: "
            + (
                "(needs --factors)"
                if primes is None
                else ", ".join(f"{u} (multiplicity {a})" for u, a in primes) or "(none)"
            ),
            f"  nilpotent ideal trivial: {_yesno(rep['nilpotent_N_trivial'])}",
            "  nilpotency index bound: "
            + (
                "(needs --factors)"
                if rep["nilpotency_index_bound"] is None
                else str(rep["nilpotency_index_bound"])
            ),
            "  Witt summands: "
            + (
                "(needs --factors)"
                if rep["witt_summand_count"] is None
                else str(rep["witt_summand_count"])
            ),
        ]
    else:
        rep = payload["charp_report"]
        lines += [
            f"zeta: {payload['zeta']}",
            f"delta^p(x)/h: {payload['zeta_hat_coeff']}",
            f"hbar: {payload['hbar']}",
            f"qbreve: {payload['qbreve']}",
            "S basis: " + (", ".join(payload["S_basis"]) or "(empty)"),
            "HH1 over the center (characteristic p):",
            f"  free of rank 2: {'yes' if rep['free_over_center'] else 'no'}",
            "  basis if free: "
            + (", ".join(rep["basis_if_free"]) if rep["basis_if_free"] else "(not free)"),
            f"  dim Theta/im delta: {rep['theta_quotient_dim']}",
            "  Res image generators: " + "; ".join(rep["res_image_generators"]),
        ]
        for lvl in rep["normalizer_quotient"]:
            gens = ", ".join(lvl["generators"]) or "(none)"
            lines.append(
                f"  N/(A_h + Z(A_1)) at y-degree {lvl['y_degree']}: dim {lvl['dim']}, generators {gens}"
            )
    return "\n".join(lines)


# -- classify / bracket -----------------------------------------------------------


def _parse_derivation_json(obj, ctx: AhContext):
    if not (
        isinstance(obj, dict)
        and isinstance(obj.get("Dx"), str)
        and isinstance(obj.get("Dyhat"), str)
    ):
        raise ValueError('derivation JSON must be {"Dx": "...", "Dyhat": "..."}')
    u = parse_weyl(obj["Dx"], ctx.field)
    v = parse_weyl(obj["Dyhat"], ctx.field)
    return make_derivation(u, v, ctx)


def serialize_derivation(d: Derivation) -> dict:
    return {"Dx": str(d.image_x), "Dyhat": str(d.image_yhat)}


def _classification_payload(d: Derivation, ctx: AhContext) -> dict:
    verdict = is_inner(d)
    dec = verdict.decomposition
    if ctx.field.is_char_zero:
        decomposition = {
            "g": str(dec.g),
            "terms": [[n, str(r)] for n, r in dec.terms],
            "inner_witness": str(dec.inner_witness),
        }
    else:
        decomposition = {
            "u": str(dec.u),
            "v": str(dec.v),
            "s": str(dec.s),
            "normalizer_part": str(dec.normalizer_part),
            "inner_witness": str(dec.inner_witness),
        }
    inner = isinstance(verdict, InnerWitness)
    return {
        "inner": inner,
        "witness": str(verdict.witness) if inner else None,
        "certificate": None if inner else verdict.reason,
        "decomposition": decomposition,
    }


def cmd_classify(args) -> dict:
    ctx = _build_context(args)
    obj = json.loads(sys.stdin.read())
    d = _parse_derivation_json(obj, ctx)
    payload = {
        "command": "classify",
        "characteristic": ctx.field.characteristic,
        "h": str(ctx.h),
    }
    if isinstance(d, InvalidDerivation):
        payload.update(
            {
                "valid": False,
                "defect": d.describe(),
                "inner": None,
                "witness": None,
                "certificate": None,
                "decomposition": None,
            }
        )
        return payload
    payload["valid"] = True
    payload["defect"] = None
    payload.update(_classification_payload(d, ctx))
    return payload


def _classify_text(payload: dict) -> str:
    lines = [
        f"h: {payload['h']}",
        f"characteristic: {payload['characteristic']}",
    ]
    if not payload["valid"]:
        lines.append(f"valid: no ({payload['defect']})")
        return "\n".join(lines)
    lines.append("valid: yes")
    dec = payload["decomposition"]
    if "g" in dec:
        lines.append(f"D part: D_[{dec['g']}]")
        for n, r in dec["terms"]:
            lines.append(f"normalizer term: ad_[({r})*a_{n}]")
        lines.append(f"inner witness: {dec['inner_witness']}")
    else:
        lines.append(f"u (coefficient of D_qbreve): {dec['u']}")
        lines.append(f"v (coefficient of bhat_f): {dec['v']}")
        lines.append(f"s (complement of im delta in Theta): {dec['s']}")
        lines.append(f"normalizer part: {dec['normalizer_part']}")
        lines.append(f"inner witness: {dec['inner_witness']}")
    if payload["inner"]:
        lines.append(f"verdict: inner, witness {payload['witness']}")
    else:
        lines.append(f"verdict: outer ({payload['certificate']})")
    return "\n".join(lines)


def cmd_bracket(args) -> dict:
    ctx = _build_context(args)
    obj = json.loads(sys.stdin.read())
    if not isinstance(obj, dict) or "left" not in obj or "right" not in obj:
        raise ValueError('bracket JSON must be {"left": {...}, "right": {...}}')
    left = _parse_derivation_json(obj["left"], ctx)
    right = _parse_derivation_json(obj["right"], ctx)
    payload = {
        "command": "bracket",
        "characteristic": ctx.field.characteristic,
        "h": str(ctx.h),
    }
    for name, d in (("left", left), ("right", right)):
        if isinstance(d, InvalidDerivation):
            payload.update(
                {"valid": False, "defect": f"{name}: {d.describe()}", "bracket": None, "classification": None}
            )
            return payload
    br = left.bracket(right)
    payload.update(
        {
            "valid": True,
            "defect": None,
            "bracket": serialize_derivation(br),
            "classification": _classification_payload(br, ctx),
        }
    )
    return payload


def _bracket_text(payload: dict) -> str:
    lines = [f"h: {payload['h']}", f"characteristic: {payload['characteristic']}"]
    if not payload["valid"]:
        lines.append(f"valid: no ({payload['defect']})")
        return "\n".join(lines)
    lines.append(f"bracket D(x): {payload['bracket']['Dx']}")
    lines.append(f"bracket D(yhat): {payload['bracket']['Dyhat']}")
    cls = dict(payload["classification"])
    cls.update({"valid": True, "h": payload["h"], "characteristic": payload["characteristic"]})
    lines.append("classification of the bracket:")
    for line in _classify_text(cls).splitlines()[2:]:
        lines.append("  " + line)
    return "\n".join(lines)


# -- normalizer / center / exp-aut ----------------------------------------------------


def cmd_normalizer(args) -> dict:
    ctx = _build_context(args)
    a = parse_weyl(args.element, ctx.field)
    res = ctx.normalizer_test(a)
    return {
        "command": "normalizer",
        "characteristic": ctx.field.characteristic,
        "h": str(ctx.h),
        "element": str(a),
        "in_normalizer": res.ok,
        "failing_y_degree": res.failing_y_degree,
        "reason": res.reason,
        "in_ah": ctx.ah_membership(a),
    }


def _normalizer_text(payload: dict) -> str:
    lines = [
        f"h: {payload['h']}",
        f"element: {payload['element']}",
        f"in A_h: {'yes' if payload['in_ah'] else 'no'}",
        f"in normalizer: {'yes' if payload['in_normalizer'] else 'no'}",
    ]
    if not payload["in_normalizer"]:
        lines.append(
            f"first failing term: y-degree {payload['failing_y_degree']} ({payload['reason']})"
        )
    return "\n".join(lines)


def cmd_center(args) -> dict:
    ctx = _build_context(args)
    payload = {
        "command": "center",
        "characteristic": ctx.field.characteristic,
        "h": str(ctx.h),
    }
    if ctx.field.is_char_zero:
        payload["description"] = "Z(A_h) = F (scalars only)"
    else:
        payload.update(
            {
                "description": "Z(A_h) = F[t1, t2] with t1 = x^p, t2 = zeta",
                "zeta": str(ctx.zeta_element()),
                "zeta_hat_coeff": str(ctx.zeta_hat_coeff),
                "hbar": ctx.hbar.to_text("u"),
                "qbreve": str(ctx.qbreve),
            }
        )
    if args.element is not None:
        a = parse_weyl(args.element, ctx.field)
        if ctx.field.is_char_zero:
            central = not any(i > 0 for i in a.terms) and a.coefficient(0).is_constant()
            payload["element_coords"] = str(a) if central else None
            payload["not_central_reason"] = None if central else "not a scalar"
        else:
            coords = ctx.center_coords(a)
            if isinstance(coords, NotCentralizing):
                payload["element_coords"] = None
                payload["not_central_reason"] = coords.reason
            else:
                payload["element_coords"] = str(coords)
                payload["not_central_reason"] = None
    return payload


def _center_text(payload: dict) -> str:
    lines = [f"h: {payload['h']}", payload["description"]]
    for key in ("zeta", "zeta_hat_coeff", "hbar", "qbreve"):
        if key in payload:
            lines.append(f"{key}: {payload[key]}")
    if "element_coords" in payload:
        if payload["element_coords"] is None:
            lines.append(f"element: not central ({payload['not_central_reason']})")
        else:
            lines.append(f"element coordinates: {payload['element_coords']}")
    return "\n".join(lines)


def cmd_exp_aut(args) -> dict:
    ctx = _build_context(args)
    g = parse_poly(args.g, ctx.field)
    phi = AhAlgebraMap(g, ctx)
    payload = {
        "command": "exp-aut",
        "characteristic": ctx.field.characteristic,
        "h": str(ctx.h),
        "g": str(g),
        "image_x": str(phi.image_x),
        "image_yhat": str(phi.image_yhat),
    }
    if args.element is not None:
        payload["element_image"] = str(phi.apply(parse_weyl(args.element, ctx.field)))
    return payload


def _exp_aut_text(payload: dict) -> str:
    lines = [
        f"h: {payload['h']}",
        f"g: {payload['g']}",
        f"phi_g(x): {payload['image_x']}",
        f"phi_g(yhat): {payload['image_yhat']}",
    ]
    if "element_image" in payload:
        lines.append(f"phi_g(element): {payload['element_image']}")
    return "\n".join(lines)


# -- verify -----------------------------------------------------------------------------


def cmd_verify(args) -> dict:
    ctx = _build_context(args)
    seed = args.seed
    if seed < 0:
        import time

        seed = int(time.time_ns()) % (2**31)
    results = run_verify(ctx, seed=seed)
    return {
        "command": "verify",
        "characteristic": ctx.field.characteristic,
        "h": str(ctx.h),
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "properties": [
            {
                "name": r.name,
                "count": r.count,
                "passed": r.passed,
                "counterexamples": list(r.counterexamples),
            }
            for r in results
        ],
    }


def _verify_text(payload: dict) -> str:
    lines = [
        f"h: {payload['h']}",
        f"characteristic: {payload['characteristic']}",
        f"seed: {payload['seed']}",
    ]
    for prop in payload["properties"]:
        status = "pass" if prop["passed"] else "FAIL"
        lines.append(f"[{status}] {prop['name']} ({prop['count']} checks)")
        for ce in prop["counterexamples"]:
            lines.append(f"        counterexample: {ce}")
    lines.append("result: " + ("all passed" if payload["all_passed"] else "FAILURES"))
    return "\n".join(lines)


# name -> (handler, text renderer, help, options beyond the common ones)
_COMMANDS = {
    "analyze": (cmd_analyze, _analyze_text, "invariants and HH^1 structure", ()),
    "classify": (
        cmd_classify,
        _classify_text,
        "decompose a derivation (JSON on stdin: {\"Dx\": ..., \"Dyhat\": ...})",
        (),
    ),
    "bracket": (
        cmd_bracket,
        _bracket_text,
        "bracket two derivations (JSON on stdin: {\"left\": ..., \"right\": ...})",
        (),
    ),
    "normalizer": (
        cmd_normalizer,
        _normalizer_text,
        "test normalizer membership",
        (("--element", {"required": True, "help": "Weyl element text"}),),
    ),
    "center": (
        cmd_center,
        _center_text,
        "center data of A_h",
        (("--element", {"default": None, "help": "optional element to coordinate"}),),
    ),
    "exp-aut": (
        cmd_exp_aut,
        _exp_aut_text,
        "the automorphism x -> x, yhat -> yhat + g",
        (
            ("--g", {"required": True, "help": "polynomial g"}),
            ("--element", {"default": None, "help": "optional element to map"}),
        ),
    ),
    "verify": (cmd_verify, _verify_text, "run the seeded property suites", ()),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, render, _, _ = _COMMANDS[args.command]
    try:
        payload = handler(args)
    except json.JSONDecodeError as exc:
        print(f"error (invalid JSON input): {exc}", file=sys.stderr)
        return 1
    except tuple(_ERROR_CATEGORIES) as exc:
        print(f"error ({_error_category(exc)}): {exc}", file=sys.stderr)
        return 1
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render(payload))
    return 1 if payload.get("all_passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
