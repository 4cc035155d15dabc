"""Command-line frontend.

Subcommands: analyze, bracket, classify, normalizer, center, exp-aut, verify.
Common flags: --h, --char, --factors, --degree-bound, --seed,
--output text|json. classify and bracket read derivation JSON from stdin.
Exit codes: 0 success, 1 domain error (category printed), 2 usage error.

`main` builds the context and writes the keys every JSON payload carries,
`command`, `characteristic` and `h` (in text, the `h:` line); each `cmd_*`
returns only its own fields, as values: polynomials, Weyl elements,
center derivations, result records. Each is formatted once, in the output
asked for, by the one JSON writer (`_json_text`: a record under its field
names, its keys in schema.json) or by the text renderers, which read the
same records by attribute. A characteristic-p context whose zeta = h^p y^p
would take p * max(deg h, 1) over `parse.MAX_DEGREE` is refused as a
domain error before it is built.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .centerpoly import CenterPoly
from .context import (
    AhContext,
    FactorListError,
    MembershipError,
    NotCentralizing,
)
from .derivations import (
    AhAlgebraMap,
    CenterDerivation,
    DecompCharZero,
    Derivation,
    InnerWitness,
    InvalidDerivation,
    InvalidDerivationError,
    is_inner,
    make_derivation,
)
from .fields import ExactDivisionError, FieldMismatchError, FieldSpec
from .hochschild import freeness_and_module_report_charp, structure_report_char0
from .parse import MAX_DEGREE, ParseError, parse_factors, parse_poly, parse_weyl
from .poly import Poly, QPoly
from .record import Record
from .verify import PropertyResult, run_verify
from .weyl import WeylElement

# Domain errors (exit 1) and the category printed for each; isinstance picks
# the first match, so every subclass comes before ValueError.
_ERROR_CATEGORIES = {
    ParseError: "parse error",
    FactorListError: "factor list error",
    MembershipError: "membership error",
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
        help='optional factor list, e.g. "x^2,x-1": it must match the squarefree '
        "decomposition of h; irreducibility of a factor is not checked",
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
        help="seed of verify's randomized suites and of analyze's freeness "
        "certificates in characteristic p; only verify reads a negative seed as "
        "a request for a time-based one (fuzzing), and reports the one used",
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
    # zeta = h^p y^p has x-degree p deg h and y-degree p
    zeta_degree = field.characteristic * max(int(h.degree), 1)
    if zeta_degree > MAX_DEGREE:
        raise ValueError(
            f"zeta = h^p*y^p would have degree {zeta_degree} in x or y,"
            f" over the limit {MAX_DEGREE}"
        )
    factors = parse_factors(args.factors, field) if args.factors else None
    return AhContext(h, factors=factors, degree_bound=args.degree_bound)


# types written as their text
_TEXT_TYPES = frozenset((str, Poly, QPoly, WeylElement, CenterPoly))


def _json_text(value) -> str:
    """The JSON text of a payload: the bytes of `json.dumps(indent=2,
    sort_keys=True)` on its JSON form (see `_write_json`), written without
    the pure-Python encoder that `indent` selects there. Made whole before
    it is printed, so an error leaves no output. Any other type is a
    TypeError, and so is a key that is not a string (keys are field names)."""
    out = []
    _write_json(value, "\n", out.append)
    return "".join(out)


def _write_json(value, newline: str, put) -> None:
    """Write `value` through `put`, its nested lines led by `newline`, a
    line break and the indent of its level: a polynomial or Weyl element as
    its text, a center derivation by `describe()`, a result record as the
    object of its fields by name (its slots). Text types are matched first,
    by exact type. Strings take the C escaper of `json`, and a list made
    only of strings and text values is joined in one call."""
    kind = type(value)
    if kind in _TEXT_TYPES:
        put(encode_basestring_ascii(str(value)))
    elif kind is CenterDerivation:
        put(encode_basestring_ascii(value.describe()))
    elif isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        if all(type(v) in _TEXT_TYPES for v in value):
            texts = map(encode_basestring_ascii, map(str, value))
            put(f"[{inner}{(',' + inner).join(texts)}{newline}]")
            return
        lead = "[" + inner
        for v in value:
            put(lead)
            lead = "," + inner
            _write_json(v, inner, put)
        put(newline + "]")
    elif isinstance(value, (dict, Record, PropertyResult)):
        if isinstance(value, dict):
            items = value.items()
        else:
            items = [(name, getattr(value, name)) for name in kind.__slots__]
        if not items:
            put("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, v in sorted(items):
            put(f"{lead}{encode_basestring_ascii(key)}: ")
            lead = "," + inner
            _write_json(v, inner, put)
        put(newline + "}")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _show(value) -> str:
    """A report value as text: yes or no for a flag, and None, a field that
    needs the verified factor list, as a note saying so."""
    if value is None:
        return "(needs --factors)"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


# -- analyze / center -------------------------------------------------------------


def _charp_center(ctx: AhContext) -> dict:
    """zeta, with x^p a generator of Z(A_h), and the polynomials read off it."""
    return {
        "zeta": ctx.zeta_element(),
        "zeta_hat_coeff": ctx.zeta_hat_coeff,
        "hbar": ctx.hbar.to_text("u"),
        "qbreve": ctx.qbreve,
    }


def cmd_analyze(args, ctx: AhContext) -> dict:
    payload = {"pi_h": ctx.pi_h, "varrho_h": ctx.varrho_h, "h_over_pi": ctx.h_over_pi}
    if ctx.field.is_char_zero:
        payload["hh1"] = structure_report_char0(ctx)
        return payload
    payload.update(_charp_center(ctx))
    payload["hbar_components"] = [c.to_text("u") for c in ctx.hbar_components]
    payload["S_basis"] = ctx.theta_complement_S()
    payload["charp_report"] = freeness_and_module_report_charp(ctx, seed=args.seed)
    return payload


def _analyze_text(payload: dict) -> str:
    lines = [
        f"characteristic: {payload['characteristic']}",
        f"pi_h: {payload['pi_h']}",
        f"varrho_h: {payload['varrho_h']}",
        f"h/pi_h: {payload['h_over_pi']}",
    ]
    if "hh1" in payload:
        rep = payload["hh1"]
        primes = rep.multiplicity_gt1_primes
        lines += [
            "HH1 structure (characteristic 0):",
            f"  dim Z(HH1): {rep.dim_center}",
            "  center basis: "
            + (", ".join(f"D_[{g}]" for g in rep.center_basis) or "(empty)"),
            f"  HH1 trivial: {_show(rep.hh1_trivial)}",
            f"  abelian: {_show(rep.abelian)}",
            "  primes with multiplicity > 1: "
            + (
                "(needs --factors)"
                if primes is None
                else ", ".join(f"{u} (multiplicity {a})" for u, a in primes) or "(none)"
            ),
            f"  nilpotent ideal trivial: {_show(rep.nilpotent_N_trivial)}",
            f"  nilpotency index bound: {_show(rep.nilpotency_index_bound)}",
            f"  Witt summands: {_show(rep.witt_summand_count)}",
        ]
    else:
        rep = payload["charp_report"]
        lines += [
            f"zeta: {payload['zeta']}",
            f"delta^p(x)/h: {payload['zeta_hat_coeff']}",
            f"hbar: {payload['hbar']}",
            f"qbreve: {payload['qbreve']}",
            "S basis: " + (", ".join(map(str, payload["S_basis"])) or "(empty)"),
            "HH1 over the center (characteristic p):",
            f"  free of rank 2: {_show(rep.free_over_center)}",
            "  basis if free: "
            + (", ".join(rep.basis_if_free) if rep.basis_if_free else "(not free)"),
            f"  dim Theta/im delta: {rep.theta_quotient_dim}",
            "  Res image generators: "
            + "; ".join(g.describe() for g in rep.res_image_generators),
        ]
        for lvl in rep.normalizer_quotient:
            gens = ", ".join(map(str, lvl.generators)) or "(none)"
            lines.append(
                f"  N/(A_h + Z(A_1)) at y-degree {lvl.y_degree}: dim {lvl.dim}, generators {gens}"
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


def _classification(d: Derivation) -> dict:
    verdict = is_inner(d)
    inner = isinstance(verdict, InnerWitness)
    return {
        "inner": inner,
        "witness": verdict.witness if inner else None,
        "certificate": None if inner else verdict.reason,
        "decomposition": verdict.decomposition,
    }


def cmd_classify(args, ctx: AhContext) -> dict:
    d = _parse_derivation_json(json.loads(sys.stdin.read()), ctx)
    if isinstance(d, InvalidDerivation):
        return {
            "valid": False,
            "defect": d.describe(),
            "inner": None,
            "witness": None,
            "certificate": None,
            "decomposition": None,
        }
    return {"valid": True, "defect": None, **_classification(d)}


def _classification_lines(cls: dict) -> list:
    lines = ["valid: yes"]
    dec = cls["decomposition"]
    if isinstance(dec, DecompCharZero):
        lines.append(f"D part: D_[{dec.g}]")
        for n, r in dec.terms:
            lines.append(f"normalizer term: ad_[({r})*a_{n}]")
    else:
        lines.append(f"u (coefficient of D_qbreve): {dec.u}")
        lines.append(f"v (coefficient of bhat_f): {dec.v}")
        lines.append(f"s (complement of im delta in Theta): {dec.s}")
        lines.append(f"normalizer part: {dec.normalizer_part}")
    lines.append(f"inner witness: {dec.inner_witness}")
    if cls["inner"]:
        lines.append(f"verdict: inner, witness {cls['witness']}")
    else:
        lines.append(f"verdict: outer ({cls['certificate']})")
    return lines


def _classify_text(payload: dict) -> str:
    lines = [f"characteristic: {payload['characteristic']}"]
    if not payload["valid"]:
        lines.append(f"valid: no ({payload['defect']})")
    else:
        lines += _classification_lines(payload)
    return "\n".join(lines)


def cmd_bracket(args, ctx: AhContext) -> dict:
    obj = json.loads(sys.stdin.read())
    if not isinstance(obj, dict) or "left" not in obj or "right" not in obj:
        raise ValueError('bracket JSON must be {"left": {...}, "right": {...}}')
    left = _parse_derivation_json(obj["left"], ctx)
    right = _parse_derivation_json(obj["right"], ctx)
    for name, d in (("left", left), ("right", right)):
        if isinstance(d, InvalidDerivation):
            return {
                "valid": False,
                "defect": f"{name}: {d.describe()}",
                "bracket": None,
                "classification": None,
            }
    br = left.bracket(right)
    return {
        "valid": True,
        "defect": None,
        "bracket": {"Dx": br.image_x, "Dyhat": br.image_yhat},
        "classification": _classification(br),
    }


def _bracket_text(payload: dict) -> str:
    lines = [f"characteristic: {payload['characteristic']}"]
    if not payload["valid"]:
        lines.append(f"valid: no ({payload['defect']})")
        return "\n".join(lines)
    lines.append(f"bracket D(x): {payload['bracket']['Dx']}")
    lines.append(f"bracket D(yhat): {payload['bracket']['Dyhat']}")
    lines.append("classification of the bracket:")
    lines += ["  " + line for line in _classification_lines(payload["classification"])]
    return "\n".join(lines)


# -- normalizer / center / exp-aut ----------------------------------------------------


def cmd_normalizer(args, ctx: AhContext) -> dict:
    a = parse_weyl(args.element, ctx.field)
    res = ctx.normalizer_test(a)
    return {
        "element": a,
        "in_normalizer": res.ok,
        "failing_y_degree": res.failing_y_degree,
        "reason": res.reason,
        "in_ah": ctx.ah_membership(a),
    }


def _normalizer_text(payload: dict) -> str:
    lines = [
        f"element: {payload['element']}",
        f"in A_h: {_show(payload['in_ah'])}",
        f"in normalizer: {_show(payload['in_normalizer'])}",
    ]
    if not payload["in_normalizer"]:
        lines.append(
            f"first failing term: y-degree {payload['failing_y_degree']} ({payload['reason']})"
        )
    return "\n".join(lines)


def cmd_center(args, ctx: AhContext) -> dict:
    if ctx.field.is_char_zero:
        payload = {"description": "Z(A_h) = F (scalars only)"}
    else:
        payload = {"description": "Z(A_h) = F[t1, t2] with t1 = x^p, t2 = zeta", **_charp_center(ctx)}
    if args.element is not None:
        a = parse_weyl(args.element, ctx.field)
        if ctx.field.is_char_zero:
            coords = a if a.is_central_A1() else NotCentralizing("not a scalar")
        else:
            coords = ctx.center_coords(a)
        if isinstance(coords, NotCentralizing):
            payload["element_coords"] = None
            payload["not_central_reason"] = coords.reason
        else:
            payload["element_coords"] = coords
            payload["not_central_reason"] = None
    return payload


def _center_text(payload: dict) -> str:
    lines = [payload["description"]]
    for key in ("zeta", "zeta_hat_coeff", "hbar", "qbreve"):
        if key in payload:
            lines.append(f"{key}: {payload[key]}")
    if "element_coords" in payload:
        if payload["element_coords"] is None:
            lines.append(f"element: not central ({payload['not_central_reason']})")
        else:
            lines.append(f"element coordinates: {payload['element_coords']}")
    return "\n".join(lines)


def cmd_exp_aut(args, ctx: AhContext) -> dict:
    g = parse_poly(args.g, ctx.field)
    phi = AhAlgebraMap(g, ctx)
    payload = {"g": g, "image_x": phi.image_x, "image_yhat": phi.image_yhat}
    if args.element is not None:
        payload["element_image"] = phi.apply(parse_weyl(args.element, ctx.field))
    return payload


def _exp_aut_text(payload: dict) -> str:
    lines = [
        f"g: {payload['g']}",
        f"phi_g(x): {payload['image_x']}",
        f"phi_g(yhat): {payload['image_yhat']}",
    ]
    if "element_image" in payload:
        lines.append(f"phi_g(element): {payload['element_image']}")
    return "\n".join(lines)


# -- verify -----------------------------------------------------------------------------


def cmd_verify(args, ctx: AhContext) -> dict:
    seed = args.seed
    if seed < 0:
        import time

        seed = int(time.time_ns()) % (2**31)
    results = run_verify(ctx, seed=seed)
    return {
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "properties": results,
    }


def _verify_text(payload: dict) -> str:
    lines = [
        f"characteristic: {payload['characteristic']}",
        f"seed: {payload['seed']}",
    ]
    for prop in payload["properties"]:
        status = "pass" if prop.passed else "FAIL"
        lines.append(f"[{status}] {prop.name} ({prop.count} checks)")
        for ce in prop.counterexamples:
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
        ctx = _build_context(args)
        payload = {
            "command": args.command,
            "characteristic": ctx.field.characteristic,
            "h": ctx.h,
            **handler(args, ctx),
        }
        # written here, as a computed coefficient over the digit limit is a domain error
        if args.output == "json":
            text = _json_text(payload)
        else:
            text = f"h: {payload['h']}\n{render(payload)}"
    except json.JSONDecodeError as exc:
        print(f"error (invalid JSON input): {exc}", file=sys.stderr)
        return 1
    except tuple(_ERROR_CATEGORIES) as exc:
        print(f"error ({_error_category(exc)}): {exc}", file=sys.stderr)
        return 1
    print(text)
    return 1 if payload.get("all_passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
