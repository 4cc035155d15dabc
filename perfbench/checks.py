"""Output checks that the program under test cannot move.

Every job must exit 0 and print one JSON document that validates against
expected/schema.json, a copy of src/ahweyl/schema.json taken when the
benchmark was defined. On top of that:

* analyze: pi_h, varrho_h and h/pi_h, and in characteristic p whether HH^1
  is free over the center, are recomputed with sympy from h alone; a free
  h must come with FREENESS_CERTIFICATES certificates, a non-free one none;
* classify and bracket: the derivations must be valid and the verdict must
  agree with its witness or certificate;
* verify: every property passes, and every property recorded in
  expected/digests.json is present;
* every job: command, characteristic and h are echoed back unchanged, and,
  for jobs recorded in expected/digests.json with the same input, the
  digest of the output equals the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from functools import reduce
from pathlib import Path

import jsonschema
import sympy
from sympy.utilities.exceptions import SymPyDeprecationWarning

EXPECTED = Path(__file__).resolve().parent / "expected"
# analyze certifies this many normalizer derivations when HH^1 is free
FREENESS_CERTIFICATES = 10
_X = sympy.Symbol("x")

# sympy's factor_list over GF(p) sorts with a deprecated comparison
warnings.filterwarnings("ignore", category=SymPyDeprecationWarning)


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def job_input_digest(job) -> str:
    return _digest([job["argv"], job["stdin"]])


class Checker:
    def __init__(self, workload: str, seed: int):
        schema = json.loads((EXPECTED / "schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        path = EXPECTED / "digests.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        # property names per field kind: {"char0": [...], "charp": [...]}
        self.verify_properties = recorded.get("verify_properties", {})
        entry = recorded.get("workloads", {}).get(workload, {})
        self.recorded = entry.get("jobs", {}) if entry.get("seed") == seed else {}

    def output_digest(self, payload) -> str:
        """Digest of the output; verify's property list counts only the
        properties recorded, so a later property does not change it."""
        if payload.get("command") == "verify":
            known = {n for names in self.verify_properties.values() for n in names}
            payload = dict(payload)
            payload["properties"] = [p for p in payload["properties"] if p["name"] in known]
        return _digest(payload)

    def check(self, job, result):
        """None if the job's output is correct, else the reason it is not."""
        if result["status"] != "ok":
            return f"{result['status']} (exit code {result['exit_code']}): {result['stderr'][-200:]}"
        try:
            payload = json.loads(result["stdout"])
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        error = next(iter(self.validator.iter_errors(payload)), None)
        if error is not None:
            return f"schema: {error.message[:200]}"
        for key, want in (("command", job["command"]), ("characteristic", job["p"]), ("h", job["h"])):
            if payload.get(key) != want:
                return f"{key} is {payload.get(key)!r}, expected {want!r}"
        reason = {
            "analyze": _check_analyze,
            "classify": _check_classify,
            "bracket": _check_bracket,
            "verify": self._check_verify,
        }[job["command"]](payload, job)
        if reason:
            return reason
        rec = self.recorded.get(job["id"])
        if rec is not None:
            if rec["input"] != job_input_digest(job):
                return "input differs from the recorded input for this job"
            if rec["output"] != self.output_digest(payload):
                return "output digest differs from the recorded one"
        return None

    def _check_verify(self, payload, job):
        if not payload["all_passed"] or not all(p["passed"] for p in payload["properties"]):
            return "verify reports a failing property"
        seed = int(job["argv"][job["argv"].index("--seed") + 1])
        if payload["seed"] != seed:
            return f"verify ran seed {payload['seed']}, expected {seed}"
        names = {p["name"] for p in payload["properties"]}
        wanted = self.verify_properties.get("char0" if job["p"] == 0 else "charp", [])
        missing = [n for n in wanted if n not in names]
        if missing:
            return f"verify lost properties: {missing[:3]}"
        return None


# -- analyze oracle ---------------------------------------------------------------


def _sympy_poly(text, p):
    expr = sympy.sympify(text.replace("^", "**"), locals={"x": _X})
    return sympy.Poly(expr, _X, domain=sympy.GF(p) if p else sympy.QQ)


def _monic(f):
    return f.monic() if f.degree() > 0 else f.one


def analyze_oracle(h_text, p):
    """(pi_h, varrho_h, h/pi_h) from sympy's factorization of h:
    pi_h is the product of the monic primes whose multiplicity p does not
    divide, varrho_h the largest p-th power dividing h (1 over Q)."""
    h = _sympy_poly(h_text, p)
    _, factors = h.factor_list()
    one = h.one
    pi = reduce(lambda acc, fa: acc * _monic(fa[0]) if (p == 0 or fa[1] % p) else acc, factors, one)
    rho = one
    if p:
        for u, a in factors:
            rho = rho * _monic(u) ** (p * (a // p))
    return pi, rho, h.exquo(pi)


def _check_analyze(payload, job):
    p = job["p"]
    pi, rho, h_over_pi = analyze_oracle(job["h"], p)
    for key, want in (("pi_h", pi), ("varrho_h", rho), ("h_over_pi", h_over_pi)):
        if _sympy_poly(payload[key], p) != want:
            return f"{key} is {payload[key]}, sympy gives {want.as_expr()}"
    if p:
        report = payload["charp_report"]
        free = h_over_pi.degree() == 0
        if report["free_over_center"] != free:
            return f"free_over_center is {report['free_over_center']}, expected {free}"
        want = FREENESS_CERTIFICATES if free else 0
        if report["freeness_certificates"] != want:
            return f"{report['freeness_certificates']} freeness certificates, expected {want}"
    return None


# -- classify / bracket ----------------------------------------------------------------


def _check_verdict(cls):
    if cls["inner"]:
        if cls["witness"] is None or cls["certificate"] is not None:
            return "inner verdict without a witness"
    elif cls["witness"] is not None or not cls["certificate"]:
        return "outer verdict without a certificate"
    return None


def _check_classify(payload, job):
    if not payload["valid"]:
        return f"derivation reported invalid: {payload['defect']}"
    return _check_verdict(payload)


def _check_bracket(payload, job):
    if not payload["valid"]:
        return f"derivation reported invalid: {payload['defect']}"
    return _check_verdict(payload["classification"])
