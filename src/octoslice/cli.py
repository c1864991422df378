"""Command-line front end with JSON input and output.

Each subcommand writes one JSON document to stdout (or to --out) and exits
0 on success or a passed check, 1 when a verification ran and failed, and
2 on unusable input.  Sampling commands draw every random number from
--seed, so identical invocations produce byte-identical output.

Arguments documented as JSON accept an inline literal, an @file reference,
or a plain path to a JSON file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .algebra import Octonion, OrthoPair, UnitImaginary, orthogonal_unit, tau, unit_imaginary_of
from .diffops import (
    cauchy_fueter_op,
    euler_e,
    quaternion_laplacian,
    slice_fueter_op,
    sliceness_check,
    spherical_gamma,
)
from .domains import Domain
from .errors import EmptySampleError, IntegrityError, PreconditionError
from .golden import field_names, get_field
from .liftings import PolyPathO, ccl_search, lift_approximate
from .quotient import build_quotient
from .sampling import SamplePlan, json_reals
from .stems import (
    GridSpec,
    StemVector,
    bers_vekua_residual,
    modulus_local_max_scan,
    sfr_check,
    stem_from_gamma,
    stem_from_two_units,
)


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _write(payload, out: Optional[str]) -> None:
    text = _dump(payload)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise PreconditionError(f"non-finite number {text!r} in the input")
    return value


def _strict_json(text: str):
    # NaN, Infinity and overflowing literals such as 1e999 are refused.
    return json.loads(text, parse_float=_finite, parse_constant=_finite)


def _json_arg(text: str):
    """JSON from an inline literal, an @file reference, or a plain path."""
    if text.startswith("@"):
        return _strict_json(Path(text[1:]).read_text())
    if text.lstrip()[:1] in ("{", "["):
        return _strict_json(text)
    return _strict_json(Path(text).read_text())


def _point(text: str) -> Octonion:
    return Octonion(json_reals(_json_arg(text), (8,), "a point"))


def _unit(data) -> UnitImaginary:
    return UnitImaginary.from_vector(json_reals(data, (7,), "a unit"))


def _unit_pair(text: str) -> tuple[UnitImaginary, UnitImaginary]:
    """The two units of --units, a JSON list of two 7-vectors."""
    pair = _json_arg(text)
    if not isinstance(pair, list) or len(pair) != 2:
        raise PreconditionError("--units expects a JSON list of two 7-vectors")
    return _unit(pair[0]), _unit(pair[1])


def _z_arg(text: str) -> complex:
    alpha, beta = json_reals(_json_arg(text), (2,), '--z "[alpha, beta]"').tolist()
    return complex(alpha, beta)


def _plan(args) -> SamplePlan:
    """The plan of --plan, a JSON object of `SamplePlan` fields, seeded by --seed."""
    data = _json_arg(args.plan) if getattr(args, "plan", None) else {}
    if not isinstance(data, dict):
        raise PreconditionError(f"--plan must be a JSON object, got {type(data).__name__}")
    if "seed" in data:
        raise PreconditionError("--plan takes no seed: give it with --seed")
    try:
        return SamplePlan(**data, seed=args.seed)
    except TypeError as exc:
        raise PreconditionError(f"bad plan: {exc}") from exc


def _domain(args, fallback: Optional[Domain] = None) -> Domain:
    if getattr(args, "domain", None):
        return Domain.from_json(_json_arg(args.domain))
    if fallback is None:
        raise PreconditionError("this command needs --domain")
    return fallback


def _slice_pair(x: Octonion) -> tuple[OrthoPair, np.ndarray]:
    """Quaternion slice through x: I from Im(x), J a deterministic complement."""
    i = unit_imaginary_of(x)
    return OrthoPair(i, orthogonal_unit(i.vec)), np.array([x.re, x.im_norm, 0.0, 0.0])


def _cmd_eval(args) -> int:
    gf = get_field(args.field)
    x = _point(args.point)
    value = gf.field.evaluate(x)
    _write({"field": args.field, "point": x.to_list(), "value": value.to_list()}, args.out)
    return 0


def _cmd_op(args) -> int:
    gf = get_field(args.field)
    x = _point(args.point)
    use_closed = not args.fd
    if args.name == "gamma":
        value = spherical_gamma(gf.field, x, use_closed=use_closed)
    elif args.name == "euler":
        value = euler_e(gf.field, x, use_closed=use_closed)
    elif args.name == "slice-fueter":
        value = slice_fueter_op(gf.field, x, use_closed=use_closed)
    else:
        pair, q = _slice_pair(x)
        op = cauchy_fueter_op if args.name == "cauchy-fueter" else quaternion_laplacian
        value = Octonion(op(gf.field, pair, q[None])[0])
    payload = {
        "field": args.field,
        "name": args.name,
        "norm": value.norm(),
        "point": x.to_list(),
        "value": value.to_list(),
    }
    if args.tolerance is not None:
        payload["pass"] = bool(value.norm() <= args.tolerance)
    _write(payload, args.out)
    return 0 if payload.get("pass", True) else 1


def _cmd_stem(args) -> int:
    gf = get_field(args.field)
    z = _z_arg(args.z)
    if (args.units is None) == (args.unit is None):
        raise PreconditionError("give exactly one of --units or --unit")
    if args.units is not None:
        i1, i2 = (unit.vec[None] for unit in _unit_pair(args.units))
        stem = StemVector(*(Octonion(w[0]) for w in stem_from_two_units(gf.field, np.array([z]), i1, i2)))
    else:
        x = tau(_unit(_json_arg(args.unit)), z)
        stem = stem_from_gamma(gf.field, x, use_closed=not args.fd)
    _write(stem.to_json(), args.out)
    return 0


def _cmd_bv(args) -> int:
    gf = get_field(args.field)
    if gf.stem is None:
        raise PreconditionError(f"field {args.field!r} carries no closed stem")
    res = bers_vekua_residual(gf.stem, np.array([_z_arg(args.z)]), use_closed=not args.fd)
    payload = res.to_json()
    payload["max_norm"] = float(res.max_norms()[0])
    if args.tolerance is not None:
        payload["pass"] = bool(payload["max_norm"] <= args.tolerance)
    _write(payload, args.out)
    return 0 if payload.get("pass", True) else 1


def _cmd_sfr(args) -> int:
    gf = get_field(args.field)
    report = sfr_check(
        gf.field,
        _domain(args, gf.domain),
        _plan(args),
        tolerance=args.tolerance,
        use_closed=not args.fd,
    )
    _write(report.to_json(), args.out)
    return 0 if report.passed else 1


def _cmd_slice(args) -> int:
    gf = get_field(args.field)
    report = sliceness_check(
        gf.field,
        _domain(args, gf.domain),
        _plan(args),
        tolerance=args.tolerance,
        use_closed=not args.fd,
    )
    _write(report.to_json(), args.out)
    return 0 if report.passed else 1


def _cmd_maxmod(args) -> int:
    gf = get_field(args.field)
    grid = GridSpec.from_json(_json_arg(args.grid))
    if args.units is not None:
        ortho = OrthoPair(*_unit_pair(args.units))
    else:
        ortho = OrthoPair(UnitImaginary.basis(1), UnitImaginary.basis(2))
    report = modulus_local_max_scan(gf.field, ortho, grid, _domain(args, gf.domain))
    _write(report.to_json(), args.out)
    return 0 if report.passed else 1


def _cmd_lift(args) -> int:
    data = _json_arg(args.path)
    vertices = json_reals(data["vertices"], (None, 8), "path vertices")
    times = json_reals(data["times"], (None,), "path times") if "times" in data else None
    path = PolyPathO(vertices, times)
    lifting, cert = lift_approximate(path, args.delta, samples=args.samples)
    _write({"certificate": cert, "lifting": lifting.to_json()}, args.out)
    return 0 if cert["passed"] else 1


def _cmd_ccl(args) -> int:
    result = ccl_search(_domain(args), _point(args.x), _point(args.xp), _plan(args))
    _write(result.to_json(), args.out)
    return 0 if result.found else 1


def _cmd_quotient(args) -> int:
    q = build_quotient(_domain(args), _plan(args))
    _write(q.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    from . import acceptance

    if args.only is not None:
        results = [acceptance.run_criterion(args.only, seed=args.seed)]
    else:
        results = acceptance.run_all(seed=args.seed, fail_fast=not args.keep_going)
    payload = {"criteria": results, "pass": all(r["pass"] for r in results)}
    _write(payload, args.out)
    return 0 if payload["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octoslice",
        description="octonionic slice analysis: evaluations, checks, searches, quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *, field=False, point=False, seed=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the JSON result to this file instead of stdout")
        if field:
            p.add_argument(
                "--field",
                required=True,
                choices=field_names(),
                help="built-in field name",
            )
        if point:
            p.add_argument("--point", required=True, help="octonion as a JSON list of 8 floats")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed for all sampling")
            p.add_argument("--plan", help="sample plan overrides (JSON)")
        return p

    add("eval", _cmd_eval, "evaluate a field at a point", field=True, point=True)

    p = add("op", _cmd_op, "apply a differential operator at a point", field=True, point=True)
    p.add_argument(
        "--name",
        required=True,
        choices=["gamma", "euler", "slice-fueter", "cauchy-fueter", "slice-laplacian"],
        help="operator to apply",
    )
    p.add_argument("--tolerance", type=_finite, help="pass/fail threshold on |result|")
    p.add_argument("--fd", action="store_true", help="force finite differences")

    p = add("stem", _cmd_stem, "stem vector of a field at z", field=True)
    p.add_argument("--z", required=True, help='base point as "[alpha, beta]"')
    p.add_argument("--units", help="two units (JSON) for the interpolation path")
    p.add_argument("--unit", help="one unit (JSON) for the spherical-operator path")
    p.add_argument("--fd", action="store_true", help="force finite differences")

    p = add("bv-residual", _cmd_bv, "Bers-Vekua residuals of a closed stem at z", field=True)
    p.add_argument("--z", required=True, help='base point as "[alpha, beta]"')
    p.add_argument("--tolerance", type=_finite, help="pass/fail threshold on the residual")
    p.add_argument("--fd", action="store_true", help="differentiate the stem numerically")

    p = add("sfr-check", _cmd_sfr, "sampled slice Fueter-regularity check", field=True, seed=True)
    p.add_argument("--domain", help="domain JSON; defaults to the field's own")
    p.add_argument("--tolerance", type=_finite, default=1e-5)
    p.add_argument("--fd", action="store_true", help="force finite differences")

    p = add("slice-check", _cmd_slice, "sampled sliceness check", field=True, seed=True)
    p.add_argument("--domain", help="domain JSON; defaults to the field's own")
    p.add_argument("--tolerance", type=_finite, default=1e-6)
    p.add_argument("--fd", action="store_true", help="force finite differences")

    p = add("maxmod-scan", _cmd_maxmod, "strict local maxima of |f| on a slice grid", field=True)
    p.add_argument("--grid", required=True, help="grid JSON: center, half_widths, counts")
    p.add_argument("--units", help="two units (JSON) spanning the slice; default e1, e2")
    p.add_argument("--domain", help="domain JSON; defaults to the field's own")

    p = add("lift-approx", _cmd_lift, "circular lifting within delta of a polygonal path")
    p.add_argument("--path", required=True, help="path JSON: vertices (n x 8), optional times")
    p.add_argument("--delta", type=_finite, required=True, help="approximation bound, > 0")
    p.add_argument("--samples", type=int, help="decomposition resolution override")

    p = add("ccl-search", _cmd_ccl, "search for a coupled-lifting witness", seed=True)
    p.add_argument("--domain", required=True, help="domain JSON")
    p.add_argument("--x", required=True, help="first point (JSON list of 8 floats)")
    p.add_argument("--xp", required=True, help="second point (JSON list of 8 floats)")

    p = add("quotient", _cmd_quotient, "build the sampled quotient of a domain", seed=True)
    p.add_argument("--domain", required=True, help="domain JSON")

    p = add("verify-suite", _cmd_verify, "run the acceptance battery", seed=True)
    p.add_argument("--only", type=int, help="run a single criterion by number")
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="run every criterion instead of stopping at the first failure",
    )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return int(args.handler(args))
    except (
        ValueError,  # DomainError, PreconditionError and ConditioningError among them
        KeyError,
        TypeError,
        OSError,
        ZeroDivisionError,
        EmptySampleError,
        IntegrityError,
    ) as exc:
        sys.stderr.write(_dump({"error": f"{type(exc).__name__}: {exc}"}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
