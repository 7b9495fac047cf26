"""Command-line front end.

Exit codes: 0 = pass, 1 = claim/verification failure, 2 = input error or an
output file that cannot be written.
All output is deterministic (sorted JSON keys, no timestamps).  Catalog
constructors never verify; every command that writes or reports on a
structure runs verify_hopf on it here, once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import io as hio
from .catalog import FAMILIES, FAMILY_NAMES, build_family
from .certify import certify_family
from .hopf import dual as hopf_dual
from .hopf import verify_algebra, verify_antipode, verify_bialgebra, verify_coalgebra, verify_hopf
from .invariants import invariant_report, jacobson_radical
from .repsolver import wedderburn_certificate
from .ydnichols import (
    DATUM_NAMES,
    bosonize,
    bosonized_dim,
    braid_equation_check,
    braiding,
    named_datum,
    nichols_dims,
    validate_yd_datum,
    verify_yd,
    yd_module_gamma4p,
)

# integer guards read from the environment, with their defaults; main checks them
GUARDS = {"HOPFKIT_MAX_DIM": 64, "HOPFKIT_NICHOLS_GUARD_MB": 512}


def _guard(name: str) -> int:
    return int(os.environ.get(name, GUARDS[name]))


def _check_max_dim(dim: int) -> None:
    """ValueError when dim exceeds HOPFKIT_MAX_DIM."""
    max_dim = _guard("HOPFKIT_MAX_DIM")
    if dim > max_dim:
        raise ValueError(f"dimension {dim} exceeds HOPFKIT_MAX_DIM={max_dim}")


def _family_params(args) -> dict:
    params = {}
    for key in ("n", "p", "ns", "alpha", "q_power", "lambda_power", "group"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    return params


def _add_family_args(sub):
    sub.add_argument("family", choices=FAMILY_NAMES)
    sub.add_argument("--n", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--ns", type=str, help="comma-separated cyclic orders")
    sub.add_argument("--alpha", type=int)
    sub.add_argument("--q-power", dest="q_power", type=int)
    sub.add_argument("--lambda-power", dest="lambda_power", type=int)
    sub.add_argument("--group", type=str, help="group kind for dual-group")


def cmd_build(args) -> int:
    params = _family_params(args)
    try:
        # refused from the parameters alone, before anything is constructed
        _check_max_dim(FAMILIES[args.family].dim(params))
        h, cd = build_family(args.family, params)
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if _fails_verify_hopf(h):
        return 1
    stem = args.out[:-5] if args.out.endswith(".json") else args.out
    if not (_write_json(hio.hopf_to_json(h), args.out)
            and _write_json(hio.candidate_to_json(cd, h), stem + ".sidecar.json")):
        return 2
    print(f"wrote {args.out} (dim {h.dim}) and {stem}.sidecar.json")
    return 0


def _write_json(payload, path) -> bool:
    """hio.dump_json, with an output path that cannot be written reported on one stderr line."""
    try:
        hio.dump_json(payload, path)
    except OSError as e:
        print(f"error: cannot write {path}: {e.strerror or e}", file=sys.stderr)
        return False
    return True


def _hopf_from_json(obj):
    """hio.hopf_from_json, refusing dim above HOPFKIT_MAX_DIM before anything is allocated."""
    _check_max_dim(hio.exact_int(obj["dim"], "dim"))
    return hio.hopf_from_json(obj)


def _load_hopf(path):
    try:
        return _hopf_from_json(hio.load_json(path))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return None


def _fails_verify_hopf(h) -> bool:
    """Print the verify_hopf failures to stderr; no invariants of a non-Hopf structure."""
    rep = verify_hopf(h)
    for f in rep.failures:
        print(f"verify_hopf: {f}", file=sys.stderr)
    return not rep.ok


def cmd_verify(args) -> int:
    h = _load_hopf(args.path)
    if h is None:
        return 2
    ok = True
    for name, fn in (("algebra", verify_algebra), ("coalgebra", verify_coalgebra),
                     ("bialgebra", verify_bialgebra), ("antipode", verify_antipode)):
        rep = fn(h)
        print(f"{name}: {'pass' if rep.ok else 'FAIL'}")
        for f in rep.failures:
            print(f"  {f}")
        ok = ok and rep.ok
    return 0 if ok else 1


def cmd_invariants(args) -> int:
    h = _load_hopf(args.path)
    if h is None:
        return 2
    cd = None
    if args.expect:
        try:
            cd = hio.candidate_from_json(hio.load_json(args.expect), h)
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            print(f"parse error in sidecar: {e}", file=sys.stderr)
            return 2
    if _fails_verify_hopf(h):
        return 1
    rep = invariant_report(h, cd)
    payload = hio.report_to_json(rep)
    if args.json:
        if not _write_json(payload, args.json):
            return 2
    else:
        print(hio.dumps(payload))
    code = 0
    if not all(rep.certificates.values()):
        code = 1
    for why in rep.grouplike_failures:
        print(f"grouplike_certificate: {why}", file=sys.stderr)
    if cd is not None:
        comparable = {
            "dim": rep.dim,
            "coradical_dim": rep.coradical_dim,
            "radical_dim": rep.radical_dim,
            "grouplike_count": rep.grouplike_count,
            "grouplike_orders": rep.grouplike_orders,
            "semisimple": rep.semisimple,
            "chevalley": rep.chevalley,
            "distinguished_grouplike": rep.distinguished_grouplike_index,
        }
        for key, got in comparable.items():
            if key in cd.expected and got != cd.expected[key]:
                print(f"claim mismatch: {key} expected {cd.expected[key]} got {got}",
                      file=sys.stderr)
                code = 1
    return code


def cmd_dual(args) -> int:
    h = _load_hopf(args.path)
    if h is None:
        return 2
    if not _write_json(hio.hopf_to_json(hopf_dual(h)), args.out):
        return 2
    print(f"wrote {args.out}")
    return 0


def cmd_simples(args) -> int:
    h = _load_hopf(args.path)
    if h is None:
        return 2
    try:
        side = hio.load_json(args.modules)
        cd = hio.candidate_from_json(side, h)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    if _fails_verify_hopf(h):
        return 1
    rad = jacobson_radical(h).dim
    cert = wedderburn_certificate(h, cd.simples, rad)
    payload = {
        "ok": cert.ok,
        "profile": cert.profile,
        "radical_dim": rad,
        "details": cert.details,
    }
    print(hio.dumps(payload))
    return 0 if cert.ok else 1


def _parse_colon(s, what):
    if s is None:
        raise ValueError(f"{what} name:index is required")
    parts = s.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected {what} as name:index, got {s!r}")
    return parts[0], int(parts[1])


def cmd_nichols(args) -> int:
    from .cyclotomic import root_of_unity

    try:
        if args.qline:
            if ":" in args.qline:
                n, k = (int(x) for x in args.qline.split(":"))
            else:
                n, k = int(args.qline), 1
            c = {(0, 0): {(0, 0): root_of_unity(n, k)}}
            v = 1
            label = f"qline({n},{k})"
        else:
            if args.cls is None:
                raise ValueError("give --qline, or --class and --rep")
            cls = _parse_colon(args.cls, "--class")
            rep = _parse_colon(args.rep, "--rep")
            mod = yd_module_gamma4p(args.p, cls, rep)
            ok, why = verify_yd(mod)
            if not ok:
                print(f"module fails the Yetter-Drinfeld axiom: {why}", file=sys.stderr)
                return 1
            c = braiding(mod)
            v = mod.dim
            label = mod.label
        report = nichols_dims(c, v, cutoff=args.cutoff,
                              guard_mb=_guard("HOPFKIT_NICHOLS_GUARD_MB"))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    payload = {
        "module": label,
        "ranks": report.ranks,
        "cutoff": report.cutoff,
        "truncated": report.truncated,
        "total_dim": report.total_dim,
        "guard_hit": report.guard_hit,
    }
    print(hio.dumps(payload))
    return 0


def _datum_from_file(path):
    from .ydnichols import YDDatum

    obj = hio.load_json(path)
    L = _hopf_from_json(obj["algebra"])
    read = hio.coefficient_reader(L.conductor)
    g, chi = ([read(c) for c in obj[key]] for key in ("g", "chi"))
    if len(g) != L.dim or len(chi) != L.dim:
        raise ValueError(f"g and chi need {L.dim} coefficients each")
    return YDDatum(L, {i: c for i, c in enumerate(g) if not c.is_zero()}, chi, read(obj["q"]),
                   label=path)


def cmd_yd_verify(args) -> int:
    try:
        mod = None
        if args.file or args.datum:
            d = (_datum_from_file(args.file) if args.file
                 else named_datum(args.datum, 3 if args.p is None else args.p))
            label, (ok, why) = d.label, validate_yd_datum(d)
        else:
            if args.cls is None:
                raise ValueError("give --file, --datum, or --class and --rep")
            cls = _parse_colon(args.cls, "--class")
            rep = _parse_colon(args.rep, "--rep")
            mod = yd_module_gamma4p(5 if args.p is None else args.p, cls, rep)
            label, (ok, why) = mod.label, verify_yd(mod)
        print(f"{label}: {'valid' if ok else f'INVALID ({why})'}")
        if ok and mod is not None:
            c = braiding(mod)
            print(f"braid equation: {'pass' if braid_equation_check(c, mod.dim) else 'FAIL'}")
        return 0 if ok else 1
    except (ValueError, OSError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def cmd_bosonize(args) -> int:
    p = 3 if args.p is None else args.p
    try:
        # refused from the datum name and p alone, before anything is constructed
        _check_max_dim(bosonized_dim(args.datum, p))
        d = named_datum(args.datum, p)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        ok, why = validate_yd_datum(d)
        if not ok:
            print(f"invalid datum: {why}", file=sys.stderr)
            return 1
        h = bosonize(d)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if _fails_verify_hopf(h):
        return 1
    if args.out:
        if not _write_json(hio.hopf_to_json(h), args.out):
            return 2
        print(f"wrote {args.out} (dim {h.dim})")
    else:
        print(hio.dumps(hio.hopf_to_json(h)))
    return 0


def cmd_certify(args) -> int:
    try:
        suite = certify_family(args.family, _family_params(args))
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(suite.render())
    if args.json and not _write_json(suite.to_json(), args.json):
        return 2
    return 0 if suite.ok else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process: `main` may run many times in one."""
    ap = argparse.ArgumentParser(prog="hopfkit",
                                 description="exact Hopf algebra construction and certification")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a catalog family to JSON")
    _add_family_args(b)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="run the Hopf axiom verifiers on a file")
    v.add_argument("path")
    v.set_defaults(fn=cmd_verify)

    i = sub.add_parser("invariants", help="compute the invariant report")
    i.add_argument("path")
    i.add_argument("--expect", help="sidecar JSON with claimed data")
    i.add_argument("--json", help="write the report to this path")
    i.set_defaults(fn=cmd_invariants)

    d = sub.add_parser("dual", help="write the dual Hopf algebra")
    d.add_argument("path")
    d.add_argument("--out", required=True)
    d.set_defaults(fn=cmd_dual)

    s = sub.add_parser("simples", help="Wedderburn certificate for a module list")
    s.add_argument("path")
    s.add_argument("modules", help="sidecar JSON carrying the modules")
    s.set_defaults(fn=cmd_simples)

    n = sub.add_parser("nichols", help="quantum symmetrizer ranks")
    n.add_argument("--p", type=int, default=5)
    n.add_argument("--class", dest="cls", help="conjugacy class, e.g. y:1 or x:2")
    n.add_argument("--rep", help="centralizer irrep, e.g. psi:1 or chi:3")
    n.add_argument("--qline", help="one-dimensional braiding N or N:k for zeta_N^k")
    n.add_argument("--cutoff", type=int)
    n.set_defaults(fn=cmd_nichols)

    y = sub.add_parser("yd-verify", help="validate a Yetter-Drinfeld datum or module")
    y.add_argument("--datum", choices=list(DATUM_NAMES))
    y.add_argument("--file", help="JSON datum: {algebra, g, chi, q}")
    y.add_argument("--p", type=int,
                   help="odd prime: default 5 with --class, as in nichols; 3 with --datum")
    y.add_argument("--class", dest="cls")
    y.add_argument("--rep")
    y.set_defaults(fn=cmd_yd_verify)

    bo = sub.add_parser("bosonize", help="biproduct of a quantum line with a datum")
    bo.add_argument("--datum", required=True, choices=list(DATUM_NAMES))
    bo.add_argument("--p", type=int)
    bo.add_argument("--out")
    bo.set_defaults(fn=cmd_bosonize)

    c = sub.add_parser("certify", help="re-verify every claimed invariant of a family")
    _add_family_args(c)
    c.add_argument("--json", help="also write the table as JSON")
    c.set_defaults(fn=cmd_certify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name in GUARDS:
        try:
            _guard(name)
        except ValueError:
            print(f"error: {name} must be an integer", file=sys.stderr)
            return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
