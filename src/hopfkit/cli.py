"""Command-line front end.

Exit codes: 0 = pass, 1 = claim/verification failure, 2 = input error or an
output that cannot be written, an output file or a stdout closed early.
All output is deterministic (sorted JSON keys, no timestamps).  Catalog
constructors never verify; build, bosonize, certify, invariants and simples
run verify_hopf once on the structure they write or report on, and verify
reports each axiom group itself.  dual verifies nothing: it transposes the
tensors it reads, and its output is a Hopf algebra exactly when its input is.
invariants --expect checks a sidecar's claims with certify's report rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import io as hio
from .catalog import FAMILIES, FAMILY_NAMES, build_family
from .certify import certify_family, report_claims
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


class _FamilyParams(dict):
    """A family's command-line parameters; reading one that was not given is an input
    error that names its flag."""

    def __init__(self, family):
        super().__init__()
        self.family = family

    def __missing__(self, key):
        raise ValueError(f"{self.family} needs --{key.replace('_', '-')}")


def _family_params(args) -> dict:
    params = _FamilyParams(args.family)
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


# this and _datum_from_file are paused across the whole read, so that no collection
# between decoding and building walks the JSON tree only to free nothing; the tree is
# freed when they return
@hio.collector_paused
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
    rep, grouplike_failures = invariant_report(h, cd)
    if args.json:
        if not _write_json(rep, args.json):
            return 2
    else:
        print(hio.dumps(rep))
    code = 0 if all(rep["certificates"].values()) else 1
    for why in grouplike_failures:
        print(f"grouplike_certificate: {why}", file=sys.stderr)
    if cd is not None:
        for row in report_claims(h, rep, cd.expected):
            if not row.ok:
                print(f"claim mismatch: {row.claim_id} expected {row.expected} got {row.computed}",
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


@hio.collector_paused
def _datum_from_file(path):
    from .ydnichols import YDDatum

    obj = hio.load_json(path)
    L = _hopf_from_json(obj["algebra"])
    read = hio.coefficient_reader(L.conductor)
    g, chi = read.sparse(obj["g"]), [read(c) for c in obj["chi"]]
    if len(obj["g"]) != L.dim or len(chi) != L.dim:
        raise ValueError(f"g and chi need {L.dim} coefficients each")
    return YDDatum(L, g, chi, read(obj["q"]), label=path)


def cmd_yd_verify(args) -> int:
    try:
        mod = None
        if args.file or args.datum:
            if args.file:
                d = _datum_from_file(args.file)
            else:
                p = 3 if args.p is None else args.p
                # dim L, refused from the datum name and p alone before anything is
                # constructed; every named datum has N = 2
                _check_max_dim(bosonized_dim(args.datum, p) // 2)
                d = named_datum(args.datum, p)
            label, (ok, why) = d.label, validate_yd_datum(d)
        else:
            if args.cls is None:
                raise ValueError("give --file, --datum, or --class and --rep")
            cls = _parse_colon(args.cls, "--class")
            rep = _parse_colon(args.rep, "--rep")
            mod = yd_module_gamma4p(5 if args.p is None else args.p, cls, rep)
            label, (ok, why) = mod.label, verify_yd(mod)
        braid = braid_equation_check(braiding(mod), mod.dim) if ok and mod is not None else None
    except (ValueError, OSError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # printed outside the handler above, so a closed stdout reaches main
    print(f"{label}: {'valid' if ok else f'INVALID ({why})'}")
    if braid is not None:
        print(f"braid equation: {'pass' if braid else 'FAIL'}")
    return 0 if ok else 1


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


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own print_help drops an OSError of the write, so `--help` to a closed
        # unbuffered stdout would exit 0; raised, it reaches main's broken-pipe exit
        (file or sys.stdout).write(self.format_help())


@functools.cache
def build_parser():
    """The argument parser, built once per process: `main` may run many times in one."""
    ap = _Parser(prog="hopfkit",
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
    try:
        try:
            return _run(build_parser().parse_args(argv))
        finally:
            # also when argparse exits after --help
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (`| head`), an output that cannot be written;
        # point it at devnull, so the interpreter's last flush neither fails nor prints
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write stdout: broken pipe", file=sys.stderr)
        return 2


def _run(args) -> int:
    for name in GUARDS:
        try:
            _guard(name)
        except ValueError:
            print(f"error: {name} must be an integer", file=sys.stderr)
            return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
