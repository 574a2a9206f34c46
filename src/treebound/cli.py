"""Command-line front end: compile, bound, verify, oracle, spectral, fixtures.

Exit codes: 0 success, 1 invalid certificate / failed bound or audit,
2 usage or parse errors.  Reports print exact values first, then decimal
brackets, then the claim the fixture carries.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import fixtures as fixreg
from .errors import ParseError, TreeboundError
from .numeric import (
    PARSE_FAULTS,
    NumberField,
    Q,
    decimal_str,
    format_number,
    nthroot_field,
    parse_rational,
    poly_from_string,
    poly_to_string,
    read_text,
    sign_of,
)
from .oracle import (
    SHAPE_CAP,
    bound_audit,
    max_count_via_levels,
    max_count_via_shapes_system,
)
from .search import (
    Certificate,
    Found,
    SearchConfig,
    Valid,
    find_certificate,
    format_certificate,
    load_certificate,
    parse_certificate,
    upper_bound_report,
    verify_certificate,
    with_witnesses,
)
from .spectral import load_gadget, lower_bound, lower_bound_from_matrix, SquareMatrix
from .system import format_system, load_system, trim
from .automaton import compile as compile_automaton, parse_automaton


def parse_alpha_spec(spec: str):
    """`p/q`, `root(poly, lo, hi)`, or `nthroot(p/q, n)` -> (value, field|None).

    A spec that names no positive real is a ParseError, as one that does not
    parse is."""
    spec = spec.strip()
    try:
        alpha, nf = _alpha_from_spec(spec)
    except PARSE_FAULTS as exc:
        raise ParseError(f"alpha spec {spec!r}: {exc}") from None
    if sign_of(alpha) <= 0:
        raise ParseError(f"alpha must be positive: {spec!r}")
    return alpha, nf


def _alpha_from_spec(spec: str):
    if spec.startswith("root(") and spec.endswith(")"):
        poly, lo, hi = spec[5:-1].rsplit(",", 2)
        nf = NumberField(poly_from_string(poly), parse_rational(lo),
                         parse_rational(hi))
    elif spec.startswith("nthroot(") and spec.endswith(")"):
        x, n = spec[8:-1].split(",")
        x, n = parse_rational(x), int(n)
        if n == 1:
            return x, None
        nf = nthroot_field(x, n)
    else:
        return parse_rational(spec), None
    return nf.alpha(), nf


def _load_trimmed(path):
    """The system at path restricted to its accessible and co-accessible
    coordinates: what `bound` searches on, so what `verify` and `fixtures
    run` check against."""
    return trim(load_system(path))[0]


def positive_int(text: str) -> int:
    """argparse type for counts, sizes and budgets: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def _write_out(text: str, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# -- subcommands ------------------------------------------------------------------


def cmd_compile(args) -> int:
    automaton = parse_automaton(read_text(args.automaton))
    system = compile_automaton(automaton)
    if args.trim:
        system, kept = trim(system)
        print(f"# trimmed to {system.dim} coordinates: "
              + " ".join(system.name_of(i) for i in range(system.dim)),
              file=sys.stderr)
    _write_out(format_system(system), args.output)
    return 0


def cmd_bound(args) -> int:
    system = _load_trimmed(args.system)
    alpha, nf = parse_alpha_spec(args.alpha)
    if args.verify:
        text = read_text(args.verify)
        cert, witnessed = parse_certificate(text), None
        if args.emit_certificate:
            # witnesses first, keeping CERT's own where they hold, so the
            # verify of the written text asks no LP
            witnessed = with_witnesses(text, system, alpha, cert)
            if witnessed is not None:
                cert = parse_certificate(witnessed)
        rc = _verify_and_report(system, cert, alpha=alpha)
        if rc == 0 and witnessed is not None:
            _write_out(witnessed, args.emit_certificate)
            print(f"certificate with witnesses written to "
                  f"{args.emit_certificate}")
        return rc
    seeds = ()
    if args.seed_file:
        seed_cert = load_certificate(args.seed_file)
        seeds = seed_cert.seeds + seed_cert.vectors
    cfg = SearchConfig(max_iterations=args.max_iter,
                       max_vectors=args.max_vectors)
    result = find_certificate(system, alpha, seeds, cfg, number_field=nf)
    if isinstance(result, Found):
        cert = result.certificate
        print(f"found a certificate in {result.iterations} iterations")
        print(upper_bound_report(cert.alpha, cert.C, len(cert.vectors),
                                 n_samples=args.sample or ()))
        if args.emit_certificate:
            _write_out(format_certificate(cert), args.emit_certificate)
            print(f"certificate written to {args.emit_certificate}")
        return 0
    print(f"budget exhausted ({result.reason}) after {result.iterations} "
          f"iterations with {len(result.vectors)} vectors")
    if result.growth_trace:
        print("growth of max F.v over levels of the scaled system "
              "(divergence means alpha is below the true rate):")
        for k, val in result.growth_trace:
            print(f"  k = {k}: {decimal_str(val)}")
    if args.emit_certificate:
        field = system.number_field if nf is None else nf
        partial = Certificate(field, alpha, result.vectors)
        text = "# partial search state, resumable via --seed-file\n" \
            + format_certificate(partial)
        _write_out(text, args.emit_certificate)
        print(f"partial state written to {args.emit_certificate}")
    return 1


def _verify_and_report(system, cert, alpha=None, claim=None) -> int:
    alpha = cert.alpha if alpha is None else alpha
    outcome = verify_certificate(system, alpha, cert.vectors, cert.witnesses,
                                 cert.field)
    if isinstance(outcome, Valid):
        print("certificate VALID")
        if cert.C is not None and sign_of(cert.C - outcome.C) != 0:
            print("  note: stated C differs from the derived C; "
                  "using the derived value")
        print(upper_bound_report(alpha, outcome.C, len(cert.vectors),
                                 citation=claim))
        return 0
    print("certificate INVALID")
    kind = "seed vector V0/alpha" if outcome.kind == "seed" else "product"
    print(f"  escaping {kind}: "
          + " ".join(format_number(c) for c in outcome.witness))
    return 1


def cmd_verify(args) -> int:
    system = _load_trimmed(args.system)
    cert = load_certificate(args.certificate)
    return _verify_and_report(system, cert)


def cmd_oracle(args) -> int:
    k = args.k
    if args.audit:
        system = _load_trimmed(args.system)
        cert = load_certificate(args.audit)
        report = bound_audit(system, cert, k)
        print(report.render())
        return 0
    system = load_system(args.system)
    mode = "both"
    if args.shapes:
        mode = "shapes"
    elif args.levels:
        mode = "levels"
    vals = {}
    if mode in ("levels", "both"):
        vals["levels"] = max_count_via_levels(system, k)
        print(f"max count over trees of order {k} (level route):  "
              f"{vals['levels']}")
    if mode in ("shapes", "both"):
        vals["shapes"] = max_count_via_shapes_system(system, k)
        print(f"max count over trees of order {k} (shape route):  "
              f"{vals['shapes']}")
    if mode == "both" and sign_of(vals["levels"] - vals["shapes"]) != 0:
        print("DISAGREEMENT between the two routes", file=sys.stderr)
        return 1
    return 0


def cmd_spectral(args) -> int:
    if args.count is not None:
        m = SquareMatrix(((Q(args.count),),))
        lb = lower_bound_from_matrix(m, args.size)
    else:
        system = load_system(args.system)
        gadget = load_gadget(args.gadget)
        lb = lower_bound(system, gadget, args.size)
    print(f"transfer matrix ({lb.matrix.n}x{lb.matrix.n}); characteristic "
          f"polynomial: {poly_to_string(lb.char)}")
    print("  coefficients (low to high): "
          + ",".join(format_number(c) for c in lb.char))
    print(f"growth lower bound: beta = (largest real root)^(1/{lb.gadget_size})"
          f" ~ {lb.decimal(args.digits)}")
    lo, hi = lb.interval
    print(f"  bracket: [{format_number(lo)}, {format_number(hi)}]")
    if not lb.dominance_verified:
        print("  note: transfer matrix is not primitive; dominance of the "
              "largest real eigenvalue was not verified")
    return 0


def cmd_fixtures(args) -> int:
    if args.action == "list":
        for f in fixreg.FIXTURES:
            tag = " [slow search]" if f.slow_search else ""
            print(f"{f.name:24s} {f.description}{tag}")
            print(f"{'':24s}   {f.claim}")
        return 0
    names = args.names or [f.name for f in fixreg.FIXTURES]
    status = 0
    for name in names:
        f = fixreg.BY_NAME.get(name)
        if f is None:
            print(f"unknown fixture {name!r}", file=sys.stderr)
            return 2
        print(f"== {f.name}: {f.description}")
        system = _load_trimmed(fixreg.data_path(f.system))
        if f.certificate:
            cert = load_certificate(fixreg.data_path(f.certificate))
            rc = _verify_and_report(system, cert, claim=f.claim)
            status = max(status, rc)
        if f.gadget and f.gadget_size:
            lb = lower_bound(system, load_gadget(fixreg.data_path(f.gadget)),
                             f.gadget_size)
            print(f"lower bound ~ {lb.decimal()}")
        if f.direct_count:
            n, size = f.direct_count
            lb = lower_bound_from_matrix(SquareMatrix(((Q(n),),)), size)
            print(f"lower bound from {n} selections per {size} vertices "
                  f"~ {lb.decimal()}")
        if args.search and not f.slow_search:
            alpha, nf = parse_alpha_spec(f.alpha_spec)
            seeds = ()
            if f.search_seed_file:
                seeds = load_certificate(
                    fixreg.data_path(f.search_seed_file)).seeds
            result = find_certificate(system, alpha, seeds,
                                      number_field=nf)
            ok = isinstance(result, Found)
            print(f"search: {'converged' if ok else 'budget exhausted'}")
            status = max(status, 0 if ok else 1)
    return status


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each parse fills a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="treebound",
        description="exact growth-rate bounds for counted vertex-subset "
                    "families over trees, via bilinear systems")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="automaton file -> system file")
    p.add_argument("automaton")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--trim", action="store_true",
                   help="drop coordinates that are not accessible and "
                        "co-accessible")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("bound", help="search for an invariant polytope "
                                     "certificate at a given scaling")
    p.add_argument("system")
    p.add_argument("--alpha", required=True,
                   help="p/q, root(poly,lo,hi), or nthroot(p/q,n)")
    p.add_argument("--seed-file", default=None,
                   help="certificate file whose vectors seed the search")
    p.add_argument("--max-iter", type=positive_int, default=10_000)
    p.add_argument("--max-vectors", type=positive_int, default=2_000)
    p.add_argument("--emit-certificate", default=None, metavar="PATH",
                   help="write the certificate found, or with --verify a "
                        "valid certificate with its membership witnesses")
    p.add_argument("--verify", default=None, metavar="PATH",
                   help="skip the search and verify this certificate at "
                        "--alpha")
    p.add_argument("--sample", type=int, action="append",
                   help="also print the concrete bound C*alpha^n for this n")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="check a certificate file exactly")
    p.add_argument("system")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force maximum counts")
    p.add_argument("--system", required=True)
    p.add_argument("--k", type=positive_int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--shapes", action="store_true")
    g.add_argument("--levels", action="store_true")
    g.add_argument("--audit", metavar="CERT",
                   help="check counts against this certificate for k' <= k")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("spectral", help="transfer-matrix lower bound")
    p.add_argument("system", nargs="?")
    p.add_argument("--gadget", default=None)
    p.add_argument("--count", type=positive_int, default=None,
                   help="selections per block (degenerate 1x1 matrix)")
    p.add_argument("--size", type=positive_int, required=True,
                   help="tree vertices consumed per gadget iteration")
    p.add_argument("--digits", type=positive_int, default=6)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("fixtures", help="list or run the bundled examples")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("names", nargs="*")
    p.add_argument("--search", action="store_true",
                   help="also rerun the certificate searches (skips the "
                        "flagged hours-long ones)")
    p.set_defaults(func=cmd_fixtures)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    # argparse fills `fixtures run`'s names on reading `run`, so names after
    # --search come back unparsed
    args, rest = ap.parse_known_args(argv)
    if args.command == "fixtures" and not any(a.startswith("-") for a in rest):
        args.names += rest
    elif rest:
        ap.error(f"unrecognized arguments: {' '.join(rest)}")
    if args.command == "spectral" and args.count is None and (
            args.system is None or args.gadget is None):
        ap.error("spectral needs either --count or a system and --gadget")
    if (args.command == "oracle" and not (args.levels or args.audit)
            and args.k > SHAPE_CAP):
        ap.error(f"the shape route takes --k <= {SHAPE_CAP}; "
                 "use --levels for larger k")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except TreeboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
