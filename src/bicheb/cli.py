"""Command-line front end.

Subcommands: fk, construct, decide, integrate, verify, complete, multi,
perturb.  Quartic coefficients are always given in the order c1,c2,c3,c4
of the monic quartic x^4 + c1 x^3 + c2 x^2 + c3 x + c4 (highest power
first).  Values starting with a minus sign need the attached form, e.g.
--p=-2,-3,2,2.  Inputs parse as exact rationals ("3/4", "-2", "0.01" ->
1/100); --rationalize instead snaps binary-float input strings to their
exact float values.  Exit codes: 0 decided-yes, 3 decided-no, 1 usage or
internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from fractions import Fraction

from . import elliptic, multipartite
from .bipartite import (
    COMPOSE_MAX_N,
    FK_MAX_S,
    SCAN_MAX_N,
    QuarticCoeffs,
    UNIT_AMPLITUDE,
    UNIT_LEADING,
    build_solution,
    conditions,
    continuation,
    fk_table,
    solve_c1,
)
from .elliptic import ClosedForm, IntervalNotValid, Refusal, decide, numeric_check, render, render_refusal
from .partitions import fk_terms, format_fk
from .poly import Poly, horner
from .quadrature import ToleranceNotReached
from .scalars import NumberTooLong, parse_rational

EXIT_YES = 0
EXIT_USAGE = 1
EXIT_NO = 3

# largest s multi accepts: with a quartic p and q = x, s = 1000 takes about
# 2 s and s = 2000 about 14 s
MULTI_MAX_S = 1000


@contextlib.contextmanager
def _exact_digits():
    """Lift Python's int-to-str digit limit while a command runs.

    Refusals print every divisor's exact d, which passes the default 4300
    digits from about n = 840 on, and fk --eval and multi values pass it
    on long inputs.  Input numbers stay bounded: parse_rational checks
    their digit runs and decimal exponents against the default itself,
    and argparse parses ints before.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_value(text: str, rationalize: bool) -> Fraction:
    if rationalize:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"value {text!r} is not a finite number")
        return Fraction(value)
    return parse_rational(text)


def _parse_endpoint(text: str) -> float:
    """An --interval endpoint: an exact rational, used as a finite float."""
    try:
        return float(parse_rational(text))
    except NumberTooLong:
        raise
    except (ValueError, OverflowError):
        raise ValueError(
            "--interval endpoints must be finite rationals (a/b, integer or "
            f"decimal), got {text.strip()!r}"
        ) from None


def _parse_quartic(text: str, rationalize: bool) -> QuarticCoeffs:
    parts = [t for t in text.split(",") if t.strip()]
    if len(parts) != 4:
        raise ValueError("--p expects four comma-separated values c1,c2,c3,c4")
    return QuarticCoeffs.from_list([_parse_value(t, rationalize) for t in parts])


def _parse_coeff_list(text: str, rationalize: bool) -> list[Fraction]:
    return [_parse_value(t, rationalize) for t in text.split(",") if t.strip()]


def _parse_coeff_name(text: str, flag: str) -> int:
    """The index k of a quartic coefficient named exactly c1, c2, c3 or c4."""
    name = text.strip().lower()
    if name not in ("c1", "c2", "c3", "c4"):
        raise ValueError(f"{flag} expects one of c1..c4, got {text!r}")
    return int(name[1])


def _decision_text(out, verbose: bool) -> str:
    if isinstance(out, Refusal):
        return render_refusal(out)
    lines = [
        f"decided: yes  n={out.n}  s={out.s}  branch={out.branch}  "
        f"d={out.d}  m2={out.m2}",
        f"G ({out.convention}) = {out.G.format()}",
        f"residual_zero: {out.residual_zero}",
        render(out, "text"),
    ]
    if verbose:
        lines.append("divisor diagnostics:")
        lines += [f"  {dv.line()}" for dv in out.divisors]
    return "\n".join(lines)


# Each cmd_* returns (exit code, output): a JSON payload under --json, else text.


def cmd_decide(args):
    out = decide(args.n, _parse_quartic(args.p, args.rationalize))
    code = EXIT_YES if isinstance(out, ClosedForm) else EXIT_NO
    return code, out.as_dict() if args.json else _decision_text(out, args.verbose)


def cmd_integrate(args):
    out = decide(args.n, _parse_quartic(args.p, args.rationalize))
    if isinstance(out, Refusal):
        return EXIT_NO, out.as_dict() if args.json else render_refusal(out)
    if args.emit_samples:
        span = out.default_check_interval()
        if span is None:
            raise ValueError(
                "--emit-samples: no piece of the form is wider than 1e-6 inside [-8, 8], "
                "so there is no default span to sample; use verify --interval a,b --emit-samples"
            )
        _emit_samples(out, args.emit_samples, span)
    return EXIT_YES, out.as_dict() if args.json else render(out, args.format)


def _emit_samples(cf: ClosedForm, path: str, span: tuple[float, float], count: int = 200) -> None:
    """Write x, the integrand and the antiderivative at count + 1 evenly
    spaced x of span, which lies inside one piece, to the CSV file path."""
    import csv

    lo, hi = span
    piece = cf.piece_for(lo, hi)
    pf = cf.c.poly().float_coeffs()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "integrand", "antiderivative"])
        for i in range(count + 1):
            x = lo + (hi - lo) * i / count
            rad = cf.radicand_sign * horner(pf, x)
            if rad <= 0:
                continue
            w.writerow([x, x / rad**0.5, cf.antiderivative(piece, x)])


def cmd_verify(args):
    c = _parse_quartic(args.p, args.rationalize)
    try:
        lo_s, hi_s = args.interval.split(",")
    except ValueError:
        raise ValueError(f"--interval expects a,b, got {args.interval!r}") from None
    interval = (_parse_endpoint(lo_s), _parse_endpoint(hi_s))
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be a positive finite number, got {args.tol}")
    out = decide(args.n, c)
    if isinstance(out, Refusal):
        return EXIT_NO, render_refusal(out)
    try:
        err = numeric_check(out, interval, args.tol)
    except IntervalNotValid as exc:
        raise IntervalNotValid(f"interval not valid: {exc}") from None
    if args.emit_samples:
        _emit_samples(out, args.emit_samples, interval)
    code = EXIT_YES if err <= args.tol else EXIT_NO
    return code, (
        f"numeric check on [{interval[0]!r}, {interval[1]!r}]: "
        f"max error {err:.3e} (tol {args.tol:.1e})"
    )


def cmd_construct(args):
    if args.s > FK_MAX_S:
        raise ValueError(f"construct --s must be at most {FK_MAX_S}, got {args.s}")
    c2 = _parse_value(args.c2, args.rationalize)
    c3 = _parse_value(args.c3, args.rationalize)
    c4 = _parse_value(args.c4, args.rationalize)
    normalization = UNIT_AMPLITUDE if args.normalize == "unit-m" else UNIT_LEADING
    roots = solve_c1(args.s, c2, c3, c4)
    built = []
    skipped = []
    for r in roots:
        if not r.exact:
            skipped.append({"c1": [str(r.lo), str(r.hi)], "note": "irrational F_1 root"})
            continue
        c = QuarticCoeffs(r.lo, c2, c3, c4)
        try:
            sol = build_solution(args.s, c, normalization)
        except ValueError as exc:
            skipped.append({"c1": str(r.lo), "note": str(exc)})
            continue
        built.append(sol)
    code = EXIT_YES if built else EXIT_NO
    if args.json:
        return code, {
            "s": args.s,
            "solutions": [s.as_dict() for s in built],
            "skipped": skipped,
        }
    lines = [f"s={args.s}: {len(roots)} real F_1 root(s) in c1"]
    lines += [
        f"  c1={sol.c.c1}: u = {sol.u_text()}  m2={sol.shown_m2()}  d={sol.d}  "
        f"branch={sol.branch.value}  residual_zero={sol.residual_zero}"
        for sol in built
    ]
    lines += [f"  c1={sk['c1']}: skipped ({sk['note']})" for sk in skipped]
    return code, "\n".join(lines)


def cmd_fk(args):
    if not 1 <= args.s <= FK_MAX_S:
        raise ValueError(f"fk --s must be between 1 and {FK_MAX_S}, got {args.s}")
    if args.eval is not None:
        c = _parse_coeff_list(args.eval, args.rationalize)
        if len(c) != 4:
            raise ValueError("--eval expects c1,c2,c3,c4")
        if args.s == 1:  # F_1 = 1; F_0 skips its only term, the pinned i = 1 one
            values = [Fraction(0), Fraction(1)]
        else:
            cond = conditions(args.s, QuarticCoeffs.from_list(c))
            values = [cond.a[0], cond.f1, *cond.a[2:]]
        if args.json:
            return EXIT_YES, {
                "s": args.s,
                "c": [str(v) for v in c],
                "F": [str(v) for v in values],
            }
        return EXIT_YES, "\n".join(f"F_{k} = {v}" for k, v in enumerate(values))
    table = fk_table(args.s)
    if args.json:
        return EXIT_YES, [{"s": args.s, "k": k, "terms": fk_terms(table, k)} for k in table.ks()]
    return EXIT_YES, "\n".join(format_fk(table, k) for k in table.ks())


def cmd_complete(args):
    fixed = {}
    for item in args.fix.split(","):
        key, _, val = item.partition("=")
        k = _parse_coeff_name(key, "--fix")
        if k in fixed:
            raise ValueError(f"--fix names c{k} twice")
        fixed[k] = _parse_value(val, args.rationalize)
    target = _parse_coeff_name(args.solve, "--solve")
    result = elliptic.complete_coefficient(args.n, fixed, target, force_s=args.force_s)
    code = EXIT_YES if result.entries else EXIT_NO
    if args.json:
        return code, result.as_dict()
    lines = [f"n={args.n}, s={result.s}, solving F_1 = 0 for c{target}"]
    for e in result.entries:
        root = str(e.root.lo) if e.root.exact else f"({e.root.lo}, {e.root.hi})"
        lines.append(f"  c{target} = {root}: {e.note}")
    return code, "\n".join(lines)


def cmd_multi(args):
    if args.s > MULTI_MAX_S:
        raise ValueError(f"multi --s must be at most {MULTI_MAX_S}, got {args.s}")
    rat = args.rationalize
    if args.p_roots is not None or args.q_roots is not None:
        if args.p_coeffs is not None or args.q_coeffs is not None:
            raise ValueError("give --p-roots/--q-roots or --p-coeffs/--q-coeffs, not both")
        if not (args.p_roots and args.q_roots is not None):
            raise ValueError("give both --p-roots and --q-roots, or coefficient lists")
        alphas = _parse_coeff_list(args.p_roots, rat)
        betas = _parse_coeff_list(args.q_roots, rat) if args.q_roots else []
        data = multipartite.OutsideData(tuple(alphas), tuple(betas))
        p, q = data.p(), data.q()
    else:
        if not args.p_coeffs:
            raise ValueError("need --p-coeffs/--q-coeffs or --p-roots/--q-roots")
        pc = _parse_coeff_list(args.p_coeffs, rat)
        qc = _parse_coeff_list(args.q_coeffs, rat) if args.q_coeffs else [Fraction(1)]
        for flag, cs in (("--p-coeffs", pc), ("--q-coeffs", qc)):
            if not cs or cs[0] != 1:
                raise ValueError(
                    f"{flag} must start with the leading coefficient 1 of a monic "
                    f"polynomial, got {cs[0] if cs else 'nothing'}"
                )
        p, q = Poly(list(reversed(pc))), Poly(list(reversed(qc)))
    sys_ = multipartite.coefficients_general(args.s, p, q)
    # the run holds the unpinned conditions unless the pin changed it, which
    # is when the j = 1 step wanted a nonzero a_1 (origin_residual neither
    # None nor 0)
    lem = (
        multipartite.solvability_residuals(args.s, p, q)
        if sys_.origin_residual
        else sys_.neg_residuals
    )
    constants = None
    if sys_.solvable():
        try:
            cval, m2 = multipartite.integration_constant(args.s, p, q, sys_.u)
            constants = {"c": str(cval), "m2": str(m2)}
        except multipartite.NoConsistentConstants as exc:
            constants = {"error": str(exc)}
    code = EXIT_YES if sys_.solvable() else EXIT_NO
    if args.json:
        return code, {
            "s": args.s,
            "p": [str(v) for v in p.coeffs],
            "q": [str(v) for v in q.coeffs],
            "a": [str(v) for v in sys_.a],
            "negative_residuals": [str(v) for v in sys_.neg_residuals],
            "condition_residuals": [str(v) for v in lem],
            "origin_pinned": sys_.pinned_origin,
            "origin_residual": None
            if sys_.origin_residual is None
            else str(sys_.origin_residual),
            "solvable": sys_.solvable(),
            "constants": constants,
        }
    lines = [
        f"s={args.s}  p = {p.format()}  q = {q.format()}",
        f"u = {sys_.u.format()}",
        f"negative-index residuals: {[str(v) for v in sys_.neg_residuals]}",
        f"condition residuals:      {[str(v) for v in lem]}",
    ]
    if sys_.pinned_origin:
        lines.append(f"origin residual (q(0)=0): {sys_.origin_residual}")
    if constants:
        lines.append(f"constants: {constants}")
    lines.append(f"solvable: {sys_.solvable()}")
    return code, "\n".join(lines)


def cmd_perturb(args):
    if args.s > FK_MAX_S:
        raise ValueError(f"perturb --s must be at most {FK_MAX_S}, got {args.s}")
    result = continuation(
        args.s,
        _parse_value(args.c2, args.rationalize),
        _parse_value(args.target_c3, args.rationalize),
        _parse_value(args.target_c4, args.rationalize),
        args.branch,
    )
    code = EXIT_YES if result.reached else EXIT_NO
    if args.json:
        return code, result.as_dict()
    lines = [
        f"s={args.s} branch={args.branch}: tau*={result.tau_star:.6g} "
        f"c1={result.c1_final!r} ({result.message})"
    ]
    if result.c1_exact is not None:
        lines.append(f"  exact c1 = {result.c1_exact}, aux = {result.aux_at_target}")
    if result.solution is not None:
        lines.append(f"  u = {result.solution.u.format()}  m2={result.solution.m2}")
    if result.reached and result.c1_exact is None:
        bound = result.ode_polypart_residual_bound()
        lines.append(f"  certified-numeric: |F_1| = {result.f1_residual:.2e}, "
                     f"ODE residual bound on [-2,2] = {bound:.2e}")
    return code, "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main call.

    parse_args leaves it unchanged; callers must not add to it.
    """
    ap = argparse.ArgumentParser(
        prog="bicheb",
        description=(
            "Exact construction of bipartite/multipartite Chebyshev polynomials "
            "and elementary closed forms for int x/sqrt(+-quartic) dx. "
            "Quartic coefficients are ordered c1,c2,c3,c4 (monic, highest first); "
            "values starting with '-' need the attached form, e.g. --p=-2,-3,2,2."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    n_help = f"outer degree, at most {SCAN_MAX_N}; a closed form needs n <= {COMPOSE_MAX_N}"

    def add_common(p, json_output=True):
        if json_output:
            p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument(
            "--rationalize",
            action="store_true",
            help="interpret numeric inputs as binary floats snapped to exact rationals",
        )

    d = sub.add_parser("decide", help="decide elementary integrability")
    d.add_argument("--n", type=int, required=True, help=n_help)
    d.add_argument("--p", required=True, help="c1,c2,c3,c4")
    d.add_argument("--verbose", action="store_true")
    add_common(d)
    d.set_defaults(fn=cmd_decide)

    i = sub.add_parser("integrate", help="decide and render the antiderivative")
    i.add_argument("--n", type=int, required=True, help=n_help)
    i.add_argument("--p", required=True)
    i.add_argument("--format", choices=("text", "latex"), default="text")
    i.add_argument(
        "--emit-samples", metavar="CSV",
        help="write x, integrand and antiderivative at 201 points across the middle "
        "third of the widest piece within [-8, 8] to CSV",
    )
    add_common(i)
    i.set_defaults(fn=cmd_integrate)

    v = sub.add_parser("verify", help="numeric check against quadrature")
    v.add_argument("--n", type=int, required=True, help=n_help)
    v.add_argument("--p", required=True)
    v.add_argument("--interval", required=True, help="a,b")
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument(
        "--emit-samples", metavar="CSV",
        help="write x, integrand and antiderivative at 201 points across --interval to CSV",
    )
    add_common(v, json_output=False)
    v.set_defaults(fn=cmd_verify)

    cst = sub.add_parser("construct", help="build inner polynomials for given c2,c3,c4")
    cst.add_argument("--s", type=int, required=True, help=f"inner degree, 2..{FK_MAX_S}")
    cst.add_argument("--c2", required=True)
    cst.add_argument("--c3", required=True)
    cst.add_argument("--c4", required=True)
    cst.add_argument("--normalize", choices=("unit-lead", "unit-m"), default="unit-lead")
    add_common(cst)
    cst.set_defaults(fn=cmd_construct)

    f = sub.add_parser("fk", help="print the F_k coefficient tables")
    f.add_argument("--s", type=int, required=True, help=f"inner degree, 1..{FK_MAX_S}")
    f.add_argument("--eval", metavar="C", help="evaluate at c1,c2,c3,c4")
    add_common(f)
    f.set_defaults(fn=cmd_fk)

    comp = sub.add_parser("complete", help="solve F_1 = 0 for a missing coefficient")
    comp.add_argument(
        "--n", type=int, required=True,
        help=f"{n_help}; the divisor s it selects must be at most {FK_MAX_S}",
    )
    comp.add_argument("--fix", required=True, help="e.g. c2=-5,c3=0,c4=4")
    comp.add_argument("--solve", required=True, help="target coefficient, e.g. c1")
    comp.add_argument(
        "--force-s", type=int, default=None, help=f"use this divisor s of n, 2..{FK_MAX_S}"
    )
    add_common(comp)
    comp.set_defaults(fn=cmd_complete)

    m = sub.add_parser("multi", help="general (p, q) condition system")
    m.add_argument("--s", type=int, required=True, help=f"inner degree, at most {MULTI_MAX_S}")
    m.add_argument(
        "--p-coeffs", "--p", dest="p_coeffs",
        help="descending coefficients of monic p (with leading 1)",
    )
    m.add_argument(
        "--q-coeffs", "--q", dest="q_coeffs",
        help="descending coefficients of monic q (with leading 1)",
    )
    m.add_argument("--p-roots", help="roots of p, comma separated")
    m.add_argument("--q-roots", help="roots of q, comma separated (may be empty)")
    add_common(m)
    m.set_defaults(fn=cmd_multi)

    pe = sub.add_parser("perturb", help="track an F_1 root toward target (c3, c4)")
    pe.add_argument("--s", type=int, required=True, help=f"inner degree, 2..{FK_MAX_S}")
    pe.add_argument("--c2", required=True)
    pe.add_argument("--target-c3", required=True)
    pe.add_argument("--target-c4", required=True)
    pe.add_argument("--branch", type=int, required=True, help="root index, 1-based")
    add_common(pe)
    pe.set_defaults(fn=cmd_perturb)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        with _exact_digits():
            code, output = args.fn(args)
            # text is a str; a JSON payload is a dict or a list
            print(output if isinstance(output, str) else json.dumps(output, indent=2))
    except (ValueError, ZeroDivisionError, OSError, ToleranceNotReached) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
