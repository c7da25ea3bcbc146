"""Seeded inputs and timed operations of the four benchmark workloads.

Each workload is a pool of operations with distinct inputs, made from the
seed.  An operation carries its input (spelled out in ``key``), the
timed call into bicheb, and the checker call for its output.  The
harness runs the whole pool several times over, in a fresh shuffled order
each pass.

The timed calls look functions up on the bicheb modules at call time
(``elliptic.decide``, not a name bound at import), so the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import bicheb.bipartite as bipartite
import bicheb.cli as cli
import bicheb.elliptic as elliptic
import bicheb.multipartite as multipartite
import bicheb.partitions as partitions
from bicheb.bipartite import QuarticCoeffs
from bicheb.poly import Poly

import checker

@dataclass(frozen=True)
class Op:
    key: str  # the input, spelled out: equal keys mean equal inputs
    kind: str  # cost class, for the summary
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], list]  # failed checks of an output
    digest: Callable[[Any], Any]  # equal digests mean equal outputs


def _fmt(c) -> str:
    return ",".join(str(Fraction(v)) for v in c)


# -- decide_yes ------------------------------------------------------------------

# The known-solvable quartics of the test suite, with the divisor that
# decides them and the outer degrees their branch admits.
FAMILIES = {
    "WORKED": ((-2, -3, 2, 2), 3, False),  # circular, s = 3
    "SYMMETRIC": ((0, -5, 0, 4), 2, False),  # circular, s = 2
    "HYPER": ((0, -2, 0, 2), 2, True),  # hyperbolic: n/s must be odd
    "LOG": ((0, 2, 0, 1), 2, False),  # logarithmic, d = 0
}
N_MAX = 33
IMAGES_PER_CASE = 2
LAMBDAS = [Fraction(a, b) for a, b in ((2, 1), (1, 2), (3, 2), (2, 3), (3, 1), (1, 3), (4, 3), (3, 4))]


def family_degrees(s: int, odd_outer: bool) -> list[int]:
    return [n for n in range(s, N_MAX + 1, s) if not odd_outer or (n // s) % 2 == 1]


def image(c, lam: Fraction, reflect: bool) -> tuple:
    """x -> lam x (c_k -> lam^k c_k), then optionally (c1, c3) -> (-c1, -c3)."""
    out = [Fraction(v) * lam ** (k + 1) for k, v in enumerate(c)]
    if reflect:
        out[0], out[2] = -out[0], -out[2]
    return tuple(out)


def _decide_verify(n: int, c: QuarticCoeffs):
    out = elliptic.decide(n, c)
    if not isinstance(out, elliptic.ClosedForm):
        return out, elliptic.render_refusal(out), None
    text = elliptic.render(out, "text")
    err = elliptic.numeric_check(out, out.default_check_interval(), checker.VERIFY_TOL)
    return out, text, err


def _decide_op(family: str, n: int, c: tuple) -> Op:
    q = QuarticCoeffs.of(*c)
    return Op(
        key=f"decide n={n} p={_fmt(c)}",
        kind=f"{family} n={n}",
        run=lambda: _decide_verify(n, q),
        check=lambda out: checker.check_closed_form(n, c, out[0], out[2]),
        digest=lambda out: (type(out[0]).__name__, out[1], out[2]),
    )


def decide_yes(seed: int) -> list[Op]:
    """Every family at every admissible n <= 33, plus IMAGES_PER_CASE
    images of each (x -> lam x, reflected at random).

    The scalings follow a seeded cyclic design, image j of case i taking
    LAMBDAS[(i + offset + j * 8 / IMAGES_PER_CASE) % 8], so the pool
    holds each scaling about equally often and seeds differ in which
    case gets which.
    """
    rng = random.Random(seed)
    offset = rng.randrange(len(LAMBDAS))
    stride = len(LAMBDAS) // IMAGES_PER_CASE
    pool = []
    i = 0
    for fam, (base, s, odd_outer) in FAMILIES.items():
        for n in family_degrees(s, odd_outer):
            pool.append(_decide_op(fam, n, base))
            for j in range(IMAGES_PER_CASE):
                lam = LAMBDAS[(i + offset + j * stride) % len(LAMBDAS)]
                pool.append(_decide_op(fam, n, image(base, lam, rng.random() < 0.5)))
            i += 1
    return pool


# -- refuse_scan -------------------------------------------------------------------

# highly composite degrees: 9 to 29 divisors s >= 2 each
REFUSE_NS = (48, 60, 72, 84, 90, 96, 108, 120, 144, 168, 180, 240, 360, 720)
REFUSE_PER_N = 4
_PRIME = (1 << 61) - 1


def f1_mod_prime(s: int, c) -> int:
    """F_1 of the quartic recurrence modulo a large prime.

    Nonzero here implies F_1 != 0 exactly: every denominator met
    (2 (s^2 - k^2) and those of c) is below the prime.
    """
    cm = [v.numerator * pow(v.denominator, -1, _PRIME) % _PRIME for v in c]
    a = [0] * (s + 5)
    a[s] = 1
    for k in range(s - 1, 0, -1):
        acc = sum((k + i) * (2 * k + i) * cm[i - 1] * a[k + i] for i in range(1, 5))
        val = acc * pow(2 * (s * s - k * k), -1, _PRIME) % _PRIME
        if k == 1:
            return val
        a[k] = val
    return 1  # s < 2 has no linear coefficient; never reached for s >= 2


def refusing_quartic(rng: random.Random, n: int) -> tuple:
    """Small-height quartic with F_1 != 0 at every divisor s >= 2 of n."""
    while True:
        c = tuple(
            Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
            for _ in range(4)
        )
        if all(f1_mod_prime(s, c) for s in range(2, n + 1) if n % s == 0):
            return c


def _cli_decide(n: int, c: tuple):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["decide", "--n", str(n), f"--p={_fmt(c)}", "--json"])
    return rc, buf.getvalue()


def refuse_scan(seed: int) -> list[Op]:
    """Seeded refusing quartics, REFUSE_PER_N at each highly composite n."""
    rng = random.Random(seed)
    pool = []
    for n in REFUSE_NS:
        for _ in range(REFUSE_PER_N):
            c = refusing_quartic(rng, n)
            pool.append(
                Op(
                    key=f"cli decide n={n} p={_fmt(c)}",
                    kind=f"n={n}",
                    run=lambda n=n, c=c: _cli_decide(n, c),
                    check=lambda out, n=n, c=c: checker.check_refusal_cli(n, c, *out),
                    digest=lambda out: out,
                )
            )
    return pool


# -- complete_sweep ------------------------------------------------------------------

C1_NS = tuple(range(2, 21, 2))  # even s exists: c1 completions
C2_NS = (3, 7, 11)  # a divisor = 3 (mod 4) exists: c2 completions
COMPLETE_SETS = 28


def _triple(rng: random.Random, quadrant: int) -> tuple:
    """Three values randint(-24, 24)/8, as in acceptance criterion 11, with
    the signs of the first and last fixed by the quadrant (0 counts as +).

    For c1 targets those are c2 and c4, whose signs decide how many real
    roots F_1 has and so most of the cost; fixing them by a balanced
    design keeps that mix the same for every seed.
    """
    first = rng.randint(0, 24) if quadrant & 1 else -rng.randint(1, 24)
    last = rng.randint(0, 24) if quadrant & 2 else -rng.randint(1, 24)
    return Fraction(first, 8), Fraction(rng.randint(-24, 24), 8), Fraction(last, 8)


def _complete_op(n: int, target: int, fixed: dict) -> Op:
    return Op(
        key=f"complete n={n} c{target} fixed={sorted(fixed.items())}",
        kind=f"c{target} n={n}",
        run=lambda: elliptic.complete_coefficient(n, fixed, target),
        check=lambda out: checker.check_completion(n, fixed, target, out),
        digest=lambda out: (
            out.s,
            tuple((e.root.lo, e.root.hi, e.root.multiplicity, e.note) for e in out.entries),
        ),
    )


def complete_sweep(seed: int) -> list[Op]:
    """COMPLETE_SETS times: c1 at every even n <= 20 and c2 at n = 3, 7,
    11, each on its own fresh triple, whose sign quadrant cycles with the
    set so that every n sees each quadrant equally often."""
    rng = random.Random(seed)
    offset = rng.randrange(4)
    pool = []
    for k in range(COMPLETE_SETS):
        for i, n in enumerate(C1_NS):
            fixed = zip((2, 3, 4), _triple(rng, (i + k + offset) % 4))
            pool.append(_complete_op(n, 1, dict(fixed)))
        for i, n in enumerate(C2_NS):
            fixed = zip((1, 3, 4), _triple(rng, (i + k + offset) % 4))
            pool.append(_complete_op(n, 2, dict(fixed)))
    return pool


# -- multi_fk ------------------------------------------------------------------------

FK_SS = tuple(range(4, 9, 2)) + tuple(range(10, 31))
# (ell, s, instances): fewer of the slowest cases, so that a pass stays short
MULTI_CASES = (
    (1, 4, 16), (1, 6, 16), (1, 8, 16), (1, 10, 9), (1, 12, 6),
    (2, 4, 16), (2, 6, 16), (2, 8, 9), (2, 10, 6),
)
# known-yes quartics shifted to q = x - t, at a degree their composition reaches
SHIFTED_CASES = (("WORKED", 6), ("SYMMETRIC", 8), ("HYPER", 6), ("LOG", 10))
SHIFTS_PER_CASE = 4


def _fk_body(s: int):
    table = partitions.fk_table_by_recurrence(s)
    return table, [partitions.format_fk(table, k) for k in table.ks()]


def _multi_body(s: int, p: Poly, q: Poly):
    system = multipartite.coefficients_general(s, p, q)
    lem = multipartite.solvability_residuals(s, p, q)
    constants = None
    if system.solvable():
        try:
            constants = multipartite.integration_constant(s, p, q, system.u)
        except multipartite.NoConsistentConstants:
            constants = None
    return system, lem, constants


def _fk_op(s: int, point: tuple) -> Op:
    return Op(
        key=f"fk s={s}",
        kind=f"fk s={s}",
        run=lambda: _fk_body(s),
        check=lambda out: checker.check_fk(s, point, *out),
        digest=lambda out: tuple(out[1]),
    )


def _multi_op(kind: str, s: int, p: Poly, q: Poly, solvable: bool | None) -> Op:
    return Op(
        key=f"multi s={s} p={p.coeffs} q={q.coeffs}",
        kind=kind,
        run=lambda: _multi_body(s, p, q),
        check=lambda out: checker.check_multi(s, p, q, solvable, out),
        digest=lambda out: (
            tuple(out[0].a), tuple(out[0].neg_residuals), tuple(out[1]), out[2]
        ),
    )


def _halves(rng: random.Random, count: int, exclude=()) -> list[Fraction]:
    grid = [Fraction(k, 2) for k in range(-8, 9) if Fraction(k, 2) not in exclude]
    return rng.sample(grid, count)


def multi_fk(seed: int) -> list[Op]:
    """The cold `fk` body for each s in FK_SS, and the `multi` body on
    seeded outside data (ell = 1, 2) and on shifted known-yes quartics."""
    rng = random.Random(seed)
    pool = []
    for s in FK_SS:
        point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4))
        pool.append(_fk_op(s, point))
    for ell, s, count in MULTI_CASES:
        for _ in range(count):
            alphas = _halves(rng, 2 * ell + 2)
            betas = _halves(rng, ell, exclude=alphas)
            data = multipartite.OutsideData(tuple(alphas), tuple(betas))
            pool.append(_multi_op(f"multi ell={ell} s={s}", s, data.p(), data.q(), None))
    for fam, s in SHIFTED_CASES:
        for t in rng.sample([Fraction(k, 2) for k in range(-6, 7) if k], SHIFTS_PER_CASE):
            x_minus_t = Poly((-t, Fraction(1)))
            p = Poly(checker.quartic(FAMILIES[fam][0])).compose(x_minus_t)
            pool.append(_multi_op(f"multi shifted {fam} s={s}", s, p, x_minus_t, True))
    return pool


WORKLOADS = {
    "decide_yes": decide_yes,
    "refuse_scan": refuse_scan,
    "complete_sweep": complete_sweep,
    "multi_fk": multi_fk,
}


def warm_up(name: str) -> None:
    """Small calls that finish lazy set-up before timing: the divisor
    scan, quadrature, CLI parsing and the fk_table cache where a
    workload uses it."""
    worked = QuarticCoeffs.of(*FAMILIES["WORKED"][0])
    _decide_verify(3, worked)
    _cli_decide(6, (Fraction(1), Fraction(2), Fraction(3), Fraction(5)))
    if name == "complete_sweep":
        for s in C1_NS + C2_NS:
            bipartite.fk_table(s)
    if name == "multi_fk":
        _fk_body(6)
        _multi_body(4, Poly.from_roots([1, 2, 3, 4]), Poly.from_roots([0]))
