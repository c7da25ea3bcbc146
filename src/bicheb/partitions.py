"""Integer-partition combinatorics and the inner-coefficient tables.

For a degree-s inner polynomial u = a_0 + a_2 x^2 + ... + a_s x^s attached
to a monic quartic x^4 + c1 x^3 + c2 x^2 + c3 x + c4, each coefficient is
a_k = F_k(c1..c4) * a_s, where F_k is a polynomial whose monomials are
indexed by partitions of s - k with parts at most 4.  Two independent
constructions are provided:

  * fk_table_by_recurrence: run the coefficient recurrence symbolically,
    carrying partition-indexed tables from F_s = 1 downward.  The run is
    fraction-free: F_k is carried as integer numerators over the known
    denominator Q_k = prod_{j=k}^{s-1} 2(s^2 - j^2).
  * fk_table_by_products: evaluate each monomial coefficient m_lambda as a
    sum over the distinct permutations of the partition of products of the
    one-part factors (s-k+i)(2s-2k+i) / (2k(2s-k)), on Fractions.

Their exact equality is one of the artifact's acceptance properties.
An FkTable holds integer rows: numerators keyed by part counts over one
denominator per F_k.  format_fk and fk_terms (the JSON terms) read a
row directly, and so does the continuation tracker (row 1 only); the
Partition -> Fraction view of a row is for the dual-route check.  The
decision and the completion read F_1 from the integer recurrence in
bipartite instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = self.parts
        if parts and min(parts) < 1:
            raise ValueError("parts must be positive")
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError("parts must be weakly decreasing")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions_bounded(k: int, pmax: int) -> list[Partition]:
    """All partitions of k with parts <= pmax, in reverse-lexicographic order."""
    if k < 0:
        raise ValueError("k must be nonnegative")

    def gen(rest: int, head: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, head), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return [Partition(t) for t in gen(k, pmax)]


def distinct_perms(lam: Partition) -> list[tuple[int, ...]]:
    """All distinct permutations of the parts of lam, in descending
    lexicographic order."""
    counts: dict[int, int] = {}
    for p in lam.parts:
        counts[p] = counts.get(p, 0) + 1

    def gen(remaining: dict[int, int], size: int) -> Iterator[tuple[int, ...]]:
        if size == 0:
            yield ()
            return
        for v in sorted(remaining, reverse=True):
            if remaining[v] == 0:
                continue
            remaining[v] -= 1
            for tail in gen(remaining, size - 1):
                yield (v,) + tail
            remaining[v] += 1

    return list(gen(counts, lam.length))


def part_factor(i: int, k: int, s: int) -> Fraction:
    """One-part multiplier (s-k+i)(2s-2k+i) / (2k(2s-k)) of the recurrence.

    Requires 1 <= k <= s; at k = s it reduces to i^2 / (2 s^2).
    """
    if not 1 <= k <= s:
        raise ValueError("k must satisfy 1 <= k <= s")
    return Fraction((s - k + i) * (2 * s - 2 * k + i), 2 * k * (2 * s - k))


def partition_coeff(lam: Partition, s: int) -> Fraction:
    """Coefficient of the partition monomial c_lam inside F_{s - weight}.

    Sum over distinct permutations (i1..ir) of lam of the product of
    part_factor(i_t, i1+...+i_t, s); the cumulative index includes the
    current part.  When weight == s only permutations ending in a part
    > 1 contribute, which in particular kills (1,1,...,1).
    """
    w = lam.weight
    if w > s:
        raise ValueError("partition weight exceeds s")
    if max(lam.parts, default=0) > 4:
        raise ValueError("parts must be at most 4")
    total = Fraction(0)
    for seq in distinct_perms(lam):
        if w == s and (not seq or seq[-1] == 1):
            continue
        prod = Fraction(1)
        acc = 0
        for part in seq:
            acc += part
            prod *= part_factor(part, acc, s)
        total += prod
    return total


class FkTable:
    """Partition-indexed tables of the coefficient polynomials F_0..F_s.

    rows[k] maps the part-count key m1 + m2 B + m3 B^2 + m4 B^3 (B = s + 1)
    of each partition of weight s-k (parts <= 4) to its nonzero integer
    numerator in F_k over the denominator dens[k]; zero coefficients are
    absent (so the all-ones partition never appears in row 0), and F_s is
    the row {0: 1} over 1.  table[k] is that row as a Partition -> reduced
    Fraction dict, in the row's order, built on each access.
    """

    def __init__(self, s: int, rows: dict[int, dict[int, int]], dens: dict[int, int]):
        self.s = s
        self.rows = rows
        self.dens = dens

    def __getitem__(self, k: int) -> dict[Partition, Fraction]:
        base, den = self.s + 1, self.dens[k]
        return {_counted(key, base): Fraction(n, den) for key, n in self.rows[k].items()}

    @property
    def entries(self) -> dict[int, dict[Partition, Fraction]]:
        return {k: self[k] for k in self.ks()}

    def ks(self) -> list[int]:
        return sorted(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, FkTable)
            and self.s == other.s
            and self.entries == other.entries
        )


def fk_table_by_recurrence(s: int) -> FkTable:
    """Build the F-tables by running the coefficient recurrence symbolically.

    Descending from F_s = 1: F_k = sum_i (k+i)(2k+i) c_i F_{k+i} / R_k
    with R_j = 2(s^2 - j^2).  The k = 0 step skips the i = 1 contribution
    because the linear coefficient of the inner polynomial is pinned to
    zero.  The run is fraction-free: F_k is carried as integer numerators
    N_k over Q_k = R_k R_(k+1) ... R_(s-1), so
    N_k[lam + (i)] += (k+i)(2k+i) R_(k+1) ... R_(k+i-1) N_(k+i)[lam],
    keyed by the part counts m1 + m2 B + m3 B^2 + m4 B^3 (B = s + 1),
    where adding a part i adds B^(i-1).  Every term is positive, so no
    coefficient cancels.  The table keeps these rows as they are.
    """
    if s < 1:
        raise ValueError("s must be positive")
    base = s + 1
    R = [2 * (s * s - j * j) for j in range(s + 1)]
    nums: dict[int, dict[int, int]] = {s: {0: 1}}
    denominators = {s: 1}
    for k in range(s - 1, -1, -1):
        entry: dict[int, int] = {}
        between = 1  # R_(k+1) ... R_(k+i-1)
        for i in range(1, min(4, s - k) + 1):
            if i > 1 or k > 0:
                factor = (k + i) * (2 * k + i) * between
                bump = base ** (i - 1)
                for key, n in nums[k + i].items():
                    key += bump
                    entry[key] = entry.get(key, 0) + factor * n
            between *= R[k + i]
        nums[k] = entry
        denominators[k] = denominators[k + 1] * R[k]
    return FkTable(s, nums, denominators)


def _counts(key: int, base: int) -> tuple[int, int, int, int]:
    """The part counts (m1, m2, m3, m4) of key = m1 + m2 B + m3 B^2 + m4 B^3."""
    m1, key = key % base, key // base
    m2, key = key % base, key // base
    return m1, m2, key % base, key // base


def _counted(key: int, base: int) -> Partition:
    """The partition with m1 + m2 B + m3 B^2 + m4 B^3 = key parts 1..4."""
    m1, m2, m3, m4 = _counts(key, base)
    return Partition((4,) * m4 + (3,) * m3 + (2,) * m2 + (1,) * m1)


def fk_table_by_products(s: int) -> FkTable:
    """Build the F-tables from the permutation-product formula.

    Each row's Fractions are packed as numerators over their lcm, keyed by
    part counts as in fk_table_by_recurrence.
    """
    if s < 1:
        raise ValueError("s must be positive")
    base = s + 1
    rows, dens = {}, {}
    for k in range(s + 1):
        coeffs = ((lam, partition_coeff(lam, s)) for lam in partitions_bounded(s - k, 4))
        entry = [(lam, m) for lam, m in coeffs if m != 0]
        den = math.lcm(*(m.denominator for _, m in entry))
        rows[k] = {
            sum(base ** (p - 1) for p in lam.parts): m.numerator * (den // m.denominator)
            for lam, m in entry
        }
        dens[k] = den
    return FkTable(s, rows, dens)


def format_fk(table: FkTable, k: int) -> str:
    """Render one F_k as 'F_k = sum of coeff * c-monomials' text.

    Terms come in ascending key order, which is the lexicographic order of
    (m4, m3, m2, m1) and so of the descending parts tuples, since every
    count is at most s < B.  Each piece of a monomial is 'c{p}' or
    'c{p}^{e}', joined in ascending p.
    """
    row = table.rows[k]
    if not row:
        return f"F_{k} = 0"
    base, den = table.s + 1, table.dens[k]
    # per part p, indexed by its count e: c_p^e with a trailing '*', '' at e = 0
    one, two, three, four = (
        [""] + [f"c{p}*" if e == 1 else f"c{p}^{e}*" for e in range(1, (table.s - k) // p + 1)]
        for p in range(1, 5)
    )
    terms = []
    for key in sorted(row):
        coeff = _coeff(row[key], den)
        if not key:
            terms.append(coeff)
            continue
        m1, m2, m3, m4 = _counts(key, base)
        mono = (one[m1] + two[m2] + three[m3] + four[m4])[:-1]
        terms.append(mono if coeff == "1" else f"({coeff})*{mono}")
    return f"F_{k} = " + " + ".join(terms)


def fk_terms(table: FkTable, k: int) -> list[dict]:
    """F_k's terms as {"parts": [...], "coeff": "n/d"}, in descending key
    order, which is descending parts order (see format_fk)."""
    row, base, den = table.rows[k], table.s + 1, table.dens[k]
    terms = []
    for key in sorted(row, reverse=True):
        m1, m2, m3, m4 = _counts(key, base)
        parts = [4] * m4 + [3] * m3 + [2] * m2 + [1] * m1
        terms.append({"parts": parts, "coeff": _coeff(row[key], den)})
    return terms


def _coeff(n: int, den: int) -> str:
    """n / den in lowest terms, as str(Fraction(n, den)) prints it."""
    g = math.gcd(n, den)
    return f"{n // g}/{den // g}" if den != g else f"{n // g}"
