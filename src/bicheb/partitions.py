"""Integer-partition combinatorics and the inner-coefficient tables.

For a degree-s inner polynomial u = a_0 + a_2 x^2 + ... + a_s x^s attached
to a monic quartic x^4 + c1 x^3 + c2 x^2 + c3 x + c4, each coefficient is
a_k = F_k(c1..c4) * a_s, where F_k is a polynomial whose monomials are
indexed by partitions of s - k with parts at most 4.  Two independent
constructions are provided:

  * fk_table_by_recurrence: run the coefficient recurrence symbolically,
    carrying partition-indexed tables from F_s = 1 downward.
  * fk_table_by_products: evaluate each monomial coefficient m_lambda as a
    sum over the distinct permutations of the partition of products of the
    one-part factors (s-k+i)(2s-2k+i) / (2k(2s-k)).

Their exact equality is one of the artifact's acceptance properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def monomial(self, c: Sequence[Fraction]) -> Fraction:
        """Product c_{i1} * ... * c_{ir} for parts (i1..ir); c is 1-indexed."""
        out = Fraction(1)
        for p in self.parts:
            out *= c[p - 1]
        return out

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

    table[k] maps each Partition of weight s-k (parts <= 4) to its
    positive rational coefficient; zero coefficients are absent (so the
    all-ones partition never appears in the k=0 entry).  F_s is the
    empty-partition singleton {(): 1}.
    """

    def __init__(self, s: int, entries: dict[int, dict[Partition, Fraction]]):
        self.s = s
        self.entries = entries

    def __getitem__(self, k: int) -> dict[Partition, Fraction]:
        return self.entries[k]

    def ks(self) -> list[int]:
        return sorted(self.entries)

    def eval_fk(self, c: Sequence[Fraction]) -> list[Fraction]:
        """Evaluate (F_0, F_1, ..., F_s) at quartic coefficients (c1..c4)."""
        cf = [Fraction(v) for v in c]
        out = []
        for k in range(self.s + 1):
            acc = Fraction(0)
            for lam, coeff in self.entries[k].items():
                acc += coeff * lam.monomial(cf)
            out.append(acc)
        return out

    def fk_as_poly_in(self, k: int, index: int, fixed: dict[int, Fraction]):
        """F_k as a dense univariate polynomial in c_<index>.

        fixed maps the other three indices (1-based) to their values.
        Returns the coefficient list, ascending powers.
        """
        coeffs: dict[int, Fraction] = {}
        for lam, coeff in self.entries[k].items():
            power = sum(1 for p in lam.parts if p == index)
            rest = Fraction(1)
            for p in lam.parts:
                if p != index:
                    rest *= fixed[p]
            coeffs[power] = coeffs.get(power, Fraction(0)) + coeff * rest
        top = max(coeffs, default=0)
        return [coeffs.get(i, Fraction(0)) for i in range(top + 1)]

    def __eq__(self, other):
        return (
            isinstance(other, FkTable)
            and self.s == other.s
            and self.entries == other.entries
        )


def fk_table_by_recurrence(s: int) -> FkTable:
    """Build the F-tables by running the coefficient recurrence symbolically.

    Descending from F_s = 1: each F_k gathers part_factor(i, s-k, s) * c_i
    * F_{k+i}.  The k = 0 step skips the i = 1 contribution because the
    linear coefficient of the inner polynomial is pinned to zero.
    """
    if s < 1:
        raise ValueError("s must be positive")
    tables: dict[int, dict[Partition, Fraction]] = {
        s: {Partition(()): Fraction(1)}
    }
    for k in range(s - 1, -1, -1):
        entry: dict[Partition, Fraction] = {}
        start_i = 2 if k == 0 else 1
        for i in range(start_i, 5):
            if k + i > s:
                continue
            factor = part_factor(i, s - k, s)
            for lam, coeff in tables[k + i].items():
                newparts = tuple(sorted(lam.parts + (i,), reverse=True))
                key = Partition(newparts)
                entry[key] = entry.get(key, Fraction(0)) + factor * coeff
        tables[k] = {lam: v for lam, v in entry.items() if v != 0}
    return FkTable(s, tables)


def fk_table_by_products(s: int) -> FkTable:
    """Build the F-tables from the permutation-product formula."""
    if s < 1:
        raise ValueError("s must be positive")
    tables: dict[int, dict[Partition, Fraction]] = {}
    for k in range(s + 1):
        entry: dict[Partition, Fraction] = {}
        for lam in partitions_bounded(s - k, 4):
            m = partition_coeff(lam, s)
            if m != 0:
                entry[lam] = m
        tables[k] = entry
    return FkTable(s, tables)


def monomial_str(lam: Partition) -> str:
    """c-monomial with grouped powers, e.g. (1,1,2) never occurs but (2,1,1) -> c1^2*c2."""
    if not lam.parts:
        return "1"
    counts: dict[int, int] = {}
    for p in lam.parts:
        counts[p] = counts.get(p, 0) + 1
    return "*".join(
        f"c{p}" if e == 1 else f"c{p}^{e}" for p, e in sorted(counts.items())
    )


def format_fk(table: FkTable, k: int) -> str:
    """Render one F_k as 'F_k = sum of coeff * c-monomials' text."""
    entry = table[k]
    if not entry:
        return f"F_{k} = 0"
    terms = []
    for lam in sorted(entry):
        coeff = entry[lam]
        mono = monomial_str(lam)
        if lam.parts:
            terms.append(f"({coeff})*{mono}" if coeff != 1 else mono)
        else:
            terms.append(f"{coeff}")
    return f"F_{k} = " + " + ".join(terms)
