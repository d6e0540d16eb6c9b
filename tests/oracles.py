"""Per-polynomial oracles: trial division and a factorization summary.

The library derives factorisation types in bulk, one numpy pass per
degree over the factor sieve.  These recompute them one index at a time,
from index arithmetic and the sieve's least-factor chain.
"""

from dataclasses import dataclass

from primfield.fieldpoly import index_degree, index_divrem, index_mul


def divides(q, a, b):
    """True when the polynomial with index a divides the one with index b."""
    return index_divrem(q, b, a)[1] == 0


def is_irreducible(q, f):
    """No monic divisor of degree 1 .. deg f / 2; units are not irreducible."""
    d = index_degree(q, f)
    return d > 0 and not any(divides(q, g, f)
                             for e in range(1, d // 2 + 1)
                             for g in range(q**e, 2 * q**e))


@dataclass(frozen=True)
class Factorization:
    """(irreducible index, multiplicity) pairs of one index, ascending."""

    q: int
    factors: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, sieve, index):
        return cls(sieve.q, tuple(sieve.factor_index(index)))

    def degrees(self):
        """Factor degrees, one entry per factor counted with multiplicity."""
        return [index_degree(self.q, p) for p, m in self.factors
                for _ in range(m)]

    @property
    def omega(self):
        return len(self.factors)

    @property
    def big_omega(self):
        return sum(m for _, m in self.factors)

    @property
    def is_squarefree(self):
        return all(m == 1 for _, m in self.factors)

    @property
    def max_factor_degree(self):
        return max(self.degrees(), default=0)

    @property
    def divisor_degree_mask(self):
        """Bit n set iff some monic divisor has degree exactly n."""
        mask = 1
        for d in self.degrees():
            mask |= mask << d
        return mask

    def product(self):
        out = 1
        for p, m in self.factors:
            for _ in range(m):
                out = index_mul(self.q, out, p)
        return out
