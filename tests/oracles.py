"""Per-polynomial oracles: trial division, a factorization summary and
the set-file codec one line at a time, plus trial-division primality.

The library derives factorisation types in bulk, one numpy pass per
degree over the factor sieve, and reads and writes set files in numpy
passes over blocks of members.  These recompute the same results one
index or one line at a time, from index arithmetic, the sieve's
least-factor chain and the single-polynomial text codec.
"""

from dataclasses import dataclass

from primfield.errors import UsageError
from primfield.fieldpoly import (format_index, index_degree, index_divrem,
                                 index_mul, parse_index)
from primfield.primitive import PolySet


def is_prime_trial(n):
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def write_set_lines(ps, fh):
    """Set-file writer, one format_index call per member."""
    fh.write(f"q={ps.q};horizon={ps.horizon}\n")
    for i in ps.indices:
        fh.write(format_index(ps.q, i) + "\n")


def read_set_lines(fh):
    """Set-file reader, one parse_index call per member line."""
    lines = fh.read().splitlines()
    if not lines:
        raise UsageError("empty set file")
    header = lines[0].strip()
    parts = dict(p.split("=", 1) for p in header.split(";") if "=" in p)
    try:
        q = int(parts["q"])
        horizon = int(parts["horizon"])
    except (KeyError, ValueError):
        raise UsageError(f"bad header {header!r}, expected q=..;horizon=..") from None
    indices = []
    seen = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            _, idx = parse_index(text, q=q)
        except UsageError as exc:
            raise UsageError(f"line {lineno}: {exc}") from None
        if idx in seen:
            raise UsageError(f"line {lineno}: duplicate member {text!r}")
        seen.add(idx)
        indices.append(idx)
    try:
        return PolySet(q, horizon, tuple(indices))
    except UsageError as exc:
        raise UsageError(f"set file invalid: {exc}") from None
