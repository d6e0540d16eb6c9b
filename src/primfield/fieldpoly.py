"""Monic polynomial arithmetic over a prime field.

Every monic polynomial of degree d has an integer index in [q^d, 2*q^d):
its coefficient vector (low degree first, leading coefficient 1) read as
base-q digits.  The index is the library's only polynomial type;
parse_index and format_index map one line of text to an index and back.
This module uses no numpy; the factor sieve over the index is in sieve.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import UsageError

# Miller-Rabin with the first twelve prime bases is exact below psi_12,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 318665857834031151167461


@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality; UsageError from _PRIME_LIMIT up."""
    if n >= _PRIME_LIMIT:
        raise UsageError(f"field order {n} is at or above {_PRIME_LIMIT},"
                         " past exact primality testing")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(q: int) -> None:
    if not is_prime(q):
        raise UsageError(f"field order {q} is not prime")


# ----------------------------------------------------------------------
# Index text codec
# ----------------------------------------------------------------------

def format_index(q: int, index: int) -> str:
    """Canonical text form of a monic index, e.g. x^2+x+1 over F_2
    (index 7) is 'q=2;1,1,1'."""
    return f"q={q};" + ",".join(map(str, _index_digits(q, index)))


def parse_index(text: str, q: int | None = None) -> tuple[int, int]:
    """(q, index) of a polynomial in canonical text form; with q given,
    also a bare decimal index or a bare coefficient list."""
    s = text.strip()
    if s.startswith("q="):
        head, sep, tail = s.partition(";")
        if not sep:
            raise UsageError(f"missing ';' in polynomial text {text!r}")
        try:
            q_in = int(head[2:])
        except ValueError:
            raise UsageError(f"bad field order in {text!r}") from None
        if q is not None and q != q_in:
            raise UsageError(f"expected q={q}, got q={q_in}")
        try:
            coeffs = list(map(int, tail.split(",")))
        except ValueError:
            raise UsageError(f"bad coefficient list in {text!r}") from None
        _check_prime(q_in)
        if coeffs[-1] != 1:
            raise UsageError("leading coefficient must be 1")
        if min(coeffs) < 0 or max(coeffs) >= q_in:
            raise UsageError(f"coefficients must lie in [0, {q_in})")
        index = 0
        for c in reversed(coeffs):
            index = index * q_in + c
        return q_in, index
    if q is None:
        raise UsageError(f"bare form {text!r} needs an explicit field order")
    try:
        if "," in s:   # a bare list is the canonical form minus its prefix
            return parse_index(f"q={q};{s}")
        index = int(s)
        _check_prime(q)
        # leading base-q digit 1: index in [q^d, 2 q^d) for its degree d
        if not 1 <= index < 2 * q**index_degree(q, index):
            raise ValueError
        return q, index
    except (ValueError, UsageError):
        raise UsageError(f"cannot parse polynomial {text!r}") from None


# ----------------------------------------------------------------------
# Index-level helpers (bulk paths)
# ----------------------------------------------------------------------

def index_degree(q: int, idx: int) -> int:
    d = 0
    v = idx // q
    while v:
        d += 1
        v //= q
    return d


def _index_digits(q: int, idx: int) -> list[int]:
    out = []
    v = idx
    while v:
        v, r = divmod(v, q)
        out.append(r)
    return out


def index_divrem(q: int, a: int, b: int) -> tuple[int, int]:
    """(quotient index, remainder index-value) of index a by monic index b."""
    da = index_degree(q, a)
    db = index_degree(q, b)
    if da < db:
        return 0, a
    if q == 2:
        quot = 0
        rem = a
        for shift in range(da - db, -1, -1):
            if rem >> (shift + db) & 1:
                quot |= 1 << shift
                rem ^= b << shift
        return quot, rem
    rd = _index_digits(q, a)
    bd = _index_digits(q, b)
    quot_digits = [0] * (da - db + 1)
    for shift in range(da - db, -1, -1):
        c = rd[shift + db] % q
        if c:
            quot_digits[shift] = c
            for i, bi in enumerate(bd):
                rd[shift + i] = (rd[shift + i] - c * bi) % q
    quot = 0
    for c in reversed(quot_digits):
        quot = quot * q + c
    rem = 0
    for c in reversed(rd[:db]):
        rem = rem * q + (c % q)
    return quot, rem
