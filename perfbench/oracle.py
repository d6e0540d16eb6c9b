"""Independent checks for seeded `irr kth` results.

Nothing here imports primfield: irreducible counts come from the Moebius
formula and irreducibility from Rabin's test (Rabin, "Probabilistic
algorithms in finite fields", SIAM J. Comput. 1980; the deterministic
criterion of its section 3), so a sieve defect cannot hide itself.
"""

from __future__ import annotations


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _moebius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def irreducible_count(q: int, d: int) -> int:
    """Monic irreducibles of degree exactly d over F_q (Gauss/Moebius)."""
    return sum(_moebius(d // e) * q**e for e in range(1, d + 1) if d % e == 0) // d


def irreducible_cumulative(q: int, d: int) -> int:
    """Monic irreducibles of degree <= d over F_q."""
    return sum(irreducible_count(q, e) for e in range(1, d + 1))


def index_coeffs(q: int, index: int) -> list[int]:
    """Base-q digits of an index, low to high: the coefficient vector."""
    out = []
    while index:
        index, r = divmod(index, q)
        out.append(r)
    return out


# Polynomials over F_q as coefficient lists, low degree first, no
# trailing zeros (the zero polynomial is []).

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mulmod(a: list[int], b: list[int], f: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % q
    return _rem(prod, f, q)


def _rem(a: list[int], f: list[int], q: int) -> list[int]:
    """a mod f for monic f."""
    a = _trim(list(a))
    n = len(f) - 1
    while len(a) - 1 >= n:
        c, shift = a[-1], len(a) - 1 - n
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % q
        _trim(a)
    return a


def _powmod(a: list[int], e: int, f: list[int], q: int) -> list[int]:
    result = [1]
    while e:
        if e & 1:
            result = _mulmod(result, a, f, q)
        a = _mulmod(a, a, f, q)
        e >>= 1
    return result


def _gcd(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], q - 2, q)
        b = [(c * inv) % q for c in b]
        a, b = b, _rem(a, b, q)
    return a


def _sub_x(a: list[int], q: int) -> list[int]:
    a = a + [0] * max(0, 2 - len(a))
    a[1] = (a[1] - 1) % q
    return _trim(a)


def rabin_irreducible(q: int, f: list[int]) -> bool:
    """Rabin's test: monic f of degree n > 0 over prime F_q is irreducible
    iff x^(q^n) = x mod f and gcd(x^(q^(n/r)) - x, f) = 1 for every prime
    r dividing n."""
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise ValueError("need a monic polynomial of positive degree")
    x = _rem([0, 1], f, q)
    frob = {0: x}            # k -> x^(q^k) mod f
    cur = x
    for k in range(1, n + 1):
        cur = _powmod(cur, q, f, q)
        frob[k] = cur
    if _rem(_sub_x(frob[n], q), f, q):
        return False
    return all(len(_gcd(_rem(_sub_x(frob[n // r], q), f, q), f, q)) == 1
               for r in _prime_factors(n))
