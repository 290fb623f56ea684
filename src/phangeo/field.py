"""Arithmetic in finite fields F_q, q = p**e, with an automorphism of order 1 or 2.

Elements are plain ints in ``range(q)``: the int ``a`` encodes the polynomial
``sum(c_i * x**i)`` whose coefficients are the base-p digits of ``a``
(constant term first, ``c_i = (a // p**i) % p``).  The packing is bijective
and fully reduced, so int equality is coefficient-wise equality of the
canonical representatives; 0 and 1 are the additive and multiplicative
identities in every field.

The defining modulus of F_{p**e} is fixed deterministically: among the monic
degree-e polynomials over F_p, ordered by the integer encoding of their
non-leading coefficients, the first irreducible one is chosen.  This yields
x^2+x+1 for F_4, x^2+1 for F_9, x^4+x+1 for F_16, x^2+2 for F_25,
x^3+2x+1 for F_27.

The automorphism sigma is the identity (``sigma_order == 1``) or the power
map x -> x**sqrt(q) (``sigma_order == 2``, requires even e); no other
automorphisms are offered.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

__all__ = ["Field", "make_field", "prime_power"]

# Full q x q addition and multiplication tables are built up to this order;
# above it, a ``_ComputedTable`` computes each entry on lookup.
_ADD_TABLE_LIMIT = 256


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p**e and p prime, or None if q is no prime power: the
    orders for which a field F_q exists."""
    if q < 2:
        return None
    # the least divisor is prime, and q is prime if none lies up to sqrt(q)
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


# -- polynomial helpers over F_p (coefficient lists, constant term first) --


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        _ptrim(a)
    return a


def _is_irreducible(poly: list[int], p: int) -> bool:
    """A monic polynomial of degree e is irreducible iff no monic polynomial
    of degree 1..e//2 divides it: a proper factorization has a factor of
    degree at most e//2, and a factor can be made monic."""
    e = len(poly) - 1
    for k in range(1, e // 2 + 1):
        for enc in range(p**k):
            if not _pmod(poly, [(enc // p**i) % p for i in range(k)] + [1], p):
                return False
    return True


def _modulus(p: int, e: int) -> tuple[int, ...]:
    """Deterministic monic irreducible of degree e over F_p (see module doc)."""
    if e == 1:
        return (0, 1)
    for enc in range(p**e):
        coeffs = [(enc // p**i) % p for i in range(e)] + [1]
        if coeffs[0] == 0:
            continue  # divisible by x
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial found for p={p}, e={e}")


class _ComputedTable:
    """``table[a][b] == op(a, b)``, computed on each lookup: the operation
    tables of a field above ``_ADD_TABLE_LIMIT``, which would hold q^2 entries."""

    __slots__ = ("op", "a")

    def __init__(self, op, a=None):
        self.op, self.a = op, a

    def __getitem__(self, x):
        return _ComputedTable(self.op, x) if self.a is None else self.op(self.a, x)


class Field:
    """The finite field F_q with q = p**e and an automorphism of order 1 or 2.

    Instances are immutable; every operation is pure, so a Field may be used
    from any number of concurrent callers.  Hot loops read the lookup tables
    instead of calling the methods: ``add_table[a][b]``, ``mul_table[a][b]``,
    ``neg_table[a]``, ``inv_table[a]`` (0 for a = 0) and ``sigma_table[a]``.
    """

    __slots__ = (
        "p", "e", "q", "sigma_order", "modulus", "_exp", "_log", "_ppow", "_fixed",
        "add_table", "mul_table", "neg_table", "inv_table", "sigma_table",
    )

    def __init__(self, p: int, e: int, sigma_order: int = 1):
        if prime_power(p) != (p, 1):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        if sigma_order not in (1, 2):
            raise ValueError(f"sigma_order must be 1 or 2, got {sigma_order}")
        if sigma_order == 2 and e % 2 != 0:
            raise ValueError(
                f"F_{p}^{e} has no automorphism of order two: degree {e} is odd"
            )
        self.p = p
        self.e = e
        self.q = p**e
        self.sigma_order = sigma_order
        self.modulus = _modulus(p, e)
        self._ppow = tuple(p**i for i in range(e))
        self._build_tables()

    # -- construction of lookup tables ------------------------------------

    def _encode(self, coeffs: list[int]) -> int:
        return sum(c * self._ppow[i] for i, c in enumerate(coeffs[: self.e]))

    def _decode(self, a: int) -> list[int]:
        p = self.p
        return [(a // pw) % p for pw in self._ppow]

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _pmul(self._decode(a), self._decode(b), self.p)
        return self._encode(_pmod(prod, list(self.modulus), self.p) + [0] * self.e)

    def _build_tables(self) -> None:
        q = self.q
        # discrete log tables over the smallest primitive element
        exp = None
        for g in range(1, q):
            seen = [0]
            x = 1
            for _ in range(q - 1):
                seen.append(x)
                x = self._raw_mul(x, g)
            if len(set(seen)) == q:
                exp = seen[1:]  # exp[k] = g**k
                break
        assert exp is not None
        log = [0] * q
        for k, v in enumerate(exp):
            log[v] = k
        self._exp = exp
        self._log = log
        self.inv_table = [0] + [exp[(q - 1 - log[a]) % (q - 1)] for a in range(1, q)]
        self.neg_table = [self._encode([(-c) % self.p for c in self._decode(a)])
                          for a in range(q)]
        if self.sigma_order == 2:
            s = self.p ** (self.e // 2)
            self.sigma_table = [0] + [exp[(log[a] * s) % (q - 1)] for a in range(1, q)]
        else:
            self.sigma_table = list(range(q))
        if q <= _ADD_TABLE_LIMIT:
            self.add_table = [[self._digit_add(a, b) for b in range(q)] for a in range(q)]
            self.mul_table = [[self.mul(a, b) for b in range(q)] for a in range(q)]
        else:
            self.add_table = _ComputedTable(self._digit_add)
            self.mul_table = _ComputedTable(self.mul)
        self._fixed = tuple(a for a in range(q) if self.sigma_table[a] == a)

    def _digit_add(self, a: int, b: int) -> int:
        return self._encode([(x + y) % self.p for x, y in zip(self._decode(a), self._decode(b))])

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inversion of zero in F_{self.q}")
        return self.inv_table[a]

    def sigma(self, a: int) -> int:
        """The designated automorphism: identity, or x -> x**sqrt(q)."""
        return self.sigma_table[a]

    # -- enumeration and encoding ------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of length e over F_p, constant term first."""
        return tuple(self._decode(a))

    def from_coeffs(self, coeffs) -> int:
        cs = list(coeffs)
        if len(cs) != self.e:
            raise ValueError(f"expected {self.e} coefficients, got {len(cs)}")
        if any(c < 0 or c >= self.p for c in cs):
            raise ValueError(f"coefficients must lie in range(0, {self.p}): {cs}")
        return self._encode(cs)

    def fixed_elements(self) -> tuple[int, ...]:
        """Elements fixed by sigma (the subfield of order sqrt(q) when order 2)."""
        return self._fixed

    @property
    def sqrt_q(self) -> int:
        if self.sigma_order != 2:
            raise ValueError("sqrt_q is only meaningful when sigma has order two")
        return self.p ** (self.e // 2)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.sigma_order) == (other.p, other.e, other.sigma_order)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.sigma_order))

    def __repr__(self) -> str:
        sig = "id" if self.sigma_order == 1 else f"x^{self.p ** (self.e // 2)}"
        return f"Field(q={self.q}, sigma={sig})"


@lru_cache(maxsize=None)
def make_field(p: int, e: int, sigma_order: int = 1) -> Field:
    """Construct (and cache) the field F_{p**e} with the requested sigma."""
    return Field(p, e, sigma_order)
