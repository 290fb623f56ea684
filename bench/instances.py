"""Seeded dimension-4 instances and an enumeration of their geometry that
shares no code with phangeo.

An instance is the complex of non-degenerate subspaces of F_q^4 for the
symmetric form with Gram matrix g·gᵀ, where g is a change of basis drawn
from the seed.  g is an isometry from the standard form, so the f-vector and
the homology do not depend on the seed; the vertex order and the
coordinates written to the spec file do.

Field elements are ints whose base-p digits are the polynomial coefficients,
constant term first, the encoding the spec format uses.  The modulus is the
first monic irreducible polynomial in the order of that encoding, the rule
the spec format documents, so the coefficients written here mean the same
elements to the program.
"""

from __future__ import annotations

import itertools
import json
import random

AMBIENT = 4


class GF:
    """F_q for q = p or p^2, with addition and multiplication tables."""

    def __init__(self, p: int, e: int):
        if e not in (1, 2):
            raise ValueError("only prime fields and their quadratic extensions")
        self.p, self.e, self.q = p, e, p**e
        if e == 1:
            self.modulus = (0, 1)
        else:
            # a monic quadratic is irreducible iff it has no root in F_p
            self.modulus = next(
                (c0, c1, 1)
                for enc in range(p * p)
                for c0, c1 in [(enc % p, enc // p)]
                if c0 and all((x * x + c1 * x + c0) % p for x in range(p))
            )
        q = self.q
        self.add = [[self._enc([(x + y) % p for x, y in zip(self.coeffs(a), self.coeffs(b))])
                     for b in range(q)] for a in range(q)]
        self.mul = [[self._raw_mul(a, b) for b in range(q)] for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [0] + [next(b for b in range(q) if self.mul[a][b] == 1) for a in range(1, q)]

    def coeffs(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.e)]

    def _enc(self, cs) -> int:
        return sum(c * self.p**i for i, c in enumerate(cs))

    def _raw_mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.coeffs(a)):
            for j, y in enumerate(self.coeffs(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(len(prod) - 1, e - 1, -1):  # reduce by the monic modulus
            c = prod[k]
            if c:
                for i in range(e + 1):
                    prod[k - e + i] = (prod[k - e + i] - c * self.modulus[i]) % p
        return self._enc(prod[:e])

    def dot(self, x, y) -> int:
        s = 0
        for a, b in zip(x, y):
            s = self.add[s][self.mul[a][b]]
        return s


def field_for(q: int) -> GF:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 1
            while p**e < q:
                e += 1
            if p**e != q:
                raise ValueError(f"{q} is not a prime power")
            return GF(p, e)
    raise ValueError(f"bad field order {q}")


def det(f: GF, mat) -> int:
    m = [list(r) for r in mat]
    n = len(m)
    d = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = f.neg[d]
        d = f.mul[d][m[c][c]]
        s = f.inv[m[c][c]]
        for i in range(c + 1, n):
            if m[i][c]:
                t = f.neg[f.mul[m[i][c]][s]]
                m[i] = [f.add[x][f.mul[t][y]] for x, y in zip(m[i], m[c])]
    return d


def random_gram(f: GF, seed: int):
    """g·gᵀ for a change of basis g drawn from the seed."""
    rng = random.Random(seed)
    while True:
        g = [[rng.randrange(f.q) for _ in range(AMBIENT)] for _ in range(AMBIENT)]
        if det(f, g):
            break
    return [[f.dot(a, b) for b in g] for a in g]


def spec_document(q: int, seed: int) -> dict:
    """The standard-form instance over F_q in phangeo's geometry-file format."""
    f = field_for(q)
    gram = random_gram(f, seed)
    eye = [[[1 if i == j else 0] + [0] * (f.e - 1) for j in range(AMBIENT)]
           for i in range(AMBIENT)]
    return {
        "field": {"p": f.p, "e": f.e, "sigma_order": 1},
        "ambient_dim": AMBIENT,
        "specs": [{
            "flag": [[], eye],
            "forms": [[[f.coeffs(x) for x in row] for row in gram]],
        }],
    }


def write_spec(path: str, q: int, seed: int) -> None:
    with open(path, "w") as fh:
        json.dump(spec_document(q, seed), fh, sort_keys=True)
        fh.write("\n")


def rref_subspaces(q: int, k: int):
    """Every k-dimensional subspace of F_q^4 once, as its reduced echelon basis."""
    for pivots in itertools.combinations(range(AMBIENT), k):
        free = [(r, c) for r, pc in enumerate(pivots)
                for c in range(pc + 1, AMBIENT) if c not in pivots]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[1 if c == pc else 0 for c in range(AMBIENT)] for pc in pivots]
            for (r, c), x in zip(free, values):
                rows[r][c] = x
            yield tuple(tuple(r) for r in rows)


def nondegenerate_subspaces(q: int, seed: int) -> list[tuple[int, int]]:
    """Proper non-trivial subspaces of F_q^4 on which g·gᵀ is non-degenerate,
    as (dim, bitmask of the projective points they contain)."""
    f = field_for(q)
    gram = random_gram(f, seed)
    cols = list(zip(*gram))
    points = {b[0]: i for i, b in enumerate(rref_subspaces(q, 1))}
    out = []
    for k in range(1, AMBIENT):
        for basis in rref_subspaces(q, k):
            images = [[f.dot(a, col) for col in cols] for a in basis]
            if not det(f, [[f.dot(a, b) for b in basis] for a in images]):
                continue
            mask = 0
            for coeffs in itertools.product(range(q), repeat=k):
                v = [0] * AMBIENT
                for c, r in zip(coeffs, basis):
                    v = [f.add[x][f.mul[c][y]] for x, y in zip(v, r)]
                if any(v):
                    s = f.inv[next(x for x in v if x)]
                    mask |= 1 << points[tuple(f.mul[s][x] for x in v)]
            out.append((k, mask))
    return out


def chains(subspaces) -> list[list[tuple[int, ...]]]:
    """All chains U_1 < ... < U_j of the given subspaces, by length j = 1, 2, 3;
    vertices are list indices, each chain listed from its smallest member."""
    up = [[j for j, (kj, mj) in enumerate(subspaces) if kj > ki and mi & ~mj == 0]
          for ki, mi in subspaces]
    one = [(i,) for i in range(len(subspaces))]
    two = [(i, j) for i in range(len(subspaces)) for j in up[i]]
    three = [(i, j, k) for i, j in two for k in up[j]]
    return [one, two, three]
