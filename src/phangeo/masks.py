"""Point masks of subspaces of F_q^d, from echelon bases.

A point is represented by its normalized vector, the one whose first
nonzero coordinate is 1, and its bit is that vector's base-q value with
coordinate 0 least significant; a subspace's mask holds the bits of its
points.

Masks are built without listing points: ``swept_hyperplanes`` builds
every hyperplane's mask by a partial-sum sweep over the coordinates, from
one mask per (coordinate, value), and ``meet_masks`` ANDs the hyperplane
masks of a subspace's d - k normals.  The functions are pure and keep
nothing; :mod:`phangeo.linalg` decides what is kept.  ``listed_mask``
lists a subspace's points one by one; it is the arithmetic definition of
a mask, which the tests hold the meets to, and no library path calls it.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, mul

from .field import Field

__all__ = ["listed_mask", "meet_masks", "swept_hyperplanes"]


def listed_mask(field: Field, ambient_dim: int, rows) -> int:
    """The point mask of the span of echelon rows, point by point.  The
    normalized vectors are the combinations of the rows whose first nonzero
    coefficient is 1: row i plus any combination of the rows after it, which
    vanish up to the leading 1 of row i."""
    q = field.q
    add, mul_table = field.add_table, field.mul_table
    weights = [q**j for j in range(ambient_dim)]
    later = [(0,) * ambient_dim]  # the span of the rows after row i
    mask = 0
    for i in reversed(range(len(rows))):
        points = [tuple([add[x][y] for x, y in zip(rows[i], v)]) for v in later]
        for p in points:
            mask |= 1 << sum(map(mul, p, weights))
        if i:
            multiples = [[mul_table[c][x] for x in rows[i]] for c in range(2, q)]
            later += points + [tuple([add[x][y] for x, y in zip(m, v)])
                               for m in multiples for v in later]
    return mask


def _normal_keys(field: Field, ambient_dim: int, bases):
    """For each reduced echelon basis, the point bits of its normals, one
    per non-pivot column f: e_f - sum_i row_i[f] e_(pivot i), normalized.
    Each is orthogonal to every row under the plain dot product, and
    together they cut the span out.  Rows with pivot after f have 0 at f,
    so the leading entry is -row_i[f] for the first row with row_i[f] != 0,
    and scaling it to 1 gives row_i[f] / row_lead[f] at the pivots and
    -1 / row_lead[f] at f."""
    q = field.q
    mul_table, inv, neg = field.mul_table, field.inv_table, field.neg_table
    weights = [q**j for j in range(ambient_dim)]
    for rows in bases:
        pivots = [row.index(1) for row in rows]  # the leading 1 of each row
        keys = []
        for f in range(ambient_dim):
            if f in pivots:
                continue
            key, scale = 0, None
            for row, pc in zip(rows, pivots):
                c = row[f]
                if c:
                    if scale is None:
                        scale = mul_table[inv[c]]
                    key += scale[c] * weights[pc]
            keys.append(key + (neg[scale[1]] if scale else 1) * weights[f])
        yield keys


def meet_masks(field: Field, ambient_dim: int, bases, hyperplanes: dict[int, int]) -> list[int]:
    """The point masks of the spans of echelon bases of one dimension k, each
    the AND of the masks in ``hyperplanes`` (keyed by normal, as
    ``swept_hyperplanes``) of its normals.  A point (k = 1) is its own bit,
    an echelon row being normalized; the whole space (k = d), with no
    normal, is every point, and every point is the normal of one
    hyperplane."""
    k = len(bases[0]) if bases else 0
    if k == 1:
        weights = [field.q**j for j in range(ambient_dim)]
        return [1 << sum(map(mul, rows[0], weights)) for rows in bases]
    if k == ambient_dim:
        return [sum(1 << key for key in hyperplanes)] * len(bases)
    hyperplane = hyperplanes.__getitem__
    return [reduce(and_, map(hyperplane, keys))
            for keys in _normal_keys(field, ambient_dim, bases)]


def _coordinate_masks(field: Field, ambient_dim: int) -> tuple[tuple[int, ...], ...]:
    """masks[j][v]: the point mask of the points whose normalized vector has
    v at coordinate j.  For each j the q masks partition the points."""
    q = field.q
    bits = [[[] for _ in range(q)] for _ in range(ambient_dim)]
    for lead in range(ambient_dim):  # the points whose leading 1 is at lead
        for tail in range(q ** (ambient_dim - lead - 1)):
            bit = q**lead + tail * q ** (lead + 1)
            for j in range(ambient_dim):
                bits[j][bit // q**j % q].append(bit)
    return tuple(tuple(sum(1 << b for b in at) for at in row) for row in bits)


def swept_hyperplanes(field: Field, ambient_dim: int) -> dict[int, int]:
    """The point mask of each hyperplane {y : sum_j c_j y_j = 0}, keyed by
    the point bit of its normal c, by a partial-sum sweep over the
    coordinates.

    ``sums[s]`` is the mask of the points y with sum_(j < i) c_j y_j = s for
    the leading coordinates c_0..c_(i-1) of a normal.  Coordinate i with
    c_i != 0 maps it to sum_v (sums[s] & masks[i][v]) at s + c_i v, q^2
    ANDs, or q at the last coordinate, where only s = 0 is kept; c_i = 0
    leaves it as it is.  The normals run depth-first, first nonzero
    coordinate 1, so those that share leading coordinates share their
    sweep: about 2q ANDs per hyperplane in all."""
    q = field.q
    add, mul_table, neg = field.add_table, field.mul_table, field.neg_table
    coords = _coordinate_masks(field, ambient_dim)
    last = ambient_dim - 1
    out = {}

    def sweep(i, sums, key, started):
        for c in range(q) if started else (0, 1):
            at = key + c * q**i
            if i == last:
                if c:
                    row = mul_table[c]
                    out[at] = sum(sums[neg[row[v]]] & m for v, m in enumerate(coords[i]))
                elif started:
                    out[at] = sums[0]
                continue
            if c:
                row = mul_table[c]
                swept = [0] * q
                for v, m in enumerate(coords[i]):
                    cv = row[v]
                    for s, sm in enumerate(sums):
                        if sm:
                            swept[add[s][cv]] |= sm & m
            else:
                swept = sums
            sweep(i + 1, swept, at, started or c != 0)

    sweep(0, [sum(coords[0])] + [0] * (q - 1), 0, False)
    return out
