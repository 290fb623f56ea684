"""Point masks of subspaces of F_q^d, from echelon bases.

A point is represented by its normalized vector, the one whose first
nonzero coordinate is 1, and its bit is its position in the ambient's
point table, in the order of ``linalg.enumerate_subspaces(field, d, 1)``:
the points whose leading 1 is at coordinate l take the bits from
(q^d - q^(d-l))/(q - 1) on, after those with an earlier leading 1, and
within them the coordinates after l count base q, the first least
significant.  The N = (q^d - 1)/(q - 1) points take the bits 0..N - 1, so
every mask lies below 2^N, the whole space's is 2^N - 1, and a subspace's
mask holds the bits of its points.  This module alone turns vectors into
bits and bits into vectors (``_point_codec``).

Masks are built without listing points: ``swept_hyperplanes`` builds
every hyperplane's mask by a partial-sum sweep over the coordinates, from
one mask per (coordinate, value), and ``meet_masks`` ANDs the hyperplane
masks of a subspace's d - k normals.  The functions are pure and keep
nothing: :mod:`phangeo.linalg` keeps each ambient's hyperplane masks and
subspace tables in its one record of that ambient.  ``listed_mask``
lists a subspace's points one by one; it is the arithmetic definition of
a mask, which the tests hold the meets to, and no library path calls it.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, mul

from .field import Field

__all__ = ["listed_mask", "meet_masks", "swept_hyperplanes"]


def _weights(q: int, ambient_dim: int) -> list[list[int]]:
    """weights[l][j]: the weight of coordinate j in the bit of a normalized
    vector whose leading 1 is at l, the bit being sum_j v_j weights[l][j]:
    0 before l, (q^d - q^(d-l))/(q - 1), the bit of the first such point,
    at l, and q^(j-l-1) after it."""
    d = ambient_dim
    return [[0] * lead + [(q**d - q ** (d - lead)) // (q - 1)]
            + [q**i for i in range(d - lead - 1)] for lead in range(d)]


def _point_codec(field: Field, ambient_dim: int):
    """The encoder and decoder of the points of F_q^ambient_dim: ``bit(v)``
    of a normalized vector v, and ``vector(bit)``, the normalized vector of
    a point bit, as a tuple."""
    q, d = field.q, ambient_dim
    weights = _weights(q, d)

    def bit(v) -> int:
        return sum(map(mul, v, weights[v.index(1)]))

    def vector(b: int) -> tuple[int, ...]:
        lead = d - 1
        while weights[lead][lead] > b:  # the bit of the first point with this lead
            lead -= 1
        v = [0] * d
        v[lead], tail = 1, b - weights[lead][lead]
        for j in range(lead + 1, d):
            tail, v[j] = divmod(tail, q)
        return tuple(v)

    return bit, vector


def listed_mask(field: Field, ambient_dim: int, rows) -> int:
    """The point mask of the span of echelon rows, point by point.  The
    normalized vectors are the combinations of the rows whose first nonzero
    coefficient is 1: row i plus any combination of the rows after it, which
    vanish up to the leading 1 of row i."""
    q = field.q
    add, mul_table = field.add_table, field.mul_table
    bit = _point_codec(field, ambient_dim)[0]
    later = [(0,) * ambient_dim]  # the span of the rows after row i
    mask = 0
    for i in reversed(range(len(rows))):
        points = [tuple([add[x][y] for x, y in zip(rows[i], v)]) for v in later]
        for p in points:
            mask |= 1 << bit(p)
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
    mul_table, inv, neg = field.mul_table, field.inv_table, field.neg_table
    weights = _weights(field.q, ambient_dim)
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
                    if scale is None:  # the normal's leading 1 is at pc
                        scale, w = mul_table[inv[c]], weights[pc]
                    key += scale[c] * w[pc]
            keys.append((key + neg[scale[1]] * w[f]) if scale else weights[f][f])
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
        bit = _point_codec(field, ambient_dim)[0]
        return [1 << bit(rows[0]) for rows in bases]
    if k == ambient_dim:
        return [(1 << len(hyperplanes)) - 1] * len(bases)
    hyperplane = hyperplanes.__getitem__
    return [reduce(and_, map(hyperplane, keys))
            for keys in _normal_keys(field, ambient_dim, bases)]


def _coordinate_masks(field: Field, ambient_dim: int) -> tuple[tuple[int, ...], ...]:
    """masks[j][v]: the point mask of the points whose normalized vector has
    v at coordinate j.  For each j the q masks partition the points."""
    q = field.q
    vector = _point_codec(field, ambient_dim)[1]
    bits = [[[] for _ in range(q)] for _ in range(ambient_dim)]
    for bit in range((q**ambient_dim - 1) // (q - 1)):
        for j, v in enumerate(vector(bit)):
            bits[j][v].append(bit)
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
    sweep and the leading part of their bits: about 2q ANDs per
    hyperplane in all."""
    q = field.q
    add, mul_table, neg = field.add_table, field.mul_table, field.neg_table
    weights = _weights(q, ambient_dim)
    coords = _coordinate_masks(field, ambient_dim)
    last = ambient_dim - 1
    out = {}

    def sweep(i, sums, key, w):
        # w: the weights of the normal's bit once its leading 1 is placed
        for c in range(q) if w else (0, 1):
            at = key + c * (w or weights[i])[i]
            if i == last:
                if c:
                    row = mul_table[c]
                    out[at] = sum(sums[neg[row[v]]] & m for v, m in enumerate(coords[i]))
                elif w:
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
            sweep(i + 1, swept, at, w or (weights[i] if c else None))

    sweep(0, [sum(coords[0])] + [0] * (q - 1), 0, None)
    return out
