"""Subspaces of F_q^(n+1): canonical forms, lattice operations, flags,
complements and exhaustive enumeration.

Vectors are tuples of field elements (ints, see :mod:`phangeo.field`).
A subspace is stored as its reduced row-echelon basis, which is the unique
canonical basis, so two subspaces are equal iff their stored bases are
identical.  All values are immutable and all operations pure.

Lattice questions are answered by point masks.  ``point_mask`` is the
bitmask of a subspace's projective points, built once per subspace, so
that a ⊆ b iff ``a.point_mask & ~b.point_mask == 0`` (``contains_subspace``,
the one containment test).  A point is represented by its normalized
vector, the one whose first nonzero coordinate is 1, and its bit is that
vector's base-q value with coordinate 0 least significant, so masks of
different subspaces of one ambient space agree bit for bit.  The points of
a ∩ b are the common points of a and b, so ``intersect`` ANDs the two masks
and finds the subspace with the result as its mask (``Subspace.from_mask``).
The whole membership predicate in :mod:`phangeo.phan`, transversality
included, reads masks only.
``hyperplane_masks`` keys the mask of each hyperplane by the point of its
normal vector, so that a form (:mod:`phangeo.forms`) reads the mask of a
perp from one linear functional.

No mask is built by listing points (:mod:`phangeo.masks`).  The
hyperplane masks are swept over the coordinates, from one mask per
(coordinate, value), and every other mask is a meet: a point is its own
bit, and a k-subspace the AND of the hyperplane masks of its d - k
normals.

Each ambient F_q^n has one record per process, in a bounded cache: its
k-subspace tables, and for each k the table positions grouped by the
lowest point of their entry, with the table's masks listed beside them,
each built on its first use.  ``enumerate_subspaces_of`` reads the
entries whose lowest point lies in the subspace and filters them by point
mask; ``Subspace.from_mask`` takes the table of the mask's dimension and
searches the entries whose lowest point is the mask's own.  The paper's
complex, its residues and its restricted families all live in one ambient,
so member enumeration, residue tests, meets and the vertices of every
restricted family share those objects, and each one's mask, pivots and
hash are computed once.  Eliminations read the field's lookup tables.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from . import masks
from .field import Field

__all__ = [
    "Subspace", "Flag",
    "rref", "combine", "solve_coordinates", "complement",
    "enumerate_subspaces", "enumerate_subspaces_of",
    "hyperplane_masks",
]


def rref(field: Field, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form; returns the nonzero rows (canonical basis).
    The arithmetic reads the field's lookup tables."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = field.inv_table[mat[r][c]]
        if inv != 1:
            scale = mul[inv]
            mat[r] = [scale[x] for x in mat[r]]
        top = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                scale = mul[neg[mat[i][c]]]
                mat[i] = [add[x][scale[y]] for x, y in zip(mat[i], top)]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r] if any(row))


def combine(field: Field, coeffs, rows, ambient: int) -> tuple[int, ...]:
    """sum(coeffs[i] * rows[i]) in F_q^ambient, through the lookup tables."""
    add, mul = field.add_table, field.mul_table
    v = [0] * ambient
    for c, row in zip(coeffs, rows):
        if c:
            scale = mul[c]
            v = [add[x][scale[y]] for x, y in zip(v, row)]
    return tuple(v)


def solve_coordinates(field: Field, rows, vec) -> tuple[int, ...] | None:
    """Coefficients c with sum(c_i * rows[i]) == vec, or None if unsolvable.

    The rows must be linearly independent for the answer to be unique.
    """
    k = len(rows)
    if k == 0:
        return () if not any(vec) else None
    aug = [[rows[i][j] for i in range(k)] + [vec[j]] for j in range(len(vec))]
    red = rref(field, aug)
    sol = [0] * k
    for row in red:
        pc = next(j for j, v in enumerate(row) if v != 0)
        if pc == k:
            return None  # inconsistent
        sol[pc] = row[k]
        # independence of rows guarantees no free variables among c
    return tuple(sol)


_setattr = object.__setattr__  # bound once: subspaces are built in hot loops


class Frozen:
    """Base of the immutable value types: each sets its fields once, in
    ``__init__``, and assigning or deleting an attribute afterwards raises
    AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


class Subspace(Frozen):
    """A subspace of F_q^ambient in canonical reduced-echelon basis form.

    Two subspaces are equal iff their field, ambient dimension and basis
    are.  ``point_mask`` holds one bit per projective point of the subspace:
    bit sum(v_j * q**j) for the normalized vector v of the point (first
    nonzero coordinate 1).  The zero subspace has mask 0.
    """

    def __init__(self, field: Field, ambient: int, basis: tuple[tuple[int, ...], ...]):
        _setattr(self, "field", field)
        _setattr(self, "ambient", ambient)
        _setattr(self, "basis", basis)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.basis == other.basis and self.ambient == other.ambient
                and (self.field is other.field or self.field == other.field))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.field, self.ambient, self.basis))

    # -- constructors ------------------------------------------------------

    @classmethod
    def span(cls, field: Field, ambient: int, vectors) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient:
                raise ValueError(f"vector length {len(v)} != ambient dimension {ambient}")
        return cls(field, ambient, rref(field, vectors))

    @staticmethod
    def from_mask(field: Field, ambient: int, mask: int) -> "Subspace":
        """The subspace of F_q^ambient whose point mask is ``mask``, which
        must be the mask of a subspace: the entry of the ambient's table of
        its dimension, read from the point count, among those whose lowest
        point is the mask's own."""
        record = _ambient(field, ambient)
        k = record.dims[mask.bit_count()]
        table = record[k]
        by_lowest, meets = record.by_lowest(k)
        return next(table[pos] for pos in by_lowest[(mask & -mask).bit_length()]
                    if meets[pos] == mask)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        eye = tuple(tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient))
        return cls(field, ambient, eye)

    # -- basic queries -----------------------------------------------------

    @cached_property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient

    def sort_key(self):
        return (len(self.basis), self.basis)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row.  The basis is reduced
        echelon, so a vector of the subspace has its coordinates over the
        basis at these columns."""
        return tuple(next(j for j, x in enumerate(row) if x != 0) for row in self.basis)

    def coordinates(self, vec) -> tuple[int, ...] | None:
        """Coefficients of vec over the canonical basis, or None if outside:
        the entries at the pivot columns, if they recombine to vec."""
        if len(vec) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.is_full():  # the whole space's canonical basis is the unit vectors
            return tuple(vec)
        coords = tuple(vec[j] for j in self.pivots)
        if combine(self.field, coords, self.basis, self.ambient) != tuple(vec):
            return None
        return coords

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return not other.point_mask & ~self.point_mask

    @cached_property
    def point_mask(self) -> int:
        """Bitmask of the projective points, built on first use as the meet
        of the hyperplanes through the subspace (``masks.meet_masks``); the
        subspaces of a table get theirs when the table is built."""
        f, d = self.field, self.ambient
        return masks.meet_masks(f, d, (self.basis,), hyperplane_masks(f, d))[0]

    def _check_compatible(self, other: "Subspace") -> None:
        if self.ambient != other.ambient or (self.field is not other.field
                                             and self.field != other.field):
            raise ValueError("subspaces live in different ambient spaces")

    # -- lattice operations --------------------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.field, self.ambient, rref(self.field, self.basis + other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """A∩B, the subspace whose points are the points A and B share."""
        self._check_compatible(other)
        return Subspace.from_mask(self.field, self.ambient, self.point_mask & other.point_mask)

    # -- enumeration ----------------------------------------------------------

    def vectors(self):
        """All q**dim vectors, coefficients over the basis counted base q
        (first basis row least significant); the zero vector comes first."""
        q = self.field.q
        for idx in range(q**self.dim):
            coeffs = [idx // q**i % q for i in range(self.dim)]
            yield combine(self.field, coeffs, self.basis, self.ambient)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, basis={self.basis})"


class Flag(Frozen):
    """A chain {0} = V_0 < V_1 < ... < V_(t+1) = top of subspaces."""

    def __init__(self, members: tuple[Subspace, ...]):
        if len(members) < 2:
            raise ValueError("a flag needs at least the zero space and the top space")
        if not members[0].is_zero():
            raise ValueError("flag must start with the zero subspace")
        for a, b in zip(members, members[1:]):
            if not (b.contains_subspace(a) and a.dim < b.dim):
                raise ValueError(
                    f"flag members must strictly increase: dim {a.dim} !< dim {b.dim}"
                )
        _setattr(self, "members", members)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash((self.members,))

    @property
    def top(self) -> Subspace:
        return self.members[-1]

    @property
    def field(self) -> Field:
        return self.top.field

    def __getitem__(self, i: int) -> Subspace:
        return self.members[i]


def complement(a: Subspace, within: Subspace, vector_order=None) -> Subspace:
    """A complement C with a ⊕ C = within.

    Deterministic greedy extension over the canonical vector enumeration of
    ``within``; a different policy may be supplied as an iterable of
    candidate vectors.
    """
    if not within.contains_subspace(a):
        raise ValueError("complement: first subspace is not contained in the second")
    f = a.field
    working = list(a.basis)
    picked = []
    target = within.dim - a.dim
    candidates = within.vectors() if vector_order is None else vector_order
    for v in candidates:
        if len(picked) == target:
            break
        red = rref(f, working + [list(v)])
        if len(red) > len(working):
            working = list(red)
            picked.append(v)
    if len(picked) != target:
        raise ValueError("complement: candidate vectors did not span a complement")
    return Subspace.span(f, a.ambient, picked)


def enumerate_subspaces(field: Field, ambient_dim: int, k: int):
    """All k-dimensional subspaces of F_q^ambient_dim, each exactly once.

    Iterates reduced-echelon matrices directly: pivot columns run through
    combinations in lexicographic order, free entries count base q.
    """
    if not 0 <= k <= ambient_dim:
        raise ValueError(f"subspace dimension {k} outside [0, {ambient_dim}]")
    if k == 0:
        yield Subspace.zero(field, ambient_dim)
        return
    q = field.q
    for pivots in combinations(range(ambient_dim), k):
        pivot_set = set(pivots)
        free_cells = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, ambient_dim)
            if j not in pivot_set
        ]
        for counter in range(q ** len(free_cells)):
            rows = [[0] * ambient_dim for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            rem = counter
            for (i, j) in free_cells:
                rows[i][j] = rem % q
                rem //= q
            yield Subspace(field, ambient_dim, tuple(tuple(r) for r in rows))


class _Ambient(dict):
    """k -> the k-subspaces of one ambient F_q^d, in the order of
    ``enumerate_subspaces``, their point masks filled in as hyperplane meets
    (``masks.meet_masks``); each table is built on its first lookup, and so
    is each ``by_lowest(k)``, which only ``enumerate_subspaces_of`` on a
    proper subspace and ``Subspace.from_mask`` read.  ``dims`` maps a point
    count to the dimension of the subspaces with that many points."""

    def __init__(self, field: Field, ambient_dim: int):
        self.field, self.ambient_dim = field, ambient_dim
        self.dims = {(field.q**k - 1) // (field.q - 1): k for k in range(ambient_dim + 1)}
        self.lowest: dict[int, tuple[dict[int, list[int]], list[int]]] = {}

    def __missing__(self, k: int) -> tuple[Subspace, ...]:
        f, d = self.field, self.ambient_dim
        table = self[k] = tuple(enumerate_subspaces(f, d, k))
        meets = masks.meet_masks(f, d, [s.basis for s in table], hyperplane_masks(f, d))
        for s, mask in zip(table, meets):
            _setattr(s, "point_mask", mask)  # the cached_property's slot
        return table

    def by_lowest(self, k: int) -> tuple[dict[int, list[int]], list[int]]:
        """The positions in the k-table grouped by their entry's lowest
        point (keyed by the bit length of its bit), in table order, and the
        point masks of the table, listed apart so that a search reads ints
        only."""
        if k not in self.lowest:
            meets = [s.point_mask for s in self[k]]
            out = {}
            for pos, m in enumerate(meets):
                out.setdefault((m & -m).bit_length(), []).append(pos)
            self.lowest[k] = out, meets
        return self.lowest[k]


@lru_cache(maxsize=16)
def _ambient(field: Field, ambient_dim: int) -> _Ambient:
    """The subspace tables of F_q^ambient_dim, built once per process: every
    enumeration and every lookup by mask in that ambient share these
    objects, so each subspace's point mask, pivots and hash are computed
    once.  A certificate command reads one ambient and ``lemma-tests
    --count 100`` eleven, so with room for 16 neither rebuilds a record."""
    return _Ambient(field, ambient_dim)


def enumerate_subspaces_of(space: Subspace, k: int) -> tuple[Subspace, ...]:
    """All k-dimensional subspaces of an arbitrary subspace, in the order of
    ``enumerate_subspaces`` on the ambient: the entries of the subspace table
    whose point masks lie inside the space's mask.  Each has its lowest
    point among the space's points, so only the entries whose lowest point
    is one of those are tested."""
    if not 0 <= k <= space.dim:
        raise ValueError(f"subspace dimension {k} outside [0, {space.dim}]")
    record = _ambient(space.field, space.ambient)
    table = record[k]
    if k == 0 or space.is_full():
        return table
    by_lowest, meets = record.by_lowest(k)
    outside = ~space.point_mask
    found, rest = [], space.point_mask
    while rest:
        low = rest & -rest
        rest ^= low
        found.extend(pos for pos in by_lowest.get(low.bit_length(), ())
                     if not meets[pos] & outside)
    return tuple(table[pos] for pos in sorted(found))


@lru_cache(maxsize=32)
def hyperplane_masks(field: Field, ambient_dim: int) -> dict[int, int]:
    """The point mask of each hyperplane {y : sum_j c_j y_j = 0} of
    F_q^ambient_dim, keyed by the point bit of its normal c (normalized, like
    every point), built once per process by a sweep over the coordinates
    (``masks.swept_hyperplanes``)."""
    return masks.swept_hyperplanes(field, ambient_dim)
