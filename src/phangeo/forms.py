"""Sigma-hermitian forms: evaluation, Gram matrices, radicals,
perpendicular spaces and restriction.  The extension of a flag's forms
around a pivot point and the projection form onto the perp of a
non-degenerate point serve only the restricted families, and live with them
in :mod:`phangeo.residues`.

A form is stored as the Gram matrix over the canonical (reduced-echelon)
basis of its domain subspace.  Every other Gram matrix of the form comes
from ``gram_of``, [w(x_i, x_j)] for vectors x_i of the domain, evaluated on
one triangle, the other being its image under sigma: a restriction is the
Gram matrix of the canonical basis of its target, and the extended,
projected and randomly drawn forms of :mod:`phangeo.residues` and
:mod:`phangeo.suites` are Gram matrices of other vectors.

Perps, radicals, isotropy and non-degeneracy on a subspace given by its
point mask (``nondegenerate_on_mask``, the membership test of
:mod:`phangeo.phan`) are mask algebra only, from the point mask of x^perp
for each point x of the domain D, computed when first asked for
(``_PointPerps``) as D cut by one hyperplane mask, read from the
ambient's record in :mod:`phangeo.linalg`, which owns the hyperplane
masks; points and normals go to and from their bits through
:mod:`phangeo.masks`, which owns the point format.  A restriction to a
subspace S of D has no table of its own: on first use it takes its
root's, the form that the chain of restrictions starts from, through the
``_parent`` link.  Every read cuts
by a mask inside S (x^perp in S is x^perp in D cut by S), so the
restrictions of one form to many subspaces, such as the forms of the
restricted families, share one table and evaluate no Gram row for it.  The
perp of a subspace S of D is D's mask cut by the perps of S's basis rows,
which are points, the basis being reduced echelon; the radical is the perp
of D.  A point x is isotropic iff it lies in its own perp, since
w(ax, ax) = a sigma(a) w(x, x), and a subspace W of D is non-degenerate iff
no point of W lies in the perps of all of W's points.  The perps live as
long as their root form, which every restriction keeps; the forms of the
internal specs of residues and restricted families go with those specs,
which no cache keeps.
Hermitian symmetry G[j][i] == sigma(G[i][j]) is enforced at construction,
so left and right perps agree; evaluation is sigma-sesquilinear in the
second argument: w(a*x, b*y) = a * sigma(b) * w(x, y).
"""

from __future__ import annotations

from functools import cached_property

from .field import Field
from .linalg import Frozen, Subspace, _ambient
from .masks import _point_codec

__all__ = [
    "HermitianForm",
    "HermitianSymmetryError",
    "RadicalConditionError",
]


class HermitianSymmetryError(ValueError):
    """Gram matrix is not sigma-hermitian."""


class RadicalConditionError(ValueError):
    """Rad(omega_i) differs from the required flag member."""


class HermitianForm(Frozen):
    """A sigma-hermitian form on a subspace, as a Gram matrix over its basis.
    ``restrict`` checks its target subspace; ``nondegenerate_on_mask``
    trusts that its mask is the point mask of a subspace of the domain.

    Two forms are equal iff their field, domain and Gram matrix are."""

    def __init__(self, field: Field, domain: Subspace, gram: tuple[tuple[int, ...], ...]):
        k = domain.dim
        if len(gram) != k or any(len(r) != k for r in gram):
            raise ValueError(f"Gram matrix must be {k}x{k} for a {k}-dimensional domain")
        for i in range(k):
            for j in range(k):
                if gram[j][i] != field.sigma(gram[i][j]):
                    raise HermitianSymmetryError(
                        f"gram[{j}][{i}] = {gram[j][i]} != "
                        f"sigma(gram[{i}][{j}]) = {field.sigma(gram[i][j])}"
                    )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "gram", gram)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.domain, self.gram) == (other.field, other.domain, other.gram)

    def __hash__(self) -> int:
        return hash((self.field, self.domain, self.gram))

    # -- evaluation ----------------------------------------------------------

    def _eval_coords(self, cx, cy) -> int:
        f = self.field
        add, mul = f.add_table, f.mul_table
        scy = [f.sigma_table[b] for b in cy]
        total = 0
        for a, row in zip(cx, self.gram):
            if a == 0:
                continue
            scale = mul[a]
            for b, g in zip(scy, row):
                if b and g:
                    total = add[total][mul[scale[b]][g]]
        return total

    def evaluate(self, x, y) -> int:
        cx = self.domain.coordinates(x)
        cy = self.domain.coordinates(y)
        if cx is None or cy is None:
            raise ValueError("vector outside the domain of the form")
        return self._eval_coords(cx, cy)

    # -- Gram matrices, restriction, radical, perp ---------------------------

    def gram_of(self, vectors) -> tuple[tuple[int, ...], ...]:
        """The Gram matrix [w(x_i, x_j)] of vectors x_i of the domain.  Each
        vector's coordinates are solved once; one triangle is evaluated and
        the other is its image under sigma, w(x_j, x_i) = sigma(w(x_i, x_j)).
        A vector outside the domain raises ValueError."""
        coords = [self.domain.coordinates(v) for v in vectors]
        if None in coords:
            raise ValueError("vector outside the domain of the form")
        sigma = self.field.sigma_table
        gram = [[0] * len(coords) for _ in coords]
        for i, a in enumerate(coords):
            row = gram[i]
            for j in range(i, len(coords)):
                row[j] = self._eval_coords(a, coords[j])
                gram[j][i] = sigma[row[j]]
        return tuple(map(tuple, gram))

    def restrict(self, s: Subspace) -> "HermitianForm":
        """The form on s, a subspace of the domain, as the Gram matrix of
        the canonical basis of s.  No perp table is built here: on first use
        the restriction reads its root's (``_perps``)."""
        self.domain._check_compatible(s)
        form = HermitianForm(self.field, s, self.gram_of(s.basis))
        object.__setattr__(form, "_parent", self)
        return form

    def radical(self) -> Subspace:
        """{x in D : w(x, y) = 0 for all y in D}: the perp of the domain."""
        return self.perp(self.domain)

    _parent = None  # the form this one is a restriction of

    @cached_property
    def _perps(self) -> "_PointPerps":
        """The perp table of the root form, this form's own if it restricts
        none; a restriction reads it through its parent on first use."""
        if self._parent is not None:
            return self._parent._perps
        return _PointPerps(self)

    def nondegenerate_on_mask(self, mask: int) -> bool:
        """Whether the form is non-degenerate on the subspace W of the domain
        with the given point mask (not checked): whether W misses the AND of
        the perps of its points, its radical.  Those perps are linear in the
        point, so any spanning set of W's points gives the same AND, and the
        loop stops as soon as the running AND misses W."""
        perps = self._perps
        radical = rest = mask
        while radical and rest:
            low = rest & -rest
            rest ^= low
            radical &= perps[low.bit_length() - 1]
        return not radical

    def perp_mask(self, s: Subspace) -> int:
        """The point mask of {x in D : w(x, y) = 0 for all y in S}: D's mask
        cut by the perp of each basis row of S."""
        if not self.domain.contains_subspace(s):
            raise ValueError("perp target is not contained in the domain")
        perps = self._perps
        mask = self.domain.point_mask
        for row in s.basis:
            mask &= perps[perps.bit(row)]
        return mask

    def perp(self, s: Subspace) -> Subspace:
        """{x in D : w(x, y) = 0 for all y in S}."""
        return Subspace.from_mask(self.field, self.domain.ambient, self.perp_mask(s))

    def admits_nonisotropic_vector(self) -> bool:
        """Whether some point of the domain lies outside its own perp."""
        perps = self._perps
        rest = self.domain.point_mask
        while rest:
            low = rest & -rest
            rest ^= low
            if not perps[low.bit_length() - 1] & low:
                return True
        return False


class _PointPerps(dict):
    """Point bit of x -> point mask of x^perp ∩ D, for the points x of a
    form's domain D, each computed on its first lookup.  The coordinates of
    x are its entries at D's pivot columns, and w(y, x) = sum_a y_(pivot a)
    c_a with c = G sigma(x), so x^perp is D cut by the hyperplane with
    normal c placed at the pivot columns, whose mask it reads from the
    hyperplane masks of the ambient's record (``linalg._ambient``); a
    radical point (c = 0) is perpendicular to all of D.  Points and normals
    go to and from their bits through :mod:`phangeo.masks` (``bit`` and
    ``vector``).  It holds no reference to its form, so that the two make
    no cycle and are freed together, without the cycle collector."""

    def __init__(self, form: HermitianForm):
        f, dom = form.field, form.domain
        self.field, self.gram, self.pivots, self.whole = f, form.gram, dom.pivots, dom.point_mask
        self.hyperplanes = _ambient(f, dom.ambient).hyperplanes
        self.bit, self.vector = _point_codec(f, dom.ambient)

    def __missing__(self, bit: int) -> int:
        f, pivots = self.field, self.pivots
        add, mul, inv = f.add_table, f.mul_table, f.inv_table
        x = self.vector(bit)
        sx = [f.sigma_table[x[j]] for j in pivots]
        normal = [0] * len(x)
        for j, row in zip(pivots, self.gram):
            c = 0
            for g, b in zip(row, sx):
                if g and b:
                    c = add[c][mul[g][b]]
            normal[j] = c
        lead = next((c for c in normal if c), 0)
        mask = self.whole
        if lead:
            scale = mul[inv[lead]]
            mask &= self.hyperplanes[self.bit([scale[c] for c in normal])]
        self[bit] = mask
        return mask
