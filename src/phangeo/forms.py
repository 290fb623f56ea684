"""Sigma-hermitian forms: evaluation, radicals, perpendicular spaces,
restriction, extension of a flag's forms to the whole space, and the
projection form onto the perp of a non-degenerate point.

A form is stored as the Gram matrix over the canonical (reduced-echelon)
basis of its domain subspace, so restriction is Gram compression, a radical
is a matrix kernel, and ``is_nondegenerate`` is full rank of the compressed
Gram matrix, with no radical built.  A Gram matrix of given vectors, for a
restriction or a rank, is evaluated on one triangle; the other is its image
under sigma.

Non-degeneracy on a subspace given by its point mask (``nondegenerate_on_mask``,
the membership test of :mod:`phangeo.phan`) is mask algebra only.  Each form
builds, on first use, the point mask of x^perp ∩ D for every point x of its
domain D: a vector of D has its coordinates at D's pivot columns, one Gram
row gives the functional y -> w(y, x) there, and the hyperplane with that
normal (``linalg.hyperplane_masks``, a coordinate sweep that lists no
point) cut down to D is the perp.  A
subspace W of D is non-degenerate iff no point of W lies in the perps of
all of W's points.  The table lives as long as its form; the forms of the
internal specs of residues and restricted families go with those specs,
which no cache keeps (``PhanSpec.members``).  Hermitian symmetry
G[j][i] == sigma(G[i][j]) is enforced at construction, so left and right
perps agree; evaluation is sigma-sesquilinear in the second argument:
w(a*x, b*y) = a * sigma(b) * w(x, y).
"""

from __future__ import annotations

from functools import cached_property

from .field import Field
from .linalg import (
    Decomposition,
    Flag,
    Frozen,
    Subspace,
    combine,
    complement,
    hyperplane_masks,
    nullspace,
    project,
)

__all__ = [
    "HermitianForm",
    "HermitianSymmetryError",
    "DegeneratePivotError",
    "RadicalConditionError",
    "NoNonisotropicVectorError",
    "extend_forms",
    "project_form",
]


class HermitianSymmetryError(ValueError):
    """Gram matrix is not sigma-hermitian."""


class DegeneratePivotError(ValueError):
    """A pivot point required to be non-degenerate is isotropic."""


class RadicalConditionError(ValueError):
    """Rad(omega_i) differs from the required flag member."""


class NoNonisotropicVectorError(ValueError):
    """A form required to admit a non-isotropic vector admits none."""


class HermitianForm(Frozen):
    """A sigma-hermitian form on a subspace, as a Gram matrix over its basis.
    ``is_nondegenerate`` checks its target subspace; ``nondegenerate_on_mask``
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

    # -- restriction, radical, perp -------------------------------------------

    def _gram(self, coords) -> list[list[int]]:
        """The Gram matrix of the vectors with the given coordinates over the
        domain: one triangle is evaluated, and the other is its image under
        sigma, G[j][i] = sigma(G[i][j])."""
        sigma = self.field.sigma_table
        gram = [[0] * len(coords) for _ in coords]
        for i, a in enumerate(coords):
            gram[i][i] = self._eval_coords(a, a)
            for j in range(i + 1, len(coords)):
                gram[i][j] = self._eval_coords(a, coords[j])
                gram[j][i] = sigma[gram[i][j]]
        return gram

    def _gram_on(self, s: Subspace) -> tuple[tuple[int, ...], ...]:
        """The Gram matrix over the canonical basis of s, a subspace of the
        domain."""
        self.domain._check_compatible(s)
        coords = [self.domain.coordinates(r) for r in s.basis]
        if None in coords:
            raise ValueError("restriction target is not contained in the domain")
        return tuple(map(tuple, self._gram(coords)))

    def restrict(self, s: Subspace) -> "HermitianForm":
        return HermitianForm(self.field, s, self._gram_on(s))

    def radical(self, restricted_to: Subspace | None = None) -> Subspace:
        """{x in S : w(x, y) = 0 for all y in S}, computed as a kernel."""
        s = self.domain if restricted_to is None else restricted_to
        form = self if restricted_to is None else self.restrict(s)
        k = s.dim
        # x = sum c_a s_a is radical iff sum_a c_a G[a][b] = 0 for all b
        rows = [[form.gram[a][b] for a in range(k)] for b in range(k)]
        kernel = nullspace(self.field, rows, k)
        vecs = [combine(self.field, c, s.basis, s.ambient) for c in kernel]
        return Subspace.span(self.field, s.ambient, vecs)

    def is_nondegenerate(self, s: Subspace | None = None) -> bool:
        """Whether the radical on s (default: the domain) is zero, that is,
        whether the Gram matrix there has full rank."""
        return _full_rank(self.field, self.gram if s is None else self._gram_on(s))

    @cached_property
    def _perp_masks(self) -> dict[int, int]:
        """Point bit of x -> point mask of x^perp ∩ D, for every point x of
        the domain D.  The coordinates of x are its entries at D's pivot
        columns, and w(y, x) = sum_a y_(pivot a) c_a with c = G sigma(x), so
        x^perp is D cut by the hyperplane with normal c placed at the pivot
        columns; a radical point (c = 0) is perpendicular to all of D."""
        f = self.field
        add, mul, inv, sigma = f.add_table, f.mul_table, f.inv_table, f.sigma_table
        dom = self.domain
        q, pivots, whole = f.q, dom.pivots, dom.point_mask
        weights = [q**j for j in range(dom.ambient)]
        hyperplanes = hyperplane_masks(f, dom.ambient)
        out = {}
        rest = whole
        while rest:
            low = rest & -rest
            rest ^= low
            bit = low.bit_length() - 1
            sx = [sigma[bit // weights[j] % q] for j in pivots]
            normal = []
            for row in self.gram:
                c = 0
                for g, b in zip(row, sx):
                    if g and b:
                        c = add[c][mul[g][b]]
                normal.append(c)
            lead = next((c for c in normal if c), 0)
            if lead:
                scale = mul[inv[lead]]
                key = sum(scale[c] * weights[j] for c, j in zip(normal, pivots))
                out[bit] = hyperplanes[key] & whole
            else:
                out[bit] = whole
        return out

    def nondegenerate_on_mask(self, mask: int) -> bool:
        """Whether the form is non-degenerate on the subspace W of the domain
        with the given point mask (not checked): whether W misses the AND of
        the perps of its points, its radical.  Those perps are linear in the
        point, so any spanning set of W's points gives the same AND, and the
        loop stops as soon as the running AND misses W."""
        perps = self._perp_masks
        radical = rest = mask
        while radical and rest:
            low = rest & -rest
            rest ^= low
            radical &= perps[low.bit_length() - 1]
        return not radical

    def perp(self, s: Subspace) -> Subspace:
        """{x in domain : w(x, y) = 0 for all y in S}."""
        if not self.domain.contains_subspace(s):
            raise ValueError("perp target is not contained in the domain")
        f = self.field
        k = self.domain.dim
        rows = []
        for r in s.basis:
            cb = self.domain.coordinates(r)
            rows.append(
                [self._eval_coords(tuple(1 if t == i else 0 for t in range(k)), cb)
                 for i in range(k)]
            )
        kernel = nullspace(f, rows, k) if rows else [
            tuple(1 if t == i else 0 for t in range(k)) for i in range(k)
        ]
        vecs = [combine(f, c, self.domain.basis, self.domain.ambient) for c in kernel]
        return Subspace.span(f, self.domain.ambient, vecs)

    def admits_nonisotropic_vector(self) -> bool:
        k = self.domain.dim
        q = self.field.q
        for idx in range(1, q**k):
            c = tuple((idx // q**i) % q for i in range(k))
            if self._eval_coords(c, c) != 0:
                return True
        return False


def _full_rank(field: Field, rows) -> bool:
    """Whether a square matrix is invertible, by forward elimination that
    stops at the first column without a pivot; the arithmetic reads the
    field's lookup tables."""
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    mat = [list(r) for r in rows]
    for c in range(len(mat)):
        piv = next((i for i in range(c, len(mat)) if mat[i][c]), None)
        if piv is None:
            return False
        mat[c], mat[piv] = mat[piv], mat[c]
        top = mat[c]
        inv = field.inv_table[top[c]]
        for i in range(c + 1, len(mat)):
            if mat[i][c]:
                scale = mul[neg[mul[mat[i][c]][inv]]]
                mat[i] = [add[x][scale[y]] for x, y in zip(mat[i], top)]
    return True


def extend_forms(flag: Flag, forms, p: Subspace, complement_policy=None):
    """Extend the flag's forms to the whole space around a pivot point p.

    Requires Rad(omega_i) = V_i for every i and p non-degenerate for the top
    form.  Returns forms on all of V = flag.top such that each restricts to
    the original on V_(i+1), keeps radical V_i, and makes p non-degenerate
    with one common perp; the construction sums the original forms over the
    projections onto a direct decomposition V = C_1 ⊕ ... ⊕ C_(t+1) ⊕ p.
    """
    forms = tuple(forms)
    t = len(flag.members) - 2
    if len(forms) != t + 1:
        raise ValueError(f"expected {t + 1} forms for a flag of length {t + 2}")
    for i, w in enumerate(forms):
        if w.domain != flag[i + 1]:
            raise ValueError(f"form {i} is not defined on flag member {i + 1}")
        if w.radical() != flag[i]:
            raise RadicalConditionError(f"Rad(omega_{i}) != V_{i} on input")
    if p.dim != 1:
        raise ValueError("pivot must be one-dimensional")
    pv = p.basis[0]
    top = forms[t]
    if top.evaluate(pv, pv) == 0:
        raise DegeneratePivotError("pivot point is degenerate for the top form")

    comp = complement_policy if complement_policy is not None else complement
    parts = []
    for i in range(1, t + 1):
        parts.append(comp(flag[i - 1], flag[i]))
    perp_p = top.perp(p)
    parts.append(comp(flag[t], perp_p))
    parts.append(p)
    decomp = Decomposition(tuple(parts), flag.top)

    f = flag.field
    basis = flag.top.basis
    # projections of the top-space basis onto each summand
    proj = [[project(d, decomp, idx) for d in basis] for idx in range(len(parts))]

    out = []
    for i in range(t + 1):
        gram = []
        for r in range(len(basis)):
            row = []
            for s in range(len(basis)):
                total = 0
                for j in range(i, t + 1):
                    xr = proj[j][r]
                    xs = proj[j][s]
                    if any(xr) and any(xs):
                        total = f.add(total, forms[j].evaluate(xr, xs))
                xr = proj[t + 1][r]
                xs = proj[t + 1][s]
                if any(xr) and any(xs):
                    total = f.add(total, forms[t].evaluate(xr, xs))
                row.append(total)
            gram.append(tuple(row))
        out.append(HermitianForm(f, flag.top, tuple(gram)))
    return tuple(out)


def project_form(form: HermitianForm, p: Subspace) -> HermitianForm:
    """The form w^p(v, w) = w(pr(v), pr(w)) for the projection pr onto the
    perp of a non-degenerate point p in the decomposition D = p ⊕ p^perp."""
    if p.dim != 1 or not form.domain.contains_subspace(p):
        raise ValueError("p must be a one-dimensional subspace of the domain")
    pv = p.basis[0]
    if form.evaluate(pv, pv) == 0:
        raise DegeneratePivotError("projection pivot is degenerate for the form")
    perp = form.perp(p)
    decomp = Decomposition((p, perp), form.domain)
    basis = form.domain.basis
    projected = [project(d, decomp, 1) for d in basis]
    f = form.field
    gram = tuple(
        tuple(form.evaluate(projected[r], projected[s]) for s in range(len(basis)))
        for r in range(len(basis))
    )
    return HermitianForm(f, form.domain, gram)
