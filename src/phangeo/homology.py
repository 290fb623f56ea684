"""Integral reduced simplicial homology, wedge-of-spheres certification,
Cohen-Macaulay verification, and the fundamental-group status read from
the Morse matching.

All arithmetic is exact over arbitrary-precision ints.  A complex of
dimension <= 1 is matched by a spanning forest, whose critical cells have
zero boundaries, so no matrix is reduced.  A larger one is reduced by the
Morse/Smith engine of :mod:`phangeo.morse`, imported only then: ``build``
never loads it, and ``homology`` and ``cm-check`` on a complex of
dimension <= 1 do not either.  The Cohen-Macaulay sweep of an order
complex reads the links of simplices of codimension >= 2 through ``link``,
each a full subcomplex, and reduces them; the others are settled by the
facet count, and only a non-pure complex lists its facets to name them.
"""

from __future__ import annotations

from collections import namedtuple

from .simplicial import SimplicialComplex, link, purity_and_dimension

__all__ = [
    "HomologyReport",
    "SphericityVerdict",
    "CMReport",
    "reduced_homology",
    "sphericity_verdict",
    "cohen_macaulay_check",
    "pi1_status",
]


def __getattr__(name: str):
    # bench/trace_cli.py wraps these engine functions under their old home
    if name in ("boundary_matrices", "smith_invariant_factors"):
        from . import morse
        return getattr(morse, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class HomologyReport(namedtuple("HomologyReport",
                                "betti torsion euler_characteristic top_dim critical")):
    """Reduced integral homology: one Betti number and torsion-coefficient
    list per degree 0..top_dim, and the number of critical cells per degree
    of the acyclic matching it was read from (vertex 0, paired with the
    empty simplex, not counted)."""

    __slots__ = ()

    def betti_number(self, d: int) -> int:
        """Reduced Betti number, with the degree -1 convention: H~_(-1) has
        rank 1 exactly for the empty complex."""
        if d == -1:
            return 1 if self.top_dim == -1 else 0
        if 0 <= d <= self.top_dim:
            return self.betti[d]
        return 0

    def torsion_at(self, d: int) -> tuple[int, ...]:
        if 0 <= d <= self.top_dim:
            return self.torsion[d]
        return ()

    def is_acyclic(self) -> bool:
        return all(b == 0 for b in self.betti) and all(not t for t in self.torsion)


def _components(k: SimplicialComplex) -> int:
    """Number of connected components, by union-find over the successor
    lists: each vertex is joined to its strict successors, the other ends
    of its edges, and no edge is listed."""
    parent = list(range(k.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, above in enumerate(k.succ):
        root = find(a)
        for b in above:
            parent[find(b)] = root
    return sum(parent[v] == v for v in range(k.num_vertices))


def _report(counts: list[int], cells, factors: list[list[int]]) -> HomologyReport:
    """The report from a complex's face counts, its critical cells by degree
    and the invariant factors of ∂_0 .. ∂_(dim+1), checked against the
    Euler characteristic of the face counts."""
    betti = []
    torsion = []
    for d in range(len(counts)):
        betti.append(cells[d] - len(factors[d]) - len(factors[d + 1]))
        torsion.append(tuple(f for f in factors[d + 1] if f > 1))
    euler = sum((-1) ** d * c for d, c in enumerate(counts))
    if euler != 1 + sum((-1) ** d * b for d, b in enumerate(betti)):
        raise RuntimeError("Euler characteristic inconsistent with Betti numbers")
    return HomologyReport(tuple(betti), tuple(torsion), euler, len(counts) - 1, tuple(cells))


def reduced_homology(k: SimplicialComplex) -> HomologyReport:
    """Reduced integral homology.  A complex of dimension <= 1 reduces no
    matrix: its spanning forest leaves components - 1 critical vertices and
    n_1 - n_0 + components critical edges, all with zero boundaries.  A
    larger one runs ``smith_invariant_factors`` on the boundaries of its
    Morse complex only (``morse.morse_complex``), imported only then; the
    Euler characteristic of the full face counts must match either way.  The
    fork pays because most complexes reduced are small links and joins: of
    the 3109 calls ``cm-check --force`` and ``filtration-verify --force``
    make on the ten bundled specs and F_3^4 (``bench/instances.write_spec``,
    seed 11), 2890 are on complexes of dimension <= 1, and the 3109 calls
    took 0.12 s with the fork against 0.33 s with the Morse complex on
    every one (2.6-2.7x; time inside the calls, three in-process rounds of
    all 22 runs)."""
    if k.is_empty():
        return HomologyReport((), (), 0, -1, ())
    if k.dim >= 2:
        from .morse import _morse_report, morse_complex

        [(counts, critical)], mats, _ = morse_complex(k)
        return _morse_report(counts, critical, mats)
    counts = k.face_counts()
    comps = _components(k)
    cells = [comps - 1] + [counts[-1] - counts[0] + comps] * k.dim
    return _report(counts, cells, [[]] * (k.dim + 2))


class SphericityVerdict(namedtuple(
        "SphericityVerdict",
        "target_dim homology_concentrated torsion_free_top nonempty sphere_count")):
    """Homology-level certificate that a complex is a wedge of d-spheres.

    ``spherical`` holds iff the reduced homology is concentrated in degree d
    and the top group is torsion-free; a contractible complex passes with
    sphere_count 0.  The empty complex never counts as concentrated for
    d >= 0 (its reduced homology lives in degree -1).
    """

    __slots__ = ()

    @property
    def spherical(self) -> bool:
        return self.homology_concentrated and self.torsion_free_top


def sphericity_verdict(report: HomologyReport, d: int) -> SphericityVerdict:
    """d-sphericity verdict read from a complex's reduced homology."""
    if d < 0:
        raise ValueError("sphericity target dimension must be >= 0")
    if report.top_dim > d:
        raise ValueError(f"complex of dimension {report.top_dim} exceeds target {d}")
    if report.top_dim == -1:
        return SphericityVerdict(d, False, True, False, 0)
    concentrated = all(report.betti_number(i) == 0 and not report.torsion_at(i)
                       for i in range(d))
    torsion_free = not report.torsion_at(d)
    count = report.betti_number(d)
    return SphericityVerdict(d, concentrated, torsion_free, True, count)


# simplex: vertex indices of the checked complex
CMFailure = namedtuple("CMFailure", "simplex target_dim reason")
CMReport = namedtuple("CMReport", "passed dim simplices_checked failures")


def cohen_macaulay_check(k: SimplicialComplex) -> CMReport:
    """Check that the link of every simplex of the order complex k (the
    empty one included, read as the complex itself) is spherical at the
    homology level in the forced dimension d - |s|, where d = dim(K).

    Only the empty simplex and the simplices of dimension <= d - 2 have
    their links built, each by ``link``, the full subcomplex on the
    vertices comparable with every vertex of s, and reduced.  The rest are
    settled by the facets: a d-simplex is a facet, whose link is empty as it
    must be, and a (d-1)-simplex has an empty link exactly when it is a
    facet, and otherwise a non-empty set of points, which is 0-spherical.
    So the (d-1)-dimensional facets fail, in facet order, after the reduced
    links, and a facet of lower dimension fails by its empty link: a
    non-pure complex always fails.  Only a non-pure complex has such facets
    to name, so only then are its maximal chains listed; a pure one is
    settled by its facet count.  ``simplices_checked`` counts every simplex
    and the empty one."""
    d = k.dim
    if k.is_empty():
        return CMReport(True, d, 1, ())
    failures = []
    for s in [()] + [t for j in range(d - 1) for t in k.simplices(j)]:
        target = d - len(s)
        # k's pred, which link reads, is built after k is reduced, so the
        # peak does not grow
        sub = link(k, s)
        v = sphericity_verdict(reduced_homology(sub), target)
        if v.spherical:
            continue
        if not v.nonempty:
            reason = f"link is empty but must be {target}-spherical"
        elif not v.homology_concentrated:
            reason = "homology not concentrated in top degree"
        else:
            reason = "torsion in top homology"
        failures.append(CMFailure(s, target, reason))
    if not purity_and_dimension(k)[0]:
        failures.extend(CMFailure(f, 0, "link is empty but must be 0-spherical")
                        for f in k.facets if len(f) == d)
    return CMReport(not failures, d, 1 + sum(k.face_counts()), tuple(failures))


# -- fundamental group -----------------------------------------------------------


def pi1_status(report: HomologyReport, d: int) -> str:
    """The fundamental-group status reported beside a d-sphericity verdict:
    "not_applicable" for d < 2 or the empty complex; "trivial" when the
    matching left no critical vertex or edge, so that K is homotopy
    equivalent to a CW complex with one 0-cell and no 1-cells; "unknown"
    otherwise, never a guess.  The dunce hat, contractible but not
    collapsible, keeps a critical edge and answers "unknown"."""
    if d < 2 or report.top_dim == -1:
        return "not_applicable"
    return "unknown" if any(report.critical[:2]) else "trivial"
