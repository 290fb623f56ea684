"""Abstract simplicial complexes on integer vertices: order complexes of
subspace posets, links, closed stars, induced subcomplexes, intersections,
purity, facet export.

A complex on n vertices stores its inclusion-maximal simplices as sorted
tuples of the vertex indices 0..n-1, in sorted order; vertex i carries the
label ``vertices[i]`` (a Subspace for an order complex, any hashable value
elsewhere).  Every operation works on the indices.  Labels are read only
where a complex meets the outside: ``facet_sets``, equality and hashing
compare labels, so complexes listing the same vertices in different orders
are equal, and ``intersect_complexes`` matches vertices by label.  Downward
closure is implicit in the facet representation.  Complexes are immutable;
operations return new complexes.

The constructor validates its facets and keeps the inclusion-maximal ones.
Where the facets are maximal by construction (the maximal chains of
``order_complex``, the facets through a simplex in ``link`` and
``star_closure``) the complex is built from them directly; only
``intersect_complexes`` and ``induced_subcomplex`` of a complex given by
its facets, whose cut-down facets may nest, maximalize.

An order complex carries ``succ``, the strict successors of each vertex in
its containment graph.  Its full subcomplexes (``induced_subcomplex``) are
walked from those lists cut to the kept vertices and carry them too;
stars, links and complexes built from facets do not.

Face counts and ``simplices`` list no simplex where they need not: an order
complex counts its chains over the successor lists it builds anyway, and
the vertices and the top simplices, which are facets, are read off
``num_vertices`` and the facets; only the dimensions in between are listed.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, groupby

from .linalg import Subspace

__all__ = [
    "SimplicialComplex",
    "order_complex",
    "link",
    "star_closure",
    "induced_subcomplex",
    "purity_and_dimension",
    "intersect_complexes",
    "export_facets",
]


def _maximalize(simps):
    """Inclusion-maximal members of a collection of non-empty frozensets.
    Distinct sets of equal size never contain each other, so a set is
    compared only with the strictly larger kept sets through its least
    element; the largest sets, such as all facets of a pure complex, need
    no comparison."""
    through = {}  # vertex -> kept sets through it, all larger than the group
    out = []
    kept = []
    for _, group in groupby(sorted(set(simps), key=len, reverse=True), key=len):
        for t in kept:
            for v in t:
                through.setdefault(v, []).append(t)
        if through:
            kept = [s for s in group if not any(s <= t for t in through.get(min(s), ()))]
        else:
            kept = list(group)
        out.extend(kept)
    return out


class SimplicialComplex:
    """Finite abstract simplicial complex on the vertex indices
    0..len(vertices)-1.  ``vertices[i]`` is the label of vertex i, and
    ``facets`` holds the maximal simplices as sorted index tuples, in sorted
    order.  The constructor takes facets as iterables of indices, checks
    them and keeps the inclusion-maximal ones; ``_of_maximal`` takes facets
    that are maximal by construction as they are."""

    def __init__(self, vertices, facets):
        self.vertices = tuple(vertices)
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertices")
        fs = [frozenset(f) for f in facets]
        covered = set().union(*fs)
        indices = range(n)
        if not all(v in indices for v in covered):
            raise ValueError("facet uses unknown vertices")
        # the empty simplex is implicit; every vertex is a simplex, and
        # uncovered ones stand alone as facets
        fs = [f for f in fs if f]
        fs.extend(frozenset((v,)) for v in indices if v not in covered)
        self.facets = tuple(sorted(tuple(sorted(f)) for f in _maximalize(fs)))

    _chain_counts = None  # the face counts, where the builder counted them
    succ = None  # each vertex's strict successors, on order complexes and their full subcomplexes

    @classmethod
    def _of_maximal(cls, vertices, facets, face_counts=None) -> "SimplicialComplex":
        """The complex with exactly these facets: distinct, pairwise
        incomparable, non-empty sorted index tuples, in sorted order, that
        cover every vertex (none of it checked), such as maximal chains or
        the facets through a simplex.  ``face_counts``, if given, are its
        face counts, which ``face_counts()`` then returns."""
        k = cls.__new__(cls)
        k.vertices = tuple(vertices)
        k.facets = tuple(facets)
        if face_counts is not None:
            k._chain_counts = tuple(face_counts)
        return k

    # -- basic queries -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def is_empty(self) -> bool:
        return not self.vertices

    @cached_property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    @cached_property
    def facets_through(self) -> dict[int, list[int]]:
        """Vertex index -> the positions in ``facets`` of the facets through
        it, in increasing order; built on first use."""
        out: dict[int, list[int]] = {}
        for i, f in enumerate(self.facets):
            for v in f:
                out.setdefault(v, []).append(i)
        return out

    @cached_property
    def vertex_index(self) -> dict:
        """Vertex label -> vertex index; built on first use."""
        return {v: i for i, v in enumerate(self.vertices)}

    def simplices(self, k: int) -> list[tuple[int, ...]]:
        """All k-simplices as sorted index tuples, in sorted order; the top
        ones are the top facets themselves, the very tuples."""
        if k == self.dim:
            return [f for f in self.facets if len(f) == k + 1]
        return [(v,) for v in range(self.num_vertices)] if k == 0 else sorted(self._faces(k))

    def _faces(self, k: int) -> set[tuple[int, ...]]:
        return {c for f in self.facets if len(f) > k for c in combinations(f, k + 1)}

    def face_counts(self) -> list[int]:
        """Number of k-simplices for k = 0..dim.  An order complex has them
        from its chain count (``order_complex``).  Otherwise every vertex is
        a simplex and every top simplex a facet, so only the dimensions in
        between are listed."""
        if self._chain_counts is not None:
            return list(self._chain_counts)
        top = self.dim
        if top < 0:
            return []
        counts = [self.num_vertices] + [len(self._faces(k)) for k in range(1, top)]
        if top > 0:
            counts.append(sum(len(f) == top + 1 for f in self.facets))
        return counts

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.face_counts()))

    def facet_sets(self) -> frozenset:
        """The facets as sets of vertex labels."""
        vs = self.vertices
        return frozenset(frozenset(vs[i] for i in f) for f in self.facets)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and set(self.vertices) == set(other.vertices)
            and self.facet_sets() == other.facet_sets()
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.vertices), self.facet_sets()))

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex({self.num_vertices} vertices, "
            f"{len(self.facets)} facets, dim {self.dim})"
        )


def _restrict(k: SimplicialComplex, facets, maximal: bool = False) -> SimplicialComplex:
    """The complex with the given index sets of k as facets, on the vertices
    of k that they cover, re-indexed in k's vertex order.  ``maximal`` says
    that the sets are distinct, pairwise incomparable sorted tuples in
    sorted order, the empty one aside: the complex is then built with no
    maximalizing."""
    used = sorted(set().union(*facets))
    new = {v: i for i, v in enumerate(used)}
    verts = [k.vertices[v] for v in used]
    if maximal:  # re-indexing is monotone, so the order is kept
        return SimplicialComplex._of_maximal(verts, [tuple(new[v] for v in f)
                                                     for f in facets if f])
    return SimplicialComplex(verts, [[new[v] for v in f] for f in facets])


def order_complex(subspaces) -> SimplicialComplex:
    """The complex whose simplices are the inclusion-chains of the given
    subspaces; facets are the maximal chains.  It carries ``succ``, the
    strict successors of each vertex, and so do its full subcomplexes
    (``induced_subcomplex``).

    Containment is read from the point masks (``Subspace.point_mask``).  The
    strict successors of a member are the other members whose masks hold its
    mask, looked for among the members through its lowest point; the zero
    subspace, with mask 0, lies below every other member.  This is the one
    place where containment among members is searched."""
    verts = sorted(set(subspaces), key=Subspace.sort_key)
    n = len(verts)
    masks = [v.point_mask for v in verts]
    through: dict[int, list[int]] = {}  # point bit -> members through it
    for j, m in enumerate(masks):
        while m:
            low = m & -m
            through.setdefault(low.bit_length(), []).append(j)
            m ^= low
    succ = []  # strict containments, in vertex order
    for i, m in enumerate(masks):
        candidates = through[(m & -m).bit_length()] if m else range(n)
        succ.append([j for j in candidates if j != i and m & ~masks[j] == 0])
    return _chain_complex(verts, succ)


def _chain_complex(verts, succ) -> SimplicialComplex:
    """The order complex of a poset given by the strict successors of each
    element, as increasing index lists in a vertex order that extends the
    order.  The covers of an element are the successors above no other
    successor, and the maximal chains run along covers from the minimal
    elements.  They are distinct and maximal, each increases in vertex
    order, and the depth-first walk emits them in sorted order, so the
    complex is built from them as they are.

    The face counts are chain counts over the successors: the chains of
    k + 1 members that start at a member are, summed over its successors,
    the chains of k members that start there.  No simplex is listed."""
    n = len(verts)
    covers = []
    for si in succ:
        above = set().union(*(succ[k] for k in si))
        covers.append([j for j in si if j not in above])
    non_minimal = set().union(*succ)
    facets = []

    def extend(chain):
        last = chain[-1]
        if not covers[last]:
            facets.append(chain)
            return
        for j in covers[last]:
            extend(chain + (j,))

    for i in range(n):
        if i not in non_minimal:
            extend((i,))
    counts = []
    chains = [1] * n  # chains of len(counts) + 1 members, by first member
    while any(chains):
        counts.append(sum(chains))
        longer = chains.__getitem__
        chains = [sum(map(longer, si)) for si in succ]
    k = SimplicialComplex._of_maximal(verts, facets, counts)
    k.succ = succ
    return k


def link(k: SimplicialComplex, s) -> SimplicialComplex:
    """{t : t ∩ s = ∅ and t ∪ s ∈ K} for a simplex s given by vertex indices.
    Only the facets through the vertex of s with the fewest are scanned.
    The facets through s, less s, are the link's facets: distinct, maximal,
    still in sorted order (removing a set that two sorted tuples share keeps
    their order), and empty only for the link of a facet."""
    sv = frozenset(s)
    if not sv:
        return _restrict(k, k.facets, maximal=True)
    facets, lists = k.facets, k.facets_through
    shortest = min((lists.get(v, ()) for v in sv), key=len)
    through = [facets[i] for i in shortest if sv.issubset(facets[i])]
    if not through:
        raise ValueError("link of a non-simplex")
    return _restrict(k, [tuple(v for v in f if v not in sv) for f in through], maximal=True)


def star_closure(k: SimplicialComplex, v: int) -> SimplicialComplex:
    """All simplices contained in a simplex through vertex index v (the
    closed star)."""
    facets = [k.facets[i] for i in k.facets_through.get(v, ())]
    if not facets:
        raise ValueError("star of a non-vertex")
    return _restrict(k, facets, maximal=True)


def induced_subcomplex(k: SimplicialComplex, keep) -> SimplicialComplex:
    """The simplices of k whose vertex labels all lie in the set ``keep``, on
    k's vertex order.  A complex that carries ``succ`` (an order complex or
    a full subcomplex of one) gives the order complex of the kept vertices:
    its successor lists cut to them, walked as by ``order_complex``, with no
    mask compared again.  Any other complex (stars, links, complexes given
    by their facets) has each facet cut down to the kept vertices, then
    maximalized."""
    if k.succ is None:
        vs = k.vertices
        return _restrict(k, [frozenset(v for v in f if vs[v] in keep) for f in k.facets])
    at = k.vertex_index
    kept = sorted(at[v] for v in keep if v in at)
    new = {v: i for i, v in enumerate(kept)}
    succ = [[new[j] for j in k.succ[v] if j in new] for v in kept]
    return _chain_complex([k.vertices[v] for v in kept], succ)


def purity_and_dimension(k: SimplicialComplex) -> tuple[bool, int]:
    """(all maximal simplices share one cardinality, top dimension)."""
    if k.is_empty():
        return True, -1
    sizes = {len(f) for f in k.facets}
    return len(sizes) == 1, max(sizes) - 1


def intersect_complexes(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """The subcomplex of simplices common to both, vertices matched by label,
    on k1's vertex order.  Each facet of k1 meets only the facets of k2
    through one of its vertices.  No library code calls it: the filtration
    meets a star with a full subcomplex by ``induced_subcomplex``."""
    to2 = [k2.vertex_index.get(v) for v in k1.vertices]
    facets2, lists = k2.facets, k2.facets_through
    inters = []
    for f in k1.facets:
        shared = {to2[v]: v for v in f if to2[v] is not None}  # k2 index -> k1 index
        for g in {i for w in shared for i in lists[w]}:
            inters.append(frozenset(shared[w] for w in facets2[g] if w in shared))
    return _restrict(k1, inters)


def export_facets(k: SimplicialComplex) -> str:
    """One facet per line as space-separated vertex indices, after a header
    line carrying the vertex count.  Each index is formatted once, and the
    lines are joined in blocks of 4096 facets, so that no list of all the
    lines is made."""
    label = [str(i) for i in range(k.num_vertices)].__getitem__
    facets = k.facets
    blocks = [f"{k.num_vertices}\n"]
    for i in range(0, len(facets), 4096):
        blocks.append("\n".join([" ".join(map(label, f)) for f in facets[i:i + 4096]]) + "\n")
    return "".join(blocks)
