"""Order complexes of subspace posets and their full subcomplexes, with
purity, links, closed stars, intersections and facet export.

A complex on n vertices is the order complex of a poset on the vertex
indices 0..n-1, listed in an order that extends the poset's; vertex i
carries the label ``vertices[i]`` (a Subspace for ``order_complex``).  It
holds ``succ``, the strict successors of each vertex in its containment
graph, and its face counts, the chain counts over those lists; everything
else is read from them: ``pred`` turns them round, ``simplices(k)`` walks
the chains of k + 1 members, ``num_facets`` counts the maximal chains over
the covers and ``facets`` walks them from the covers on first read.  Every
count, purity included, is read without listing a maximal chain; only the
facet export of ``build``, equality and the Cohen-Macaulay sweep of a
non-pure complex list them.  Labels are read only where a complex meets
the outside: ``facet_sets`` and equality compare labels, hashing reads the
labels and the face counts, and ``intersect_complexes`` matches vertices by
label.  Complexes are immutable; operations return new complexes.

Every complex a command builds is an order complex: |Γ|, |Y_n|, each link
and each star boundary.  The link of a chain is the full subcomplex on the
vertices comparable with each of its members (Quillen, Adv. Math. 1978),
and the closed star of a vertex the one on it and the vertices comparable
with it, so ``link``, ``star_closure`` and ``intersect_complexes`` are cuts
through ``induced_subcomplex``, walked from the successor lists; no complex
is built from facets.
"""

from __future__ import annotations

from functools import cached_property

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


class SimplicialComplex:
    """The order complex of a poset on the vertex indices
    0..len(vertices)-1: ``vertices[i]`` is the label of vertex i,
    ``succ[i]`` its strict successors as increasing indices, all above i,
    and ``_chain_counts`` the number of chains of each length, its face
    counts.  Built by ``order_complex`` and ``induced_subcomplex``."""

    vertices: tuple
    succ: list[list[int]]
    _chain_counts: tuple[int, ...]

    @cached_property
    def pred(self) -> list[list[int]]:
        """Each vertex's strict predecessors, the successor lists turned
        round, as increasing vertex indices; built on first use."""
        pred = [[] for _ in self.succ]
        for i, si in enumerate(self.succ):
            for j in si:
                pred[j].append(i)
        return pred

    def _covers(self) -> tuple[list[list[int]], list[int]]:
        """(covers, minimal): each vertex's covers, its successors above no
        other successor, and the vertices above no other vertex."""
        succ = self.succ
        covers = []
        for si in succ:
            above = set().union(*(succ[k] for k in si))
            covers.append([j for j in si if j not in above])
        non_minimal = set().union(*succ)
        return covers, [i for i in range(len(succ)) if i not in non_minimal]

    @cached_property
    def facets(self) -> list[tuple[int, ...]]:
        """The maximal chains as increasing index tuples, in sorted order.
        They run along covers from the minimal elements; the depth-first
        walk emits them in sorted order.  Walked on first read and kept as
        walked.  Only the facet export, equality and the Cohen-Macaulay
        sweep of a non-pure complex list them: counts and purity read
        ``num_facets``, and no reduction reads them."""
        covers, minimal = self._covers()
        facets = []

        def extend(chain):
            last = chain[-1]
            if not covers[last]:
                facets.append(chain)
                return
            for j in covers[last]:
                extend(chain + (j,))

        for i in minimal:
            extend((i,))
        return facets

    @cached_property
    def num_facets(self) -> int:
        """The number of maximal chains, a chain count over the covers in
        one reverse pass, as ``_chain_complex`` counts faces: the maximal
        chains from a vertex without covers are itself alone, and from any
        other vertex those from its covers, summed.  Read from ``facets``
        when they are walked already; no chain is listed."""
        if "facets" in vars(self):
            return len(self.facets)
        covers, minimal = self._covers()
        chains = [0] * len(covers)  # maximal chains from each vertex
        for i in reversed(range(len(covers))):
            chains[i] = sum(map(chains.__getitem__, covers[i])) or 1
        return sum(map(chains.__getitem__, minimal))

    # -- basic queries -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def dim(self) -> int:
        return len(self._chain_counts) - 1

    @cached_property
    def vertex_index(self) -> dict:
        """Vertex label -> vertex index; built on first use."""
        return {v: i for i, v in enumerate(self.vertices)}

    def simplices(self, k: int) -> list[tuple[int, ...]]:
        """All k-simplices, the chains of k + 1 members, as increasing index
        tuples in sorted order: each chain is extended by its last member's
        successors, which are increasing, so the order is kept."""
        succ = self.succ
        chains = [(v,) for v in range(self.num_vertices)]
        for _ in range(k):
            chains = [c + (j,) for c in chains for j in succ[c[-1]]]
        return chains

    def face_counts(self) -> list[int]:
        """Number of k-simplices for k = 0..dim, the chain counts."""
        return list(self._chain_counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self._chain_counts))

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
        """From the labels and the face counts, which equal complexes share,
        so that no maximal chain is walked."""
        return hash((frozenset(self.vertices), self._chain_counts))

    def __repr__(self) -> str:
        return f"SimplicialComplex({self.num_vertices} vertices, dim {self.dim})"


def order_complex(subspaces) -> SimplicialComplex:
    """The complex whose simplices are the inclusion-chains of the given
    subspaces; facets are the maximal chains.  The subspaces may come in
    any order: they are numbered here, by dimension and then basis
    (``Subspace.sort_key``), the one place where vertices are ordered.

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
    order.  Its face counts are chain counts over the successors: the
    chains of k + 1 members that start at a member are, summed over its
    successors, the chains of k members that start there.  No simplex is
    listed and no maximal chain walked."""
    counts = []
    chains = [1] * len(verts)  # chains of len(counts) + 1 members, by first member
    while any(chains):
        counts.append(sum(chains))
        longer = chains.__getitem__
        chains = [sum(map(longer, si)) for si in succ]
    k = SimplicialComplex.__new__(SimplicialComplex)
    k.vertices = tuple(verts)
    k.succ = succ
    k._chain_counts = tuple(counts)
    return k


def induced_subcomplex(k: SimplicialComplex, keep) -> SimplicialComplex:
    """The full subcomplex of k on the vertex indices ``keep``, in k's
    vertex order: the order complex of the kept vertices, its successor
    lists k's cut to them, with no mask compared again."""
    kept = sorted(keep)
    new = {v: i for i, v in enumerate(kept)}
    succ = [[new[j] for j in k.succ[v] if j in new] for v in kept]
    return _chain_complex([k.vertices[v] for v in kept], succ)


def link(k: SimplicialComplex, s) -> SimplicialComplex:
    """The link of the chain s, given by vertex indices: the full
    subcomplex on the vertices comparable with every vertex of s.  The link
    of the empty chain is k itself."""
    s = list(s)
    if not s:
        return k
    near = k.pred[s[0]] + k.succ[s[0]]
    for v in s[1:]:
        comparable = set(k.pred[v]).union(k.succ[v])
        near = [w for w in near if w in comparable]
    return induced_subcomplex(k, near)


def star_closure(k: SimplicialComplex, v: int) -> SimplicialComplex:
    """The closed star of vertex index v: the full subcomplex on v and the
    vertices comparable with it."""
    return induced_subcomplex(k, k.pred[v] + [v] + k.succ[v])


def purity_and_dimension(k: SimplicialComplex) -> tuple[bool, int]:
    """(all maximal simplices share one cardinality, top dimension): pure
    exactly when every maximal simplex is a top simplex, that is when the
    facet count equals the top face count.  No maximal chain is listed."""
    if k.is_empty():
        return True, -1
    return k.num_facets == k._chain_counts[-1], k.dim


def intersect_complexes(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """The simplices common to two full subcomplexes of one order complex:
    k1 cut to the vertex labels that both hold, on k1's vertex order."""
    return induced_subcomplex(k1, [i for i, v in enumerate(k1.vertices) if v in k2.vertex_index])


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
