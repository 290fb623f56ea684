import contextlib
import io
import random
from collections import Counter
from functools import cached_property, reduce
from itertools import combinations, groupby
from math import gcd, prod

import pytest

from phangeo.cli import main
from phangeo.field import Field
from phangeo.forms import HermitianForm
from phangeo.homology import reduced_homology, sphericity_verdict
from phangeo.linalg import Flag, Subspace, enumerate_subspaces, rref
from phangeo.morse import IntegerMatrix, boundary_matrices, smith_invariant_factors
from phangeo.simplicial import SimplicialComplex, _chain_complex


def naive_smith(rows: list[list[int]]) -> list[int]:
    """Textbook dense Smith normal form, written independently of the
    package engines: repeatedly move a minimal-magnitude entry to the pivot,
    shrink remainders until the pivot divides its row and column, clear
    them, and finally redistribute the diagonal into invariant factors."""
    return _divisor_chain(_textbook_diagonal(rows, lambda x: x))


def modular_smith(rows: list[list[int]]) -> list[int]:
    """Smith normal form modulo a determinantal multiple, with entries
    bounded by it (Kannan & Bachem, SIAM J. Comput. 1979; Cohen, GTM 138,
    section 2.4).

    Fraction-free (Bareiss) elimination gives the rank r and the determinant
    M of a nonsingular r x r minor.  The product of the first r invariant
    factors is the gcd of all r x r minors, so each of them divides M.  The
    textbook elimination then runs over Z/M, every entry reduced to
    (-M/2, M/2]; a diagonal entry e stands for gcd(e, M) there, since the
    two are associates in Z/M, and the invariant factors over Z/M are the
    integer ones reduced: d_1, ..., d_r, then M for each zero one.  The
    first r of the divisor chain are the answer."""
    rank, det = _bareiss_rank_and_minor(rows)
    if rank == 0:
        return []
    half = det // 2

    def reduce(x):
        x %= det
        return x - det if x > half else x

    diag = _textbook_diagonal([[reduce(x) for x in row] for row in rows], reduce)
    return (_divisor_chain([gcd(e, det) for e in diag]) + [det] * rank)[:rank]


def _bareiss_rank_and_minor(rows) -> tuple[int, int]:
    """Rank r and |det| of a nonsingular r x r minor (the pivot rows and
    columns), by fraction-free row elimination; every division is exact."""
    a = [list(r) for r in rows]
    ncols = len(a[0]) if a else 0
    prev, r = 1, 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p, top = a[r][c], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        r += 1
    return r, abs(prev)


def _textbook_diagonal(rows, reduce) -> list[int]:
    """The nonzero diagonal of the textbook elimination, reducing every entry
    an operation produces with ``reduce``."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    t = 0
    diag = []
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            changed = False
            for i in range(t + 1, m):
                if a[i][t] % a[t][t] != 0:
                    q = a[i][t] // a[t][t]
                    a[i] = [reduce(x - q * y) for x, y in zip(a[i], a[t])]
                    a[t], a[i] = a[i], a[t]
                    changed = True
                    break
            if changed:
                continue
            for j in range(t + 1, n):
                if a[t][j] % a[t][t] != 0:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] = reduce(row[j] - q * row[t])
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    changed = True
                    break
            if not changed:
                break
        for i in range(t + 1, m):
            q = a[i][t] // a[t][t]
            if q:
                a[i] = [reduce(x - q * y) for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            q = a[t][j] // a[t][t]
            if q:
                for row in a:
                    row[j] = reduce(row[j] - q * row[t])
        diag.append(abs(a[t][t]))
        t += 1
    return diag


def _divisor_chain(diag: list[int]) -> list[int]:
    """Redistribute positive diagonal entries into invariant factors, each
    dividing the next, by pairwise gcd/lcm exchanges."""
    ds = sorted(diag)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds.sort()
    return ds


def snf_homology(k: SimplicialComplex):
    """(betti, torsion) of the reduced homology by ``smith_invariant_factors``
    on every degree of ``boundary_matrices(k)``, the augmentation ∂_0 and
    ∂_1 included: no degree is read from a spanning forest."""
    if k.is_empty():
        return (), ()
    mats = boundary_matrices(k)
    factors = [smith_invariant_factors(m) for m in mats] + [[]]
    betti = tuple(m.ncols - len(factors[d]) - len(factors[d + 1])
                  for d, m in enumerate(mats))
    torsion = tuple(tuple(f for f in factors[d + 1] if f > 1) for d in range(len(mats)))
    return betti, torsion


def link_sweep_failures(k) -> list[tuple]:
    """(simplex, target dimension, reason) of every failing link, each link
    cut from the facets by ``facet_link`` and reduced through its face
    poset, facets and codimension-1 faces included: the generic
    Cohen-Macaulay sweep."""
    k = FacetComplex(k.vertices, k.facets)
    d = k.dim
    out = []
    for s in [()] + [t for j in range(d + 1) for t in k.simplices(j)]:
        sub = k if s == () else facet_link(k, s)
        target = d - len(s)
        if target == -1:
            if not sub.is_empty():
                out.append((s, target, "link of a facet is non-empty"))
            continue
        v = sphericity_verdict(reduced_homology(face_poset(sub)), target)
        if v.spherical:
            continue
        if not v.nonempty:
            out.append((s, target, f"link is empty but must be {target}-spherical"))
        elif not v.homology_concentrated:
            out.append((s, target, "homology not concentrated in top degree"))
        else:
            out.append((s, target, "torsion in top homology"))
    return out


# -- homotopy oracles: the edge-path group and the Morse matching ------------


def pi1_trivial(k: SimplicialComplex) -> str:
    """The oracle for ``pi1_status``: "trivial" when the triangles' relators
    kill the edge-path group of K, else "unknown" (never a guess).

    The edges of a depth-first spanning tree are 1; every other edge is a
    generator.  A signed union-find writes each generator as root^(+-1) or
    as killed (= 1).  Full passes over the triangles map each relator to
    its root letters and reduce it freely and cyclically: one letter left
    kills its root, two letters with distinct roots merge them
    (g^a h^b = 1 gives g = h^(-ab)).  Passes repeat until one changes
    nothing.  Every change kills or merges a root, so the loop ends, and
    every change follows from the relators, so "trivial" is sound."""
    n = k.num_vertices
    if n == 0:
        return "unknown"
    edges = k.simplices(1)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (a, b) in enumerate(edges):
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    parent = list(range(len(edges)))
    sign = [1] * len(edges)  # g = parent[g] ^ sign[g]
    killed = [False] * len(edges)
    seen = [False] * n
    stack = [(0, None)]
    while stack:
        v, eid = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        if eid is not None:
            killed[eid] = True  # a tree edge
        stack.extend((w, e) for w, e in adj[v] if not seen[w])
    if not all(seen):
        return "unknown"  # disconnected

    def find(g: int) -> tuple[int, int]:
        """(root, s) with g = root^s; iterative, compressing the path."""
        path = []
        while parent[g] != g:
            path.append(g)
            g = parent[g]
        s = 1
        for x in reversed(path):
            s *= sign[x]
            parent[x], sign[x] = g, s
        return g, s

    edge_id = {e: i for i, e in enumerate(edges)}
    # the loop a -> b -> c -> a around each triangle, as edge ids
    pending = [(edge_id[a, b], edge_id[b, c], edge_id[a, c]) for a, b, c in k.simplices(2)]
    changed = True
    while changed:
        changed = False
        unresolved = []
        for tri in pending:
            word: list[tuple[int, int]] = []
            for g, e in zip(tri, (1, 1, -1)):
                r, s = find(g)
                if killed[r]:
                    continue
                if word and word[-1] == (r, -s * e):
                    word.pop()
                else:
                    word.append((r, s * e))
            if len(word) == 3 and word[0] == (word[2][0], -word[2][1]):
                word = word[1:2]  # a conjugate of the middle letter
            if len(word) == 1:
                killed[word[0][0]] = True
            elif len(word) == 2 and word[0][0] != word[1][0]:
                (g, a), (h, b) = word
                parent[g], sign[g] = h, -a * b
            else:
                # an empty relator stays empty under later kills and merges
                if word:
                    unresolved.append(tri)
                continue
            changed = True
        pending = unresolved
    return "trivial" if all(killed[g] for g in range(len(edges)) if parent[g] == g) else "unknown"


def matching_is_acyclic(k: SimplicialComplex, mate: list[int], level=None) -> bool:
    """Whether the matching ``morse_complex`` returned for k, filtered by
    the vertex levels ``level`` (default: one level), is a discrete
    gradient: it pairs the empty simplex with the first vertex of level 0,
    or leaves it critical when there is none; every cell is paired with a
    face or coface one degree apart and of the same level, the largest
    level of its vertices, or is critical (-2); and the Hasse diagram of the
    augmented complex with its matched edges reversed has no directed cycle
    (Kahn's topological sort)."""
    level = [0] * k.num_vertices if level is None else level
    cells = [()] + [s for d in range(k.dim + 1) for s in k.simplices(d)]
    ids = {s: i for i, s in enumerate(cells)}
    first = next((v + 1 for v, lv in enumerate(level) if lv == 0), -2)
    if len(mate) != len(cells) or mate[0] != first:
        return False

    def level_of(s):
        return max((level[v] for v in s), default=0)

    for c, m in enumerate(mate):
        if m == -2:
            continue
        if m < 0 or mate[m] != c:
            return False
        a, b = sorted((cells[c], cells[m]), key=len)
        if len(b) != len(a) + 1 or not set(a) <= set(b) or level_of(a) != level_of(b):
            return False
    out = [[] for _ in cells]
    for t, s in enumerate(cells):
        for i in range(len(s)):
            f = ids[s[:i] + s[i + 1:]]
            if mate[f] == t:
                out[f].append(t)  # a matched edge points up
            else:
                out[t].append(f)
    indegree = [0] * len(cells)
    for targets in out:
        for x in targets:
            indegree[x] += 1
    ready = [c for c, n in enumerate(indegree) if n == 0]
    done = 0
    while ready:
        c = ready.pop()
        done += 1
        for x in out[c]:
            indegree[x] -= 1
            if indegree[x] == 0:
                ready.append(x)
    return done == len(cells)


# -- complexes given by facets: the oracles of the order complexes' cuts -------


def _maximalize(simps):
    """Inclusion-maximal members of a collection of non-empty frozensets.
    Distinct sets of equal size never contain each other, so a set is
    compared only with the strictly larger kept sets through its least
    element."""
    through = {}  # vertex -> kept sets through it, all larger than the group
    out = []
    kept = []
    for _, group in groupby(sorted(set(simps), key=len, reverse=True), key=len):
        for t in kept:
            for v in t:
                through.setdefault(v, []).append(t)
        kept = [s for s in group if not any(s <= t for t in through.get(min(s), ()))]
        out.extend(kept)
    return out


class FacetComplex:
    """A finite abstract simplicial complex given by arbitrary facets, on
    the vertex indices 0..len(vertices)-1, ``vertices[i]`` the label of
    vertex i: the generic complex that phangeo's order complexes are checked
    against.  The constructor takes facets as iterables of indices, checks
    them and keeps the inclusion-maximal ones, every uncovered vertex a
    facet of its own; ``facets`` holds them as sorted index tuples, in
    sorted order, and every simplex is listed from them.  It has no
    successor lists, so phangeo's engine, which numbers its cells from them,
    reduces it only through ``face_poset``; ``boundary_matrices`` and the
    oracles read its simplices directly."""

    def __init__(self, vertices, facets):
        self.vertices = tuple(vertices)
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertices")
        fs = [frozenset(f) for f in facets]
        covered = set().union(*fs)
        if not covered <= set(range(n)):
            raise ValueError("facet uses unknown vertices")
        fs = [f for f in fs if f] + [frozenset((v,)) for v in range(n) if v not in covered]
        self.facets = tuple(sorted(tuple(sorted(f)) for f in _maximalize(fs)))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    @cached_property
    def facets_through(self) -> dict[int, list[int]]:
        """Vertex index -> the positions in ``facets`` of the facets through
        it, in increasing order."""
        out: dict[int, list[int]] = {}
        for i, f in enumerate(self.facets):
            for v in f:
                out.setdefault(v, []).append(i)
        return out

    @cached_property
    def vertex_index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def simplices(self, k: int) -> list[tuple[int, ...]]:
        """All k-simplices as sorted index tuples, in sorted order."""
        return sorted({c for f in self.facets if len(f) > k for c in combinations(f, k + 1)})

    def face_counts(self) -> list[int]:
        return [len(self.simplices(k)) for k in range(self.dim + 1)]

    def facet_sets(self) -> frozenset:
        """The facets as sets of vertex labels."""
        vs = self.vertices
        return frozenset(frozenset(vs[i] for i in f) for f in self.facets)


def _restrict(k, facets) -> FacetComplex:
    """The complex with the given index sets of k as facets, on the vertices
    of k that they cover, re-indexed in k's vertex order."""
    used = sorted(set().union(*facets))
    new = {v: i for i, v in enumerate(used)}
    return FacetComplex([k.vertices[v] for v in used], [[new[v] for v in f] for f in facets])


def facet_link(k: FacetComplex, s) -> FacetComplex:
    """{t : t ∩ s = ∅ and t ∪ s ∈ K} for a simplex s given by vertex
    indices, from the facets through s less s.  The oracle of
    ``simplicial.link``."""
    sv = frozenset(s)
    if not sv:
        return _restrict(k, k.facets)
    facets, lists = k.facets, k.facets_through
    through = [facets[i] for i in min((lists.get(v, ()) for v in sv), key=len)
               if sv.issubset(facets[i])]
    if not through:
        raise ValueError("link of a non-simplex")
    return _restrict(k, [[v for v in f if v not in sv] for f in through])


def facet_star(k: FacetComplex, v: int) -> FacetComplex:
    """The closed star of vertex index v, from the facets through it.  The
    oracle of ``simplicial.star_closure``."""
    facets = [k.facets[i] for i in k.facets_through.get(v, ())]
    if not facets:
        raise ValueError("star of a non-vertex")
    return _restrict(k, facets)


def facet_intersection(k1: FacetComplex, k2: FacetComplex) -> FacetComplex:
    """The simplices common to both, vertices matched by label, on k1's
    vertex order: each facet of k1 met with the facets of k2 through one of
    its vertices.  The oracle of ``simplicial.intersect_complexes``."""
    to2 = [k2.vertex_index.get(v) for v in k1.vertices]
    inters = []
    for f in k1.facets:
        shared = {to2[v]: v for v in f if to2[v] is not None}  # k2 index -> k1 index
        for g in {i for w in shared for i in k2.facets_through[w]}:
            inters.append(frozenset(shared[w] for w in k2.facets[g] if w in shared))
    return _restrict(k1, inters)


def facet_cut(k, keep) -> FacetComplex:
    """The simplices of any complex k whose vertex labels all lie in the set
    ``keep``, on k's vertex order: each facet cut down to the kept
    vertices, then maximalized.  The oracle of ``induced_subcomplex``, which
    walks an order complex's successor lists instead."""
    vs = k.vertices
    cut = [[v for v in f if vs[v] in keep] for f in k.facets]
    used = sorted({v for f in cut for v in f})
    new = {v: i for i, v in enumerate(used)}
    return FacetComplex([vs[v] for v in used], [[new[v] for v in f] for f in cut])


def poset_complex(order, less) -> SimplicialComplex:
    """The order complex of the poset on the labels ``order``, listed in a
    linear extension, whose order is generated by the pairs (x, y), x < y,
    in ``less``: the successor lists of its transitive closure, walked by
    ``_chain_complex`` as ``order_complex`` walks a subspace poset's."""
    at = {v: i for i, v in enumerate(order)}
    succ = [set() for _ in order]
    for x, y in less:
        assert at[x] < at[y], "the labels must be listed in a linear extension"
        succ[at[x]].add(at[y])
    for i in reversed(range(len(order))):  # every successor's set is closed
        succ[i].update(*(succ[j] for j in list(succ[i])))
    return _chain_complex(list(order), [sorted(si) for si in succ])


def face_poset(k) -> SimplicialComplex:
    """The order complex of the face poset of a complex given by facets, its
    barycentric subdivision, homeomorphic to k: the tests' one way to reduce
    a facet-given complex.  Each non-empty face is a vertex, labelled by its
    index tuple and listed by size, an order that extends inclusion.  Under
    vertex levels, a face is at the largest level of its vertices,
    ``max(level[v] for v in face)``, so the full subcomplex on the faces of
    level <= i is the face poset of k's on the vertices of level <= i."""
    faces = [s for d in range(k.dim + 1) for s in k.simplices(d)]
    return poset_complex(faces, [(t[:i] + t[i + 1:], t)
                                 for t in faces if len(t) > 1 for i in range(len(t))])


def tuple_cells(k: SimplicialComplex, level) -> tuple[list, list[int], list[int]]:
    """(faces, levels, sizes) of k's cells as ``morse._cells`` numbers them,
    built from the simplex tuples: the empty simplex is 0, vertex v is
    v + 1, and the j-simplices follow in the order of ``k.simplices(j)``,
    each face looked up in an index simplex -> id of the degree below, face
    i the one without vertex i, and each cell at the largest level of its
    vertices.  The oracle of the engine's numbering from the successor
    lists."""
    faces = [()] + [(0,)] * k.num_vertices
    levels = [0] + list(level)
    ids = {(v,): v + 1 for v in range(k.num_vertices)}  # (d-1)-simplex -> cell id
    sizes = [k.num_vertices]
    for d in range(1, k.dim + 1):
        simps = k.simplices(d)
        sizes.append(len(simps))
        faces.extend(tuple(map(ids.__getitem__, combinations(s, d)))[::-1] for s in simps)
        levels.extend(max(level[v] for v in s) for s in simps)
        ids = dict(zip(simps, range(len(faces) - len(simps), len(faces))))
    return faces, levels, sizes


def oracle_below_above(members, u: Subspace) -> tuple[set, set]:
    """The members strictly inside u and the members strictly containing u,
    by a ``contains_subspace`` sweep over all of them."""
    return ({w for w in members if w != u and u.contains_subspace(w)},
            {w for w in members if w != u and w.contains_subspace(u)})


def chain_facets(subspaces) -> frozenset:
    """The maximal inclusion-chains of the given subspaces, as sets, found
    with ``contains_subspace`` alone: every chain from a minimal member to a
    maximal one in which no member lies strictly between two consecutive
    ones."""
    verts = list(set(subspaces))
    up = {a: {b for b in verts if b != a and b.contains_subspace(a)} for a in verts}
    down = {b: {a for a in verts if b in up[a]} for b in verts}
    out = set()

    def extend(chain):
        last = chain[-1]
        tops = [b for b in up[last] if not up[last] & down[b]]
        if not tops:
            out.add(frozenset(chain))
        for b in tops:
            extend(chain + [b])

    for a in verts:
        if not down[a]:
            extend([a])
    return frozenset(out)


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture(scope="session")
def cli_report(tmp_path_factory):
    """Run a command with ``--out`` once per test session: (exit code, report
    bytes, standard error) for each argv, so that the report pins and the
    value checks of the same command read one computation."""
    runs = {}

    def run(argv: list[str]) -> tuple[int, bytes, str]:
        key = tuple(argv)
        if key not in runs:
            out = tmp_path_factory.mktemp("report") / "report.json"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--out", str(out)])
            runs[key] = code, out.read_bytes(), err.getvalue()
        return runs[key]

    return run


@pytest.fixture
def homology_calls(monkeypatch):
    """Count the reductions of each complex, by reduced_homology or by
    filtered_homology, wherever phangeo calls them: patched where they are
    defined, which the CLI imports from at call time, and in the
    filtration, which imports them by name."""
    import phangeo.filtration
    import phangeo.homology
    import phangeo.morse

    calls = Counter()

    def counting(original):
        def counted(k, *args):
            calls[k] += 1
            return original(k, *args)
        return counted

    for home, name in ((phangeo.homology, "reduced_homology"),
                       (phangeo.morse, "filtered_homology")):
        counted = counting(getattr(home, name))
        for module in (home, phangeo.filtration):
            monkeypatch.setattr(module, name, counted)
    return calls


def multiply(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """Sparse product a * b."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    rows: dict[int, dict[int, int]] = {}
    by_row: dict[int, list[tuple[int, int]]] = {}
    for r, c, v in b.entries:
        by_row.setdefault(r, []).append((c, v))
    for r, c, v in a.entries:
        for c2, v2 in by_row.get(c, ()):
            row = rows.setdefault(r, {})
            row[c2] = row.get(c2, 0) + v * v2
    ents = tuple((r, c, v) for r, row in rows.items() for c, v in row.items() if v != 0)
    return IntegerMatrix(a.nrows, b.ncols, ents)


def join(k1, k2) -> FacetComplex:
    """Join, kept disjoint by tagging each vertex label with its side (0 or 1);
    k2's vertex indices follow k1's."""
    shift = k1.num_vertices
    f2 = [tuple(shift + v for v in f) for f in k2.facets]
    if not k1.facets:
        facets = f2
    elif not f2:
        facets = list(k1.facets)
    else:
        facets = [a + b for a in k1.facets for b in f2]
    return FacetComplex([(0, v) for v in k1.vertices] + [(1, v) for v in k2.vertices], facets)


# -- lattice oracles: vectors listed one by one, no point masks ---------------


def enumerate_vectors(field: Field, dim: int):
    """All q**dim vectors; coordinate 0 is the least significant digit."""
    q = field.q
    for idx in range(q**dim):
        yield tuple((idx // q**i) % q for i in range(dim))


def contains(a: Subspace, vec) -> bool:
    """Whether vec lies in a: whether it has coordinates over a's basis."""
    return a.coordinates(vec) is not None


def oracle_contains_subspace(a: Subspace, b: Subspace) -> bool:
    """b ⊆ a, by ``contains`` on b's basis rows."""
    return all(contains(a, r) for r in b.basis)


def oracle_intersect(a: Subspace, b: Subspace) -> Subspace:
    """A ∩ B as the span of A's vectors that lie in B, A being the one of
    the two with fewer vectors."""
    if b.dim < a.dim:
        a, b = b, a
    return Subspace.span(a.field, a.ambient, [v for v in a.vectors() if contains(b, v)])


def oracle_form_value(form: HermitianForm, x, y) -> int:
    """w(x, y) = sum_ij x_i sigma(y_j) G[i][j] on the coordinates over the
    domain, through the Field methods."""
    f = form.field
    cx, cy = form.domain.coordinates(x), form.domain.coordinates(y)
    total = 0
    for i, a in enumerate(cx):
        for j, b in enumerate(cy):
            total = f.add(total, f.mul(f.mul(a, f.sigma(b)), form.gram[i][j]))
    return total


def oracle_perp(form: HermitianForm, s: Subspace) -> Subspace:
    """The span of the domain's vectors orthogonal to S's basis."""
    dom = form.domain
    return Subspace.span(form.field, dom.ambient, [
        x for x in dom.vectors() if all(oracle_form_value(form, x, y) == 0 for y in s.basis)])


def oracle_radical(form: HermitianForm) -> Subspace:
    return oracle_perp(form, form.domain)


def oracle_is_nondegenerate(form: HermitianForm, s: Subspace | None = None) -> bool:
    """Whether the form on s (default: the domain) is non-degenerate, as
    full rank of the Gram matrix that ``restrict`` evaluates: the Gram-rank
    oracle for ``nondegenerate_on_mask``.  A target outside the domain
    raises ValueError, as ``restrict`` does."""
    gram = (form if s is None else form.restrict(s)).gram
    return len(rref(form.field, gram)) == len(gram)


def oracle_is_opposite(a: Subspace, b: Subspace) -> bool:
    """A ∩ B = 0 and A + B is the whole space, by the rank of the stacked
    bases."""
    return a.dim + b.dim == a.ambient == len(rref(a.field, a.basis + b.basis))

def oracle_admits_nonisotropic_vector(form: HermitianForm) -> bool:
    return any(oracle_form_value(form, x, x) != 0 for x in form.domain.vectors())


def oracle_extended_grams(spec, p: Subspace, complements) -> list:
    """The Gram matrices of the spec's forms extended around the pivot p
    over V = C_1 ⊕ ... ⊕ C_(t+1) ⊕ p, the C_j being the given complements,
    one entry at a time: entry (r, s) of form i is the sum over j >= i of
    w_j at the C_j-components of basis vectors r and s, plus w_t at their
    p-components.  The components come from the one coefficient vector
    over the stacked bases, found by trying them all."""
    f, t, n = spec.field, spec.t, spec.ambient.ambient
    parts = list(complements) + [p]
    stacked = [row for part in parts for row in part.basis]

    def combination(coeffs, rows):
        return tuple(reduce(f.add, (f.mul(a, row[k]) for a, row in zip(coeffs, rows)), 0)
                     for k in range(n))

    coeffs = {combination(c, stacked): c for c in enumerate_vectors(f, len(stacked))}
    comps = []
    for d in spec.ambient.basis:
        c, offset, split = coeffs[d], 0, []
        for part in parts:
            split.append(combination(c[offset:offset + part.dim], part.basis))
            offset += part.dim
        comps.append(split)
    return [tuple(tuple(
        reduce(f.add, [oracle_form_value(spec.forms[j], x[j], y[j]) for j in range(i, t + 1)]
               + [oracle_form_value(spec.forms[t], x[t + 1], y[t + 1])])
        for y in comps) for x in comps) for i in range(t + 1)]


def oracle_normal(field: Field, h: Subspace) -> tuple[int, ...]:
    """The normalized normal of a hyperplane h of F_q^d: the first vector c,
    in the canonical order, with first nonzero coordinate 1 and
    sum_j c_j y_j = 0 for every basis row y of h."""
    for c in enumerate_vectors(field, h.ambient):
        if any(c) and next(x for x in c if x) == 1 and all(
                not reduce(field.add, map(field.mul, c, y), 0) for y in h.basis):
            return c
    raise ValueError("not a hyperplane")


# -- membership oracles: the lattice oracles, no point masks -------------------


def oracle_is_transversal(a: Subspace, flag: Flag) -> bool:
    """For every member B of the flag, a∩B = 0 or a+B = top, with dim(a+B)
    the rank of the stacked bases."""
    for b in flag.members:
        s = len(rref(a.field, a.basis + b.basis))
        if a.dim + b.dim - s != 0 and s != flag.top.dim:
            return False
    return True


def oracle_k_of(spec, u: Subspace) -> int:
    """Least i with U ∩ V_(i+1) != 0, with dim(U ∩ V) = dim U + dim V -
    dim(U + V) and dim(U + V) the rank of the stacked bases."""
    if u.is_zero():
        raise ValueError("k_U is undefined for the zero subspace")
    for i in range(spec.t + 1):
        v = spec.flag[i + 1]
        if len(rref(u.field, u.basis + v.basis)) < u.dim + v.dim:
            return i
    raise ValueError("subspace meets no flag member")


def oracle_is_member(spec, u: Subspace) -> bool:
    """The membership predicate through vectors: containment by
    ``contains``, transversality by rank, the governing intersection as the
    vectors of U in V_(k+1) and non-degeneracy as a zero radical of the
    restricted form."""
    if u.dim == 0 or u.dim >= spec.ambient.dim:
        return False
    if not oracle_contains_subspace(spec.ambient, u):
        return False
    if not oracle_is_transversal(u, spec.flag):
        return False
    k = oracle_k_of(spec, u)
    meet = oracle_intersect(u, spec.flag[k + 1])
    return oracle_radical(spec.forms[k].restrict(meet)).is_zero()


# -- table-free oracles: the Field methods, one entry at a time ---------------


def oracle_rref(field: Field, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form through ``Field.inv``/``mul``/``sub``."""
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


def oracle_nondegenerate_on(form: HermitianForm, vectors) -> bool:
    """Full rank of the Gram matrix of the vectors, both triangles evaluated
    by ``oracle_form_value``."""
    rows = [[oracle_form_value(form, a, b) for b in vectors] for a in vectors]
    return len(oracle_rref(form.field, rows)) == len(vectors)


def oracle_subspaces_of(space: Subspace, k: int):
    """The k-subspaces of a subspace as the images of the k-subspaces of
    F_q^dim under the map that sends the unit vectors to the space's basis."""
    f = space.field
    for inner in enumerate_subspaces(f, space.dim, k):
        rows = []
        for r in inner.basis:
            v = [0] * space.ambient
            for c, b in zip(r, space.basis):
                v = [f.add(x, f.mul(c, y)) for x, y in zip(v, b)]
            rows.append(tuple(v))
        yield Subspace.span(f, space.ambient, rows)


# -- helpers the bound's counting argument rests on ---------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = prod(q**n - q**i for i in range(k))
    den = prod(q**k - q**i for i in range(k))
    return num // den


def unit_form(s: Subspace) -> HermitianForm:
    """The form with identity Gram matrix on the given subspace."""
    k = s.dim
    gram = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    return HermitianForm(s.field, s, gram)


def find_nonisotropic_pair(forms):
    """Two linearly independent vectors non-isotropic for every listed form,
    by exhaustive search in the canonical vector order; None if no pair
    exists."""
    forms = list(forms)
    if not forms:
        raise ValueError("need at least one form")
    dom = forms[0].domain
    if any(w.domain != dom for w in forms):
        raise ValueError("forms must share a common domain")
    first = None
    for v in dom.vectors():
        if not any(v):
            continue
        if all(w.evaluate(v, v) != 0 for w in forms):
            first = v
            break
    if first is None:
        return None
    span_first = Subspace.span(dom.field, dom.ambient, [first])
    for v in dom.vectors():
        if not any(v) or contains(span_first, v):
            continue
        if all(w.evaluate(v, v) != 0 for w in forms):
            return (first, v)
    return None


def count_isotropic_points(form: HermitianForm, s: Subspace) -> int:
    """Number of isotropic one-dimensional subspaces of a two-dimensional s:
    at most 2, resp. sqrt(q)+1, on a non-degenerate line, the count behind
    the sufficient bound."""
    if s.dim != 2:
        raise ValueError("isotropic point count is defined on planes (dim 2)")
    f = form.field
    s0, s1 = s.basis
    # the q+1 points of s: <s_0 + c*s_1> for each c, and <s_1>
    points = [tuple(f.add(a, f.mul(c, b)) for a, b in zip(s0, s1)) for c in range(f.q)]
    return sum(1 for x in points + [s1] if form.evaluate(x, x) == 0)
