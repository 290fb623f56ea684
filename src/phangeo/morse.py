"""The Morse/Smith engine: integral homology of a complex from the Morse
complex a coreduction leaves, and Smith normal forms of sparse integer
matrices.

All arithmetic is exact over arbitrary-precision ints.  A complex is
reduced by an acyclic matching of its augmented chain complex (Forman,
*Morse theory for cell complexes*, 1998), which leaves a CW complex
homotopy equivalent to K with one cell per critical cell.  The matching is
a coreduction (Mrozek & Batko, DCG 2009), acyclic because each cell is
paired with its last free face (Harker, Mischaikow, Mrozek & Nanda, FoCM
2014), and Smith normal forms run only on the boundaries of the critical
cells, the Morse complex.  A filtered complex, each vertex with a level,
is reduced once: the coreduction pairs only cells of one level, level by
level, so the critical cells of level <= i form the Morse complex of the
full subcomplex on the vertices of level <= i (Mischaikow & Nanda, DCG
2013), and ``filtered_homology`` reads every level's homology from the
Smith forms of the boundaries restricted to them.  The unfiltered
reduction is the one-level case.  Smith normal forms come from one sparse
elimination that takes for each pivot the live row of least key
(Markowitz-style selection); the diagonal multiset is then normalized
into invariant factors.

:mod:`phangeo.homology` imports this module only for a complex of
dimension >= 2, smaller ones taking its spanning-forest path, and
:mod:`phangeo.filtration` for ``filtered_homology``.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import combinations
from math import gcd

from .homology import HomologyReport, _report
from .simplicial import SimplicialComplex

__all__ = [
    "IntegerMatrix",
    "boundary_matrices",
    "smith_invariant_factors",
    "morse_complex",
    "filtered_homology",
]


class IntegerMatrix(namedtuple("IntegerMatrix", "nrows ncols entries")):
    """Sparse integer matrix: only the nonzero entries are stored, as
    (row, col, value) triples."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.entries


def boundary_matrices(k: SimplicialComplex) -> list[IntegerMatrix]:
    """[d_0, d_1, ..., d_dim]: d_0 is the augmentation, d_j the usual
    signed boundary from j-chains to (j-1)-chains; d_(j) . d_(j+1) = 0."""
    if k.is_empty():
        return []
    out = [IntegerMatrix(1, k.num_vertices,
                         tuple((0, j, 1) for j in range(k.num_vertices)))]
    prev = {s: i for i, s in enumerate(k.simplices(0))}
    for d in range(1, k.dim + 1):
        simps = k.simplices(d)
        cur = {s: i for i, s in enumerate(simps)}
        ents = []
        for ci, s in enumerate(simps):
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1:]
                ents.append((prev[face], ci, (-1) ** drop))
        out.append(IntegerMatrix(len(prev), len(simps), tuple(ents)))
        prev = cur
    return out


# -- Smith normal form -------------------------------------------------------


def _normalize_divisors(diag: list[int]) -> list[int]:
    """Redistribute a diagonal multiset into invariant factors d_1 | d_2 | ...
    Units divide everything, so they are set aside before the pairwise gcd
    pass over the other entries and put back in front."""
    ds = sorted(abs(d) for d in diag if d != 0)
    units = ds.count(1)
    ds = ds[units:]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i] != 0:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds.sort()
    return [1] * units + ds


def smith_invariant_factors(mat: IntegerMatrix) -> list[int]:
    """Positive invariant factors d_1 | d_2 | ... of an integer matrix, by
    sparse elimination with Markowitz-style pivot selection (Dumas,
    Heckenbach, Saunders & Welker 2003).

    The pivot row is the live row of least key (least |value| in the row,
    row length, row index), found by a scan of the keys, each recomputed
    only after its row changed; within it the pivot is the entry of least
    |value| whose column has the fewest nonzeros, ties going to the lower
    column index.  A scan per pivot is quadratic in the worst case.  The
    library hands this function only Morse boundaries, which a filtered
    reduction makes larger: the negative control of chamber F_5^4 gives a
    ∂_2 of 2500 x 9500 and rank 2376 (0.5 s; 7 s with every key recomputed
    at every pivot).  Invariant factors do not depend on the pivot order.

    Nothing bounds the entries.  The library reduces only Morse complexes,
    whose boundaries are small, but a dense matrix can still blow up: a
    60 x 80 matrix planted by 280 row and 280 column operations
    (``_planted`` in ``tests/test_homology.py``, seed 2718) reduces in about
    1 s, and with its rows and columns permuted did not finish within 195 s.
    The known remedy is elimination modulo a determinantal multiple
    (``modular_smith`` in ``tests/conftest.py``)."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, c, v in mat.entries:
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)

    keys: dict[int, tuple[int, int, int]] = {}  # live row -> its key
    changed = set(rows)  # rows whose key is out of date

    def drop(r: int, c: int) -> None:
        del rows[r][c]
        if not rows[r]:
            del rows[r]
        cols[c].discard(r)
        if not cols[c]:
            del cols[c]
        changed.add(r)

    def put(r: int, c: int, v: int) -> None:
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
            changed.add(r)
        elif r in rows and c in rows[r]:
            drop(r, c)

    diag = []
    while rows:
        for r in changed:
            row = rows.get(r)
            if row:
                keys[r] = (min(map(abs, row.values())), len(row), r)
            else:
                keys.pop(r, None)
        changed.clear()
        least, _, pr = min(keys.values())
        pc = min((c for c, v in rows[pr].items() if abs(v) == least),
                 key=lambda c: (len(cols[c]), c))
        while True:
            pv = rows[pr][pc]
            for r in [r for r in cols[pc] if r != pr]:
                v = rows[r][pc]
                qd = v // pv
                if qd:
                    for c2, v2 in list(rows[pr].items()):
                        put(r, c2, rows.get(r, {}).get(c2, 0) - qd * v2)
            rest = [r for r in cols.get(pc, set()) if r != pr]
            if rest:
                pr = rest[0]  # smaller remainder becomes the pivot
                continue
            row_cols = [c for c in rows[pr] if c != pc]
            progressed = False
            for c in row_cols:
                v = rows[pr][c]
                qd = v // pv
                if qd:
                    for r2 in list(cols[pc]):
                        put(r2, c, rows.get(r2, {}).get(c, 0) - qd * rows[r2][pc])
                if rows.get(pr, {}).get(c, 0) != 0:
                    pc = c
                    progressed = True
                    break
            if not progressed:
                break
        diag.append(abs(rows[pr][pc]))
        for c in list(rows[pr].keys()):
            drop(pr, c)
    return _normalize_divisors(diag)


# -- Morse complex -------------------------------------------------------------


def morse_complex(k: SimplicialComplex, level=None) -> tuple[list, list[IntegerMatrix], list[int]]:
    """(stages, [∂_0, ..., ∂_dim] of the Morse complex, matching) of a
    complex, by coreduction of its augmented chain complex (Mrozek & Batko,
    DCG 2009), filtered by the vertex levels ``level`` (default: one level).

    Cells get integer ids by degree: the empty simplex is 0, vertex v is
    v + 1, and the j-simplices follow in the order of ``k.simplices(j)``;
    the top cells are the top facets, read from ``k.facets`` with no copy
    when k is pure.  Faces are looked up in an index simplex -> id of the
    degree below, never built for the top degree, whose cells share one
    empty coface tuple.  A cell's level is the largest level of its
    vertices, the level at which its last vertex enters; the empty simplex
    has level 0.  A queue serves
    cells with exactly one free face left; such a cell t is paired with
    that face s, [t:s] = ±1, and both leave the complex by the elementary
    reduction of Kaczynski, Mrozek & Ślusarek: every other coface r of s
    gets ∂r -= [r:s]·[t:s]·∂t, and t drops out of its cofaces' boundaries.
    The other faces of t are critical, so this fill lands only on critical
    cells, and a free face keeps its incidence ±1.  When the queue runs dry,
    the lowest-degree free cell becomes critical.  Each step is a
    chain-homotopy equivalence, so the critical cells with their updated
    boundaries have the homology of K.

    The levels are reduced one at a time from level 0 up, each to its last
    free cell, so a cell is served only once every cell of a lower level
    has left, and each pair has cells of one level.  A reduction then
    changes only the boundaries of cells of its level and above, so the
    critical cells of level <= i with their boundaries are the Morse
    complex of the full subcomplex K_i on the vertices of level <= i
    (Mischaikow & Nanda, DCG 2013).  The first pair is (empty simplex, the
    first vertex of level 0); with no such vertex the empty simplex is
    critical.  Critical cells are listed by level, so those of K_i are a
    prefix of each degree.

    ``stages`` gives for each level i the face counts of K_i by degree
    (dimension 0 up, up to the dimension of K_i) and its critical cells by
    degree (-1 up to dim K).  The matching lists for each cell id its
    partner, or -2 for a critical cell."""
    vlevel = [0] * k.num_vertices if level is None else list(level)
    levels = max(vlevel, default=0) + 1
    faces: list[tuple[int, ...]] = [()] + [(0,)] * k.num_vertices
    cell_level = [0] + vlevel
    ids = {(v,): v + 1 for v in range(k.num_vertices)}  # (d-1)-simplex -> cell id
    sizes = [k.num_vertices]
    counts = k.face_counts()
    for d in range(1, k.dim + 1):
        simps = k.simplices(d) if d < k.dim else k.facets
        if len(simps) != counts[d]:  # the top facets, when k is not pure
            simps = [f for f in simps if len(f) == d + 1]
        sizes.append(len(simps))
        # faces[c][i] is the face without vertex i, so [c : faces[c][i]] = (-1)^i
        faces.extend(tuple(map(ids.__getitem__, combinations(s, d)))[::-1] for s in simps)
        if level is not None:
            cell_level.extend(max(map(vlevel.__getitem__, s)) for s in simps)
        ids = dict(zip(simps, range(len(faces) - len(simps), len(faces)))) if d < k.dim else None
    n = len(faces)
    if level is None:
        cell_level = [0] * n
        by_level = [range(n)]
    else:
        by_level = [[] for _ in range(levels)]  # cell ids of each level, by degree
        for c, lv in enumerate(cell_level):
            by_level[lv].append(c)
    cofaces = [[] for _ in range(n - sizes[-1])] + [()] * sizes[-1]  # top cells have none
    for c, fs in enumerate(faces):
        for f in fs:
            cofaces[f].append(c)
    nfree = [len(fs) for fs in faces]  # faces still free
    mate = [-1] * n  # -1 free, -2 critical, else the partner
    rest: dict[int, dict[int, int]] = {}  # cell -> critical part of its boundary
    critical: list[list[int]] = [[] for _ in range(k.dim + 2)]  # by degree + 1
    queues = [deque() for _ in range(levels)]  # cells with one free face, by level
    first = next((v for v, lv in enumerate(vlevel) if lv == 0), None)
    if first is not None:
        queues[0].append(first + 1)
    stages = []
    for lv, queue in enumerate(queues):
        cells = by_level[lv]
        low = 0  # no free cell of this level lies before cells[low]
        while True:
            while queue:
                t = queue.popleft()
                if mate[t] != -1 or nfree[t] != 1:
                    continue
                for i, s in enumerate(faces[t]):
                    if mate[s] == -1:
                        break
                mate[s], mate[t] = t, s
                rest.pop(s, None)
                fill = rest.pop(t, None)
                for r in cofaces[s]:
                    if mate[r] >= 0:
                        continue
                    nfree[r] -= 1
                    if nfree[r] == 1:
                        queues[cell_level[r]].append(r)
                    if fill:
                        c = -1 if (faces[r].index(s) + i) & 1 == 0 else 1  # -[r:s][t:s]
                        b = rest.setdefault(r, {})
                        for x, v in fill.items():
                            w = b.get(x, 0) + c * v
                            if w:
                                b[x] = w
                            else:
                                del b[x]
                for r in cofaces[t]:
                    nfree[r] -= 1
                    if nfree[r] == 1:
                        queues[cell_level[r]].append(r)
            while low < len(cells) and mate[cells[low]] != -1:
                low += 1
            if low == len(cells):
                break
            c = cells[low]
            mate[c] = -2
            critical[len(faces[c])].append(c)
            for r in cofaces[c]:
                if mate[r] < 0:
                    rest.setdefault(r, {})[c] = -1 if faces[r].index(c) & 1 else 1
                    nfree[r] -= 1
                    if nfree[r] == 1:
                        queues[cell_level[r]].append(r)
        stages.append([len(c) for c in critical])
    per, start = [], 1  # the d-cells of each level, over each degree's run of ids
    for size in sizes:
        run = cell_level[start:start + size]
        per.append([run.count(lv) for lv in range(levels)])
        start += size
    stages = [([c for c in (sum(p[:i + 1]) for p in per) if c], crit)
              for i, crit in enumerate(stages)]
    mats = []
    for d in range(k.dim + 1):
        row = {c: i for i, c in enumerate(critical[d])}
        cols = critical[d + 1]
        mats.append(IntegerMatrix(len(row), len(cols), tuple(
            (row[x], j, v) for j, c in enumerate(cols) for x, v in rest.get(c, {}).items())))
    return stages, mats, mate


def _morse_report(counts: list[int], critical: list[int],
                  mats: list[IntegerMatrix]) -> HomologyReport:
    """The report of the complex whose Morse complex is the first
    critical[d + 1] critical cells of each degree d of ``mats``."""
    top = len(counts) - 1
    cut = [IntegerMatrix(critical[d], critical[d + 1],
                         tuple(e for e in mats[d].entries if e[1] < critical[d + 1]))
           for d in range(top + 1)]
    return _report(counts, critical[1:top + 2],
                   [smith_invariant_factors(m) for m in cut] + [[]])


def filtered_homology(k: SimplicialComplex, level) -> list[HomologyReport]:
    """The reduced integral homology of each full subcomplex K_i of k on the
    vertices of level <= i, for i = 0 .. the largest of ``level`` (one level
    per vertex), from one filtered coreduction of k (``morse_complex``):
    K_i's Betti numbers and torsion are read from the Smith forms of the
    Morse boundaries restricted to the critical cells of level <= i."""
    stages, mats, _ = morse_complex(k, level)
    return [_morse_report(counts, critical, mats) if counts
            else HomologyReport((), (), 0, -1, ()) for counts, critical in stages]
