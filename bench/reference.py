"""Reference values for every instance the benchmark runs, computed without
any phangeo computation, and the command that regenerates them.

    python3 bench/reference.py        # rewrites bench/reference.json

For the generated dimension-4 instances the vertices and chains come from
the benchmark's own enumeration (instances.py).  For the bundled specs the
complex is read from the facet export of `phangeo build`; everything after
that (faces, boundary matrices, ranks) is computed here.

Betti numbers come from ranks of the augmented boundary matrices over the
prime field F_P, P = 2^31 - 1.  The number of torsion coefficients of H_d
divisible by 2 (resp. 3) is the rank drop rank_P(∂_{d+1}) - rank_2(∂_{d+1})
(resp. mod 3): that many invariant factors of ∂_{d+1} vanish mod 2.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import combinations

import instances

BIG_PRIME = 2**31 - 1
REFERENCE_SEED = 1
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

BUNDLED = ["chamber_q3_dim3", "family2_q11_dim3", "family2_q7_dim2", "t0_q4_dim3",
           "t0_q4h_dim2", "t0_q5_dim3", "t0_q9h_dim3"]
GENERATED = {"F3^4": 3, "F4^4": 4}


def faces_of(facets) -> list[list[tuple[int, ...]]]:
    """All non-empty faces of the complex, by dimension, each a sorted tuple."""
    top = max(len(f) for f in facets)
    by_dim = [set() for _ in range(top)]
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            by_dim[k - 1].update(combinations(f, k))
    return [sorted(s) for s in by_dim]


def maximal(faces) -> list[tuple[int, ...]]:
    """The inclusion-maximal faces (the facets) of a downward-closed family."""
    covered = set()
    for dim in faces[1:]:
        for f in dim:
            covered.update(combinations(f, len(f) - 1))
    return [f for dim in faces for f in dim if f not in covered]


def rank_mod(columns, p: int) -> int:
    """Rank over F_p of a sparse matrix given as {row: value} columns."""
    pivots = {}
    rank = 0
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                s = pow(col[low], p - 2, p)
                pivots[low] = {r: v * s % p for r, v in col.items()}
                rank += 1
                break
            c = col[low]
            for r, v in piv.items():
                x = (col.get(r, 0) - c * v) % p
                if x:
                    col[r] = x
                else:
                    del col[r]
    return rank


def boundary_columns(faces, d: int):
    """Columns of the signed boundary from d-faces to (d-1)-faces; d = 0 is
    the augmentation onto a single row."""
    if d == 0:
        return [{0: 1} for _ in faces[0]]
    index = {f: i for i, f in enumerate(faces[d - 1])}
    return [{index[s[:i] + s[i + 1:]]: (-1) ** i for i in range(len(s))} for s in faces[d]]


def homology_reference(faces) -> dict:
    """Reduced Betti numbers and torsion counts divisible by 2 and by 3."""
    top = len(faces) - 1
    ranks = {p: [rank_mod(boundary_columns(faces, d), p) for d in range(top + 1)] + [0]
             for p in (BIG_PRIME, 2, 3)}
    rq = ranks[BIG_PRIME]
    return {
        "betti": [len(faces[d]) - rq[d] - rq[d + 1] for d in range(top + 1)],
        "torsion_div2": [rq[d + 1] - ranks[2][d + 1] for d in range(top + 1)],
        "torsion_div3": [rq[d + 1] - ranks[3][d + 1] for d in range(top + 1)],
    }


def shape_reference(facets, nvertices: int) -> dict:
    """Invariants of the complex that do not depend on the vertex order."""
    faces = faces_of(facets)
    degree = Counter(v for f in facets for v in f)
    return {
        "f_vector": [len(x) for x in faces],
        "facets": len(facets),
        "vertices": nvertices,
        "facet_degrees": [list(x) for x in sorted(Counter(degree[v] for v in range(nvertices)).items())],
    }


def parse_facet_export(text: str) -> tuple[int, list[tuple[int, ...]]]:
    lines = text.strip("\n").split("\n")
    return int(lines[0]), [tuple(int(x) for x in ln.split()) for ln in lines[1:]]


def generated_reference(q: int, seed: int) -> dict:
    subspaces = instances.nondegenerate_subspaces(q, seed)
    faces = instances.chains(subspaces)
    facets = maximal(faces)
    ref = shape_reference(facets, len(subspaces))
    ref["vertex_counts_by_dim"] = {str(k): c for k, c in sorted(Counter(k for k, _ in subspaces).items())}
    ref.update(homology_reference(faces_of(facets)))
    return ref


def bundled_reference(root: str, name: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "build.json")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        subprocess.run([sys.executable, "-m", "phangeo.cli", "build",
                        "--spec", os.path.join(root, "specs", f"{name}.json"), "--out", out],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        with open(out) as fh:
            nverts, facets = parse_facet_export(json.load(fh)["facet_export"])
    ref = shape_reference(facets, nverts)
    ref.update(homology_reference(faces_of(facets)))
    return ref


def main() -> int:
    root = os.path.dirname(HERE)
    doc = {
        "big_prime": BIG_PRIME,
        "seed": REFERENCE_SEED,
        "bundled": {name: bundled_reference(root, name) for name in BUNDLED},
        "generated": {name: generated_reference(q, REFERENCE_SEED)
                      for name, q in GENERATED.items()},
    }
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"reference values written to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
