"""Closed-form counts of the chamber geometry, an oracle that shares no
arithmetic with phangeo.

Over the coordinate flag of F_q^d, a chain of type k_1 < ... < k_r opposite
the flag is a point of the big cell of the partial flag variety of that
type, an affine space of dimension (d^2 - sum b_i^2) / 2 for the block sizes
b_1 = k_1, b_2 = k_2 - k_1, ..., b_(r+1) = d - k_r.  So the chains number
q^((d^2 - sum b_i^2) / 2) per type, and the vertices of dimension k
q^(k(d-k)).  The complex is spherical, so its one homology group has rank
|χ̃|, the reduced Euler characteristic of these counts.
"""

import json
from itertools import combinations
from pathlib import Path

import pytest

from phangeo.field import make_field
from phangeo.phan import PhanFamily
from phangeo.specfile import dump_family
from phangeo.suites import chamber_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"


def chamber_counts(q: int, d: int) -> tuple[list[int], dict[str, int]]:
    """(f-vector, vertex counts by dimension) of the chamber geometry of
    F_q^d."""
    f_vector = [0] * (d - 1)
    for r in range(1, d):
        for ks in combinations(range(1, d), r):
            blocks = [b - a for a, b in zip((0, *ks), (*ks, d))]
            f_vector[r - 1] += q ** ((d * d - sum(b * b for b in blocks)) // 2)
    return f_vector, {str(k): q ** (k * (d - k)) for k in range(1, d)}


def _reduced_euler(f_vector: list[int]) -> int:
    return -1 + sum((-1) ** i * f for i, f in enumerate(f_vector))


def _report(cli_report, argv: list[str]) -> dict:
    code, report, _ = cli_report(argv)
    assert code == 0
    return json.loads(report)


@pytest.mark.parametrize("name, q, d", [
    ("chamber_q3_dim3", 3, 3), ("chamber_q5_dim4", 5, 4), ("chamber_q2_dim5", 2, 5)])
def test_bundled_chamber_counts(name, q, d, cli_report):
    geometry = _report(cli_report, ["build", "--spec", str(SPECS / f"{name}.json")])["geometry"]
    f_vector, by_dim = chamber_counts(q, d)
    assert geometry["simplex_counts"] == f_vector
    assert geometry["vertex_counts_by_dim"] == by_dim


@pytest.mark.parametrize("p, e, sigma_order, d", [
    (2, 1, 1, 3), (3, 1, 1, 3), (2, 2, 1, 3), (5, 1, 1, 3), (2, 1, 1, 4), (3, 1, 1, 4),
    (2, 2, 2, 3)])
def test_chamber_spec_counts(p, e, sigma_order, d, tmp_path, cli_report):
    path = tmp_path / "chamber.json"
    dump_family(PhanFamily((chamber_spec(make_field(p, e, sigma_order), d),)), str(path))
    geometry = _report(cli_report, ["build", "--spec", str(path)])["geometry"]
    f_vector, by_dim = chamber_counts(p**e, d)
    assert geometry["simplex_counts"] == f_vector
    assert geometry["vertex_counts_by_dim"] == by_dim


@pytest.mark.parametrize("name, q, d, spheres", [
    ("chamber_q3_dim3", 3, 3, 10), ("chamber_q5_dim4", 5, 4, 7124)])
def test_in_bound_sphere_count_is_the_euler_characteristic(name, q, d, spheres, cli_report):
    doc = _report(cli_report, ["homology", "--spec", str(SPECS / f"{name}.json")])
    assert abs(_reduced_euler(chamber_counts(q, d)[0])) == spheres
    assert doc["sphericity"]["sphere_count"] == spheres and doc["verdict"] == "pass"
