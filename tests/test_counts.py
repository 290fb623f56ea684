"""Closed-form counts of the chamber geometry and of the complex of
non-degenerate subspaces, oracles that share no arithmetic with phangeo.

Over the coordinate flag of F_q^d, a chain of type k_1 < ... < k_r opposite
the flag is a point of the big cell of the partial flag variety of that
type, an affine space of dimension (d^2 - sum b_i^2) / 2 for the block sizes
b_1 = k_1, b_2 = k_2 - k_1, ..., b_(r+1) = d - k_r.  So the chains number
q^((d^2 - sum b_i^2) / 2) per type, and the vertices of dimension k
q^(k(d-k)).  The complex is spherical, so its one homology group has rank
|χ̃|, the reduced Euler characteristic of these counts.

For t = 0, the isometry group of a non-degenerate space V acts on the
non-degenerate subspaces of each isometry class c transitively (Witt), with
stabiliser Isom(U) x Isom(U^⊥), so they number |Isom(V)| / (|Isom(c)| ·
|Isom(V/c)|), V/c being the class of U^⊥.  A chain of length L is a top
member of some class, with a chain of length L - 1 inside it.  The class is
the dimension, and for sigma = id in odd characteristic the discriminant's
square class too (Taylor, The Geometry of the Classical Groups, 1992).
"""

import json
from itertools import combinations
from math import isqrt, prod
from pathlib import Path

import pytest

from phangeo.field import make_field
from phangeo.phan import PhanFamily
from phangeo.specfile import dump_family
from phangeo.suites import chamber_spec, diagonal_spec, standard_spec

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


def _build_geometry(spec, tmp_path, cli_report) -> dict:
    path = tmp_path / "spec.json"
    dump_family(PhanFamily((spec,)), str(path))
    return _report(cli_report, ["build", "--spec", str(path)])["geometry"]


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
    geometry = _build_geometry(chamber_spec(make_field(p, e, sigma_order), d), tmp_path, cli_report)
    f_vector, by_dim = chamber_counts(p**e, d)
    assert geometry["simplex_counts"] == f_vector
    assert geometry["vertex_counts_by_dim"] == by_dim


@pytest.mark.parametrize("name, q, d, spheres", [
    ("chamber_q3_dim3", 3, 3, 10), ("chamber_q5_dim4", 5, 4, 7124)])
def test_in_bound_sphere_count_is_the_euler_characteristic(name, q, d, spheres, cli_report):
    doc = _report(cli_report, ["homology", "--spec", str(SPECS / f"{name}.json")])
    assert abs(_reduced_euler(chamber_counts(q, d)[0])) == spheres
    assert doc["sphericity"]["sphere_count"] == spheres and doc["verdict"] == "pass"


def _isometry_order(q: int, sigma_order: int, k: int, nonsquare: bool) -> int:
    """|Isom| of a non-degenerate form on F_q^k: |U(k, r)| for sigma of
    order 2 (q = r^2), else |O(k, q)| of the discriminant's square class."""
    if sigma_order == 2:
        r = isqrt(q)
        return r ** (k * (k - 1) // 2) * prod(r**i - (-1) ** i for i in range(1, k + 1))
    m = k // 2
    if k % 2:
        return 2 * q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))
    if k == 0:
        return 1
    # O^+ exactly when (-1)^m disc is a square; -1 is a non-square when q = 3 mod 4
    eps = -1 if (m % 2 == 1 and q % 4 == 3) != nonsquare else 1
    return 2 * q ** (m * (m - 1)) * (q**m - eps) * prod(q ** (2 * i) - 1 for i in range(1, m))


def t0_counts(q: int, d: int, sigma_order: int, nonsquare: bool = False):
    """(f-vector, vertex counts by dimension) of the complex of proper
    non-degenerate subspaces of F_q^d, for a form whose discriminant is a
    non-square or not (sigma = id) or a hermitian form (sigma of order 2)."""
    if sigma_order == 1 and q % 2 == 0:
        raise ValueError("sigma = id in characteristic 2: Witt cancellation fails, so "
                         "dimension and discriminant do not classify the forms")
    discs = (False,) if sigma_order == 2 else (False, True)

    def count(big, small) -> int:
        (k, s), (j, t) = big, small
        return _isometry_order(q, sigma_order, k, s) // (
            _isometry_order(q, sigma_order, j, t) * _isometry_order(q, sigma_order, k - j, s != t))

    def chains(big, length: int) -> int:
        if length == 0:
            return 1
        return sum(count(big, (j, t)) * chains((j, t), length - 1)
                   for j in range(1, big[0]) for t in discs)

    top = (d, nonsquare)
    return ([chains(top, length) for length in range(1, d)],
            {str(j): sum(count(top, (j, t)) for t in discs) for j in range(1, d)})


@pytest.mark.parametrize("name, q, sigma_order, d", [
    ("t0_q3_dim4", 3, 1, 4), ("t0_q5_dim3", 5, 1, 3), ("t0_q9h_dim3", 9, 2, 3),
    ("t0_q4h_dim2", 4, 2, 2)])
def test_bundled_t0_counts(name, q, sigma_order, d, cli_report):
    geometry = _report(cli_report, ["build", "--spec", str(SPECS / f"{name}.json")])["geometry"]
    f_vector, by_dim = t0_counts(q, d, sigma_order)
    assert geometry["simplex_counts"] == f_vector
    assert geometry["vertex_counts_by_dim"] == by_dim


@pytest.mark.parametrize("p, e, d, nonsquare", [
    *((p, e, d, nonsquare) for p, e in ((3, 1), (5, 1), (7, 1), (3, 2)) for d in (2, 3)
      for nonsquare in (False, True)),
    *((p, 1, 4, nonsquare) for p in (3, 5) for nonsquare in (False, True)),
    *(pytest.param(p, e, 4, nonsquare, marks=pytest.mark.milestone)
      for p, e in ((7, 1), (3, 2)) for nonsquare in (False, True))])
def test_diagonal_spec_counts(p, e, d, nonsquare, tmp_path, cli_report):
    """diag(1, ..., 1) and diag(1, ..., 1, nu) with nu a non-square, the two
    discriminant classes."""
    field = make_field(p, e, 1)
    squares = {field.mul(x, x) for x in range(field.q)}
    nu = next(x for x in range(1, field.q) if x not in squares)
    geometry = _build_geometry(diagonal_spec(field, (1,) * (d - 1) + (nu if nonsquare else 1,)),
                               tmp_path, cli_report)
    f_vector, by_dim = t0_counts(p**e, d, 1, nonsquare)
    assert geometry["simplex_counts"] == f_vector
    assert geometry["vertex_counts_by_dim"] == by_dim


@pytest.mark.parametrize("p, d", [
    (2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
    pytest.param(3, 4, marks=pytest.mark.milestone)])
def test_hermitian_standard_spec_counts(p, d, tmp_path, cli_report):
    geometry = _build_geometry(standard_spec(make_field(p, 2, 2), d), tmp_path, cli_report)
    f_vector, by_dim = t0_counts(p * p, d, 2)
    assert geometry["simplex_counts"] == f_vector
    assert geometry["vertex_counts_by_dim"] == by_dim


@pytest.mark.parametrize("name, q, sigma_order, d, spheres", [
    ("t0_q5_dim3", 5, 1, 3, 71), ("t0_q9h_dim3", 9, 2, 3, 253)])
def test_in_bound_t0_sphere_count_is_the_euler_characteristic(name, q, sigma_order, d, spheres,
                                                              cli_report):
    doc = _report(cli_report, ["homology", "--spec", str(SPECS / f"{name}.json")])
    assert abs(_reduced_euler(t0_counts(q, d, sigma_order)[0])) == spheres
    assert doc["sphericity"]["sphere_count"] == spheres and doc["verdict"] == "pass"


def test_t0_counts_refuse_sigma_id_in_characteristic_2():
    """F_4^3 with sigma = id, the bundled t0_q4_dim3, is out of the
    oracle's scope."""
    with pytest.raises(ValueError, match="Witt cancellation fails"):
        t0_counts(4, 3, 1)
