"""Generalized Phan geometries of type A_n over finite fields.

Library layout:

- :mod:`phangeo.field`: arithmetic in F_q with an automorphism of order 1 or 2
- :mod:`phangeo.masks`: point bitmasks as meets of swept hyperplanes
- :mod:`phangeo.linalg`: canonical subspaces, flags, complements, quotients
- :mod:`phangeo.forms`: sigma-hermitian forms, radicals, extension, projection
- :mod:`phangeo.phan`: geometries, membership, residues, restricted families
- :mod:`phangeo.simplicial`: order complexes on integer vertices, links, stars
- :mod:`phangeo.homology`: Smith normal form, Betti numbers, sphericity,
  Cohen-Macaulay sweep, pi_1 triviality by a union-find fixpoint
- :mod:`phangeo.filtration`: the inductive filtration and its stage checks
- :mod:`phangeo.specfile`, :mod:`phangeo.suites`, :mod:`phangeo.cli`
"""

__version__ = "0.1.0"

from .field import Field, make_field
from .linalg import Flag, Subspace
from .forms import HermitianForm
from .phan import PhanFamily, PhanSpec

__all__ = [
    "Field", "make_field", "Flag", "Subspace", "HermitianForm",
    "PhanFamily", "PhanSpec", "__version__",
]
