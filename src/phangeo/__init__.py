"""Generalized Phan geometries of type A_n over finite fields.

Library layout:

- :mod:`phangeo.field`: arithmetic in F_q with an automorphism of order 1 or 2
- :mod:`phangeo.masks`: point bitmasks as meets of swept hyperplanes
- :mod:`phangeo.linalg`: canonical subspaces, point masks, flags, complements
- :mod:`phangeo.forms`: sigma-hermitian forms, restriction, perps, radicals
- :mod:`phangeo.phan`: geometries, membership, enumeration, bounds
- :mod:`phangeo.residues`: residues, restricted families, form extension,
  projection forms
- :mod:`phangeo.simplicial`: order complexes read from their containment
  graphs: chains, facets, full subcomplexes, links, stars
- :mod:`phangeo.homology`: Betti numbers, sphericity, Cohen-Macaulay sweep,
  pi_1 status from the matching
- :mod:`phangeo.morse`: Morse complexes and Smith normal forms
- :mod:`phangeo.filtration`: the inductive filtration and its stage checks
- :mod:`phangeo.specfile`, :mod:`phangeo.suites`, :mod:`phangeo.cli`

Each command of :mod:`phangeo.cli` runs in a fresh process and imports only
the modules it runs: ``residues`` only with the filtration or the lemma
suites, ``morse`` only with the filtration or when a complex of dimension
>= 2 is reduced.
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
