"""Reading and writing geometry description files and run reports.

A geometry file is JSON with a field block, the ambient dimension, and one
or more specs, each a flag (list of subspace matrices, zero space first,
full space last) plus one Gram matrix per flag step.  All integers are
decimal; every field element appears as its coefficient array of length e
(constant term first).

    {
      "field": {"p": 5, "e": 1, "sigma_order": 1},
      "ambient_dim": 3,
      "specs": [
        {
          "flag": [[], [[[1],[0],[0]], [[0],[1],[0]], [[0],[0],[1]]]],
          "forms": [[[[1],[0],[0]], [[0],[1],[0]], [[0],[0],[1]]]]
        }
      ]
    }

Reports serialize with sorted keys and a schema version so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

import json

try:  # the builtin sha256: importing hashlib loads OpenSSL
    from _sha256 import sha256  # Python 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

from .field import Field, make_field
from .forms import HermitianForm
from .linalg import Flag, Subspace
from .phan import PhanFamily, PhanSpec, _flags_bound

__all__ = [
    "SpecFileError",
    "load_family",
    "parse_family",
    "family_to_dict",
    "dump_family",
    "write_canonical_json",
    "REPORT_SCHEMA_VERSION",
]

REPORT_SCHEMA_VERSION = 1


class SpecFileError(ValueError):
    """Malformed geometry file; the message names the offending location."""


def _is_integer(obj) -> bool:
    """JSON integers only: ``true`` is a bool, which Python counts as an int."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _element(field: Field, obj, where: str) -> int:
    if not isinstance(obj, list) or len(obj) != field.e:
        raise SpecFileError(
            f"{where}: expected a coefficient array of length {field.e}, got {obj!r}"
        )
    if not all(map(_is_integer, obj)):
        raise SpecFileError(f"{where}: coefficients must be integers, got {obj!r}")
    try:
        return field.from_coeffs(obj)
    except ValueError as exc:
        raise SpecFileError(f"{where}: {exc}") from exc


def _vector(field: Field, obj, ambient: int, where: str) -> tuple[int, ...]:
    if not isinstance(obj, list) or len(obj) != ambient:
        raise SpecFileError(f"{where}: expected a row of {ambient} elements")
    return tuple(_element(field, x, f"{where}[{i}]") for i, x in enumerate(obj))


def _subspace(field: Field, obj, ambient: int, where: str) -> Subspace:
    if not isinstance(obj, list):
        raise SpecFileError(f"{where}: expected a list of rows")
    rows = [_vector(field, r, ambient, f"{where}[{i}]") for i, r in enumerate(obj)]
    return Subspace.span(field, ambient, rows)


def _gram(field: Field, obj, k: int, where: str):
    if not isinstance(obj, list) or len(obj) != k or any(
        not isinstance(r, list) or len(r) != k for r in obj
    ):
        raise SpecFileError(f"{where}: expected a {k}x{k} matrix")
    return tuple(
        tuple(_element(field, x, f"{where}[{i}][{j}]") for j, x in enumerate(row))
        for i, row in enumerate(obj)
    )


def _decode(doc: dict) -> tuple[Field, int, list]:
    """The field, the ambient dimension and, for each spec, its location,
    flag members and forms, decoded from a geometry document, or
    ``SpecFileError`` naming the first malformed location.  No point mask
    is read: the members are the spans of their decoded rows and the forms
    are checked for hermitian symmetry only."""
    if not isinstance(doc, dict):
        raise SpecFileError("top level: expected a JSON object")
    fblock = doc.get("field")
    if not isinstance(fblock, dict):
        raise SpecFileError("field: missing or not an object")
    params = (fblock.get("p"), fblock.get("e"), fblock.get("sigma_order", 1))
    for key, value in zip(("p", "e", "sigma_order"), params):
        if not _is_integer(value):
            raise SpecFileError(f"field.{key}: expected an integer, got {value!r}")
    try:
        field = make_field(*params)
    except ValueError as exc:
        raise SpecFileError(f"field: {exc}") from exc
    ambient = doc.get("ambient_dim")
    if not isinstance(ambient, int) or ambient < 2:
        raise SpecFileError("ambient_dim: expected an integer >= 2")
    raw_specs = doc.get("specs")
    if not isinstance(raw_specs, list) or not raw_specs:
        raise SpecFileError("specs: expected a non-empty list")
    specs = []
    for si, raw in enumerate(raw_specs):
        where = f"specs[{si}]"
        if not isinstance(raw, dict):
            raise SpecFileError(f"{where}: expected an object")
        raw_flag = raw.get("flag")
        if not isinstance(raw_flag, list) or len(raw_flag) < 2:
            raise SpecFileError(f"{where}.flag: expected a list of >= 2 subspaces")
        members = [
            _subspace(field, m, ambient, f"{where}.flag[{i}]")
            for i, m in enumerate(raw_flag)
        ]
        raw_forms = raw.get("forms")
        if not isinstance(raw_forms, list) or len(raw_forms) != len(members) - 1:
            raise SpecFileError(
                f"{where}.forms: expected {len(members) - 1} Gram matrices"
            )
        forms = []
        for fi, rawg in enumerate(raw_forms):
            dom = members[fi + 1]
            gram = _gram(field, rawg, dom.dim, f"{where}.forms[{fi}]")
            try:
                forms.append(HermitianForm(field, dom, gram))
            except ValueError as exc:
                raise SpecFileError(f"{where}.forms[{fi}]: {exc}") from exc
        specs.append((where, members, forms))
    return field, ambient, specs


def parse_family(doc: dict) -> PhanFamily:
    """The family a geometry document describes, or ``SpecFileError``
    naming the first offending location: first any malformed location
    (``_decode``), then each spec's flag, radicals and forms in turn.

    Beyond the flag/radical invariants that ``PhanSpec`` enforces, every
    form of a geometry file must admit a non-isotropic vector; this is the
    one place that checks it.  Specs built for residues and restricted
    families do not need it: over a field of characteristic two with
    identity sigma a restriction of a valid form may be alternating, while
    the membership predicate never needs a non-isotropic vector."""
    specs = []
    for where, members, forms in _decode(doc)[2]:
        try:
            flag = Flag(tuple(members))
        except ValueError as exc:
            raise SpecFileError(f"{where}.flag: {exc}") from exc
        if not flag.top.is_full():
            raise SpecFileError(f"{where}.flag: last member must be the full space")
        try:
            specs.append(PhanSpec(flag, tuple(forms)))
        except ValueError as exc:
            raise SpecFileError(f"{where}: {exc}") from exc
        for fi, w in enumerate(forms):
            if not w.admits_nonisotropic_vector():
                raise SpecFileError(f"{where}: omega_{fi} admits no non-isotropic vector")
    return PhanFamily(tuple(specs))


def _read(path: str):
    """The JSON document of a geometry file and the digest of its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:  # json.loads takes UTF-8, UTF-16 and UTF-32 bytes
        raise SpecFileError(f"not UTF-8, UTF-16 or UTF-32 text: {exc.reason} at byte {exc.start}")
    return doc, sha256(data).hexdigest()


def load_family(path: str) -> tuple[PhanFamily, str]:
    """Parse a geometry file; returns the family and the input digest."""
    doc, digest = _read(path)
    return parse_family(doc), digest


def _spec_bound(path: str) -> dict:
    """The bound row of a geometry file's family, from its decoded document
    alone: n, q, sigma, m and the flags' step ranks need no point mask, so
    a command can refuse an out-of-bound file before ``load_family``
    validates its flags and forms by point masks, which would build its
    ambient's hyperplane masks."""
    field, ambient, specs = _decode(_read(path)[0])
    return _flags_bound(ambient - 1, field, [members for _, members, _ in specs])


def _subspace_doc(field: Field, s: Subspace):
    return [[list(field.coeffs(x)) for x in row] for row in s.basis]


def family_to_dict(family: PhanFamily) -> dict:
    field = family.field
    return {
        "field": {"p": field.p, "e": field.e, "sigma_order": field.sigma_order},
        "ambient_dim": family.ambient.dim,
        "specs": [
            {
                "flag": [_subspace_doc(field, m) for m in spec.flag.members],
                "forms": [
                    [[list(field.coeffs(x)) for x in row] for row in w.gram]
                    for w in spec.forms
                ],
            }
            for spec in family.specs
        ],
    }


def dump_family(family: PhanFamily, path: str) -> None:
    with open(path, "w") as fh:
        write_canonical_json(family_to_dict(family), fh)


def write_canonical_json(obj, fh) -> None:
    """obj as JSON with sorted keys, a two-space indent and a final newline,
    written to fh chunk by chunk, so that no copy of the whole document is
    made."""
    json.dump(obj, fh, sort_keys=True, indent=2)
    fh.write("\n")
