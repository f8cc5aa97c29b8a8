"""The 28 invertible symmetric 3x3 binary matrices and their classification.

The classes are

* the identity,
* ``D``: the 15 non-identity matrices with eigenvalue 1 (D1, D2, D3 are
  involutions with a 2-dimensional eigenspace, the rest have a
  1-dimensional one),
* ``U`` and ``V``: two classes of 6 matrices each without eigenvalues;
  together with 0 and the identity each class forms a field with 8
  elements.

A class is its tag, the one class vocabulary: ``classify`` returns
"identity", "D", "U" or "V", ``Atlas.members`` reads a class by its tag,
and ``opposite``, the one U/V switch, rejects every other tag.

The index assignment inside each class is data, not derivable: the
explicit double-six isomorphism depends on it.  The tables below are the
canonical atlas; construction re-derives everything and fails loudly on
any mismatch.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from gqlab.gf2 import (
    MAT_IDENTITY,
    SYM_IDENTITY,
    eigenspace_dim,
    mat_mul,
    mat_to_sym,
    require_sym,
    row_images,
    sym_det,
    sym_to_mat,
)


class AtlasError(RuntimeError):
    """The hard-coded tables disagree with the recomputed classification."""


class NotInvertibleError(ValueError):
    """A singular matrix was passed where an invertible one is required."""


class WrongClassError(ValueError):
    """A matrix of the wrong class was passed to a class-specific operation."""


_D_BITS = tuple(
    int(s, 2)
    for s in (
        "001100", "100010", "010001", "001101", "011011",
        "011110", "010101", "100011", "100110", "101100",
        "101111", "110001", "110111", "111010", "111101",
    )
)
_U_BITS = tuple(int(s, 2) for s in ("111100", "101011", "011001", "001110", "010111", "110010"))
_V_BITS = tuple(int(s, 2) for s in ("010011", "011100", "110110", "111001", "101010", "001111"))

_CLASS_ORDER = {"D": 0, "U": 1, "V": 2}


def label_key(label: str) -> tuple[int, int]:
    """Sort key placing D1..D15 before U1..U6 before V1..V6."""
    return (_CLASS_ORDER[label[0]], int(label[1:]))


class Atlas(namedtuple("Atlas", "d u v points labels by_label")):
    """Verified lookup tables for the 27 non-identity invertible matrices:
    the tuples d, u, v and points of packed matrices, labels (matrix ->
    label) and by_label (label -> matrix)."""

    __slots__ = ()

    def members(self, tag: str) -> tuple[int, ...]:
        """The matrices of the class "D", "U" or "V", in label order."""
        if tag not in _CLASS_ORDER:
            raise ValueError(f"unknown class {tag!r}, expected D, U or V")
        return self[_CLASS_ORDER[tag]]  # d, u and v are the first three fields


def opposite(tag: str) -> str:
    """The other eigenvalue-free class: "V" for "U" and "U" for "V"."""
    if tag not in ("U", "V"):
        raise WrongClassError(f"{tag!r} is not an eigenvalue-free class: must be U or V")
    return "V" if tag == "U" else "U"


class FanoAction(namedtuple("FanoAction", "images fixed_points")):
    """Permutation induced on the 7 nonzero row vectors by v -> v*x."""

    __slots__ = ()

    def image_of(self, point: int) -> int:
        return self.images[point - 1]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        out = []
        for start in range(1, 8):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.image_of(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.image_of(nxt)
            out.append(tuple(cyc))
        return tuple(out)


@cache
def enumerate_invertible_symmetric() -> tuple[int, ...]:
    """All 28 invertible packed SymMat3 values, in ascending packed order."""
    return tuple(s for s in range(64) if sym_det(s) == 1)


def _powers(x: int) -> frozenset[int]:
    seen = set()
    m = sym_to_mat(x)
    acc = m
    while True:
        seen.add(mat_to_sym(acc))
        if acc == MAT_IDENTITY:
            return frozenset(seen)
        acc = mat_mul(acc, m)


@cache
def atlas() -> Atlas:
    """Build and cross-verify the canonical atlas; raises AtlasError on mismatch."""
    listed = {SYM_IDENTITY, *_D_BITS, *_U_BITS, *_V_BITS}
    if len(listed) != 28:
        raise AtlasError("atlas tables contain duplicates")
    if listed != set(enumerate_invertible_symmetric()):
        raise AtlasError("atlas tables disagree with the invertible enumeration")
    for x in _D_BITS:
        if sym_det(x ^ SYM_IDENTITY) != 0:
            raise AtlasError(f"{x:06b} listed in D has no eigenvalue 1")
    for x in _U_BITS + _V_BITS:
        if sym_det(x ^ SYM_IDENTITY) != 1:
            raise AtlasError(f"{x:06b} listed in U/V has eigenvalue 1")
    for tag, bits in (("U", _U_BITS), ("V", _V_BITS)):
        if _powers(bits[0]) != frozenset((SYM_IDENTITY, *bits)):
            raise AtlasError(f"{tag} is not the multiplicative closure of {tag}1")
    for i, x in enumerate(_D_BITS):
        want = 2 if i < 3 else 1
        if eigenspace_dim(sym_to_mat(x)) != want:
            raise AtlasError(f"D{i + 1} has eigenspace dimension != {want}")

    labels: dict[int, str] = {}
    for tag, members in (("D", _D_BITS), ("U", _U_BITS), ("V", _V_BITS)):
        for i, x in enumerate(members):
            labels[x] = f"{tag}{i + 1}"
    by_label = {lab: x for x, lab in labels.items()}
    return Atlas(
        d=_D_BITS,
        u=_U_BITS,
        v=_V_BITS,
        points=_D_BITS + _U_BITS + _V_BITS,
        labels=labels,
        by_label=by_label,
    )


def _require_invertible(x: int) -> None:
    require_sym(x)
    if sym_det(x) != 1:
        raise NotInvertibleError(f"matrix {x:06b} has determinant 0")


def classify(x: int) -> str:
    """Class tag of an invertible SymMat3: "identity", "D", "U" or "V";
    raises NotInvertibleError on det 0."""
    _require_invertible(x)
    if x == SYM_IDENTITY:
        return "identity"
    if sym_det(x ^ SYM_IDENTITY) == 0:
        return "D"
    return "U" if x in atlas().u else "V"


def label_of(x: int) -> str:
    """Canonical label D1..V6 of a point, or "1" for the identity; a singular
    matrix raises NotInvertibleError, as in classify."""
    if not 0 <= x < 64:
        require_sym(x)
    if x == SYM_IDENTITY:
        return "1"
    try:
        return atlas().labels[x]
    except KeyError:
        raise NotInvertibleError(f"matrix {x:06b} has determinant 0") from None


def multiplicative_closure(x: int) -> frozenset[int]:
    """The powers {x, x^2, ..., 1}; defined for the eigenvalue-free classes."""
    if classify(x) not in ("U", "V"):
        raise WrongClassError(f"matrix {x:06b} has an eigenvalue; no GF(8) closure")
    return _powers(x)


def fano_action(x: int) -> FanoAction:
    """Permutation of the 7 points of the Fano plane induced from the right."""
    _require_invertible(x)
    images = row_images(sym_to_mat(x))[1:]
    fixed = tuple(v for v in range(1, 8) if images[v - 1] == v)
    return FanoAction(images=images, fixed_points=fixed)
