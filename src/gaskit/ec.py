"""Short-Weierstrass elliptic-curve group over a prime field.

Points cross the API in affine coordinates (`CurvePoint` over
`FieldElement`, infinity as `CurvePoint(None, None)`).  `scalar_mul`,
`_multi_scalar_jacobian` and `scalar_mul_many` work on plain integers, record
one TEM per scalar multiplication, and tally their field multiplications in
bulk once per call.  There are three loops:

* fixed base, for `scalar_mul` of the curve's own generator when
  `subgroup_order` is set: k is reduced mod n and split into 3-bit digits,
  and one precomputed affine point per nonzero digit is added, with no
  doublings.  The table (ceil(bitlen(n)/3) rows of 7 points; 54 rows,
  about 60 KB, for secp160r1) is built once per `CurveParams`, on the first
  such call, and is held on that instance.  Tallies 11 per mixed addition
  and 4 to return to affine;
* interleaved, for `_multi_scalar_jacobian`, sum k_i P_i, and for
  `scalar_mul` of any other point as its one term: each k_i is recoded as a
  width-4 NAF over the affine odd multiples P_i, 3P_i, 5P_i, 7P_i when it has
  `_NAF_MIN_BITS` (32) bits or more, or `_SHARED_NAF_MIN_BITS` (8) in a
  sum of two or more terms, whose doublings are shared, and as binary
  digits when shorter, on which the table costs more than it saves.  All
  terms' mixed additions run under one shared sequence of Jacobian
  doublings.  Tallies 25 per NAF table, 8 per doubling where a = -3 mod p
  (secp160r1, P-256) and 10 otherwise, 11 per mixed addition and 4 to
  return to affine;
* lockstep, for `scalar_mul_many`, k P_i for one k and many points (a
  member's pairwise ECDH): k is recoded once, in the same way, and every
  point runs its digits together in affine coordinates, each doubling or
  addition taking all points' denominators from one inversion.  Tallies,
  per point, 7 per doubling and 6 per addition.

Both build their NAF tables with `_odd_multiples`.  A point of order 2, 3,
5 or 7 has none: the interleaved loop then runs every term on binary
digits, and the lockstep hands every point to `scalar_mul`.

A verifier that only compares its result with a given point keeps it in
Jacobian coordinates: `_jacobian_is` tests X = x Z^2 and Y = y Z^3 with the
4 multiplications of the return to affine, tallied the same, and no
inversion.  `gas_core.gm_verify` and `decentralized_verify` use it.

Protocol scalars are expected to live modulo `CurveParams.subgroup_order`:
the builtin parameter sets publish a generator of that prime-order
subgroup, and the secret sharing layer uses the same prime as its field
modulus so that Lagrange arithmetic and scalar arithmetic agree.

Builtin parameter sets (see ``data/``):

* ``test2017``  - y^2 = x^3 + 6x + 36 mod 2017.  Group order 2035 = 5*11*37;
  the published generator (1368, 374) spans the prime subgroup of order 37.
* ``secp160r1`` - the standard 160-bit SECG curve (prime order, cofactor 1).
* ``toy5``      - y^2 = x^3 + 1 mod 5, order 6; only useful for exhaustive
  unit tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from .field import (
    FieldElement, MulCounter, Prime, _reduced, active_counter, cached_prime,
    json_int, json_object, json_str, tally_muls,
)

__all__ = [
    "CurvePoint",
    "CurveParams",
    "is_on_curve",
    "affine_point",
    "scalar_mul",
    "scalar_mul_many",
    "brute_force_order",
    "builtin_curve",
    "load_curve",
    "curve_from_dict",
    "curve_to_dict",
    "BUILTIN_CURVES",
]

_BRUTE_FORCE_LIMIT = 10**6

# Largest subgroup order n whose points `affine_point` looks up in a set
# (test2017's n is 37); above it, or with no group order, it multiplies by n.
_SUBGROUP_LIST_MAX = 1 << 16


class CurvePoint:
    """Affine point (x, y) or the point at infinity."""

    __slots__ = ("x", "y")

    def __init__(self, x: FieldElement | None, y: FieldElement | None):
        if (x is None) != (y is None):
            raise ValueError("both coordinates or neither")
        _set_x(self, x)
        _set_y(self, y)

    def __setattr__(self, name, value):
        raise AttributeError("CurvePoint is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the raising __setattr__
        return CurvePoint, (self.x, self.y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other) -> bool:
        # `FieldElement.__eq__` on both coordinates, inline
        if not isinstance(other, CurvePoint):
            return NotImplemented
        x, y, ox, oy = self.x, self.y, other.x, other.y
        if x is None or ox is None:  # infinity equals only infinity
            return x is ox
        return (
            x.residue == ox.residue and y.residue == oy.residue
            and x.modulus.value == ox.modulus.value and y.modulus.value == oy.modulus.value
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x.residue}, {self.y.residue})"


# The slots' own setters, which `__init__` calls because `__setattr__` raises.
_set_x = CurvePoint.x.__set__
_set_y = CurvePoint.y.__set__
_INFINITY = CurvePoint(None, None)


def _point(x: FieldElement, y: FieldElement) -> CurvePoint:
    """The finite point (x, y) of two coordinates, without `__init__`'s check."""
    pt = object.__new__(CurvePoint)
    _set_x(pt, x)
    _set_y(pt, y)
    return pt


@dataclass(frozen=True)
class CurveParams:
    """y^2 = x^3 + Ax + B over F_p, plus a published generator.

    `order` is the full group order (optional until computed for toy
    curves); `subgroup_order` is the prime order of the generator, the
    modulus protocol scalars are drawn from.
    """

    a: FieldElement
    b: FieldElement
    modulus: Prime
    generator: CurvePoint
    order: int | None = None
    subgroup_order: int | None = None
    name: str = ""

    def __post_init__(self) -> None:
        p = self.modulus.value
        disc = (4 * self.a.residue**3 + 27 * self.b.residue**2) % p
        if disc == 0:
            raise ValueError("singular curve: 4A^3 + 27B^2 = 0")
        if not is_on_curve(self.generator, self):
            raise ValueError("generator is not on the curve")
        if self.generator.is_infinity:
            raise ValueError("generator must not be the point at infinity")
        if self.order is not None and self.order < 1:
            raise ValueError(f"group order must be >= 1, got {self.order}")
        if self.subgroup_order is not None:
            if not is_probable_subgroup(self):
                raise ValueError("subgroup_order does not annihilate the generator")

    def scalar_field(self) -> Prime:
        """The prime scalar ring; requires a published subgroup order."""
        if self.subgroup_order is None:
            raise ValueError(f"curve {self.name or '<anonymous>'} has no subgroup_order")
        return cached_prime(self.subgroup_order)

    @cached_property
    def _generator_table(self) -> list[list[tuple[int, int] | None]]:
        """Fixed-base table of `scalar_mul`, built on first use; see there."""
        return _build_generator_table(self)

    @cached_property
    def _subgroup_xs(self) -> frozenset[int] | None:
        """The x of every affine point of the generator's subgroup, or None.

        x alone decides membership for a point on the curve: the only other
        point with its x is its negative, which is in the subgroup exactly
        when it is.  Listed when the cofactor, order // subgroup_order, is
        above 1 and the subgroup order n is at most `_SUBGROUP_LIST_MAX`:
        built on first use, untallied, from 2G, 3G, ..., (n - 1)G, each the
        one before plus the generator.  test2017 lists the 18 x of its 36
        points.  None otherwise.
        """
        n = self.subgroup_order
        if n is None or self.order is None or self.order // n <= 1 or n > _SUBGROUP_LIST_MAX:
            return None
        p, a = self.modulus.value, self.a.residue
        g = [(self.generator.x.residue, self.generator.y.residue)]
        xs, acc = {g[0][0]}, g
        for k in range(2, n):  # k G = (k - 1) G + G, doubling G for k = 2
            acc = _affine_step(acc, None if k == 2 else g, a, p)
            xs.add(acc[0][0])
        return frozenset(xs)


def is_probable_subgroup(curve: CurveParams) -> bool:
    # The variable-base path on purpose: the fixed-base path reduces k mod
    # subgroup_order, which is what this check has yet to justify.
    n, g = curve.subgroup_order, curve.generator
    p, a = curve.modulus.value, curve.a.residue
    if n < 1 or _interleaved([(n, g.x.residue, g.y.residue)], a, p)[2]:
        return False
    return curve.order is None or curve.order % n == 0


def _satisfies(x: int, y: int, curve: CurveParams) -> bool:
    """Whether the integers x and y lie in [0, p) and satisfy the curve's
    equation: the one point predicate, on plain ints."""
    p, a, b = curve.modulus.value, curve.a.residue, curve.b.residue
    return 0 <= x < p and 0 <= y < p and not (y * y - (x * x + a) * x - b) % p


def is_on_curve(pt: CurvePoint, curve: CurveParams) -> bool:
    """Infinity, or a point of two elements of the curve's prime that
    `_satisfies` its equation (does not touch the mul counter)."""
    if pt.is_infinity:
        return True
    x, y, p = pt.x, pt.y, curve.modulus.value
    return x.modulus.value == p == y.modulus.value and _satisfies(x.residue, y.residue, curve)


def affine_point(x: int, y: int, curve: CurveParams) -> CurvePoint:
    """The affine point (x, y) of two integers read from the wire.

    The one check of a point from outside; the public-share decoder calls
    it on the two integers it reads.  ValueError unless both lie in [0, p),
    satisfy the curve's equation and, when `subgroup_order` n is set, lie
    in the generator's subgroup, all tested before the point is built; its
    coordinates are elements of `curve.modulus` itself.  Infinity has no
    affine encoding, so it never passes.

    The subgroup test refuses a point of small order, such as test2017's
    T = (1981, 1664) of order 5, from which a peer could learn the other
    side's ECDH scalar mod 5 (SEC 1 v2, section 3.2.2).  With cofactor 1
    (order = n, as on secp160r1) every point passes it at no cost.
    Otherwise x is looked up in `CurveParams._subgroup_xs`, or, when that
    is None (n above 2^16, or no group order), n * (x, y) must be
    infinity; neither is tallied.
    """
    fp = curve.modulus
    if not _satisfies(x, y, curve):
        p = fp.value
        if 0 <= x < p and 0 <= y < p:
            raise ValueError(f"point ({x}, {y}) is off-curve")
        raise ValueError(f"{y if 0 <= x < p else x} out of field range [0, {p})")
    xs = curve._subgroup_xs
    if xs is not None:
        outside = x not in xs
    else:
        n = curve.subgroup_order
        outside = (
            n is not None and curve.order != n
            and _interleaved([(n, x, y)], curve.a.residue, fp.value)[2]
        )
    if outside:
        raise ValueError(f"point ({x}, {y}) is outside the subgroup of order "
                         f"{curve.subgroup_order}")
    return _point(_reduced(x, fp), _reduced(y, fp))


def _require_on_curve(pt: CurvePoint, curve: CurveParams) -> None:
    if not is_on_curve(pt, curve):
        raise ValueError(f"point {pt!r} is not on curve {curve.name or '<anonymous>'}")


# Field multiplications per Jacobian formula, tallied in bulk by scalar_mul.
_DOUBLE_MULS = 10  # dbl-1998-cmo-2: 3M + 6S + 1*a
_DOUBLE_A3_MULS = 8  # dbl-2001-b: 3M + 5S, for a = -3
_MADD_MULS = 11  # madd-2004-hmv: 8M + 3S, adding an affine point
_MADD_CHECK_MULS = 4  # the part of madd that finds P + P or P + (-P)
_TO_AFFINE_MULS = 4  # x = X/Z^2, y = Y/Z^3 after one inversion
# Per point and step of the affine lockstep: the formula, then 3 for the
# point's share of the step's one batch inversion.
_AFFINE_DOUBLE_MULS = 4 + 3  # lambda = (3x^2 + a) / 2y, then x3 and y3
_AFFINE_ADD_MULS = 3 + 3  # lambda = (y2 - y) / (x2 - x), then x3 and y3
_NAF_TABLE_MULS = _AFFINE_DOUBLE_MULS + 3 * _AFFINE_ADD_MULS  # per point: 2P, 3P, 5P, 7P

# Digit width of the fixed-base path.  4-bit windows are faster still, but
# then a secp160r1 TEM can tally fewer than a third of the modeled 1189
# field multiplications, the floor tests/test_cost_model.py holds.
_WINDOW = 3

# Shortest scalar, in bits, on the variable-base width-4 NAF path.  Below it
# the NAF's precompute costs more than it saves, and binary double-and-add
# runs instead.  Measured: the two tie at about 32 bits on secp160r1 and
# P-256 (CPython 3.11, 2-vCPU KVM guest); on test2017 the binary loop is
# still ahead there, but its protocol scalars are under 6 bits.
_NAF_MIN_BITS = 32

# The same for a term of a sum of two or more, whose doublings are shared:
# per term of b bits, binary digits then cost about 11 b/2 multiplications
# and the width-4 NAF 25 + 11 b/5, which tie near 8 bits.
_SHARED_NAF_MIN_BITS = 8


def _double(X: int, Y: int, Z: int, a: int, p: int) -> tuple[int, int, int]:
    """2(X : Y : Z) in Jacobian coordinates; Y = 0 or Z = 0 gives Z3 = 0."""
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    M = (3 * X * X + a * ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def _double_a3(X: int, Y: int, Z: int, a: int, p: int) -> tuple[int, int, int]:
    """`_double` for a curve with a = -3 mod p; `a` itself is not read.

    M = 3X^2 - 3Z^4 = 3(X - Z^2)(X + Z^2) saves two multiplications
    (dbl-2001-b, Explicit-Formulas Database).
    """
    ZZ = Z * Z % p
    YY = Y * Y % p
    S = 4 * X * YY % p
    M = 3 * (X - ZZ) * (X + ZZ) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def _doubling(a: int, p: int):
    """The Jacobian doubling for this curve's a, and its field muls."""
    if (a + 3) % p == 0:
        return _double_a3, _DOUBLE_A3_MULS
    return _double, _DOUBLE_MULS


def _madd(
    X: int, Y: int, Z: int, x2: int, y2: int, a: int, p: int
) -> tuple[int, int, int, int]:
    """(X : Y : Z) + (x2, y2) and the field multiplications it took.

    Infinity (Z = 0) plus the affine point is that point; P + P doubles and
    P + (-P) gives Z = 0.
    """
    if not Z:
        return x2, y2, 1, 0
    ZZ = Z * Z % p
    H = (x2 * ZZ - X) % p
    R = (y2 * Z * ZZ - Y) % p
    if not H:
        if R:
            return X, Y, 0, _MADD_CHECK_MULS
        return (*_double(x2, y2, 1, a, p), _MADD_CHECK_MULS + _DOUBLE_MULS)
    HH = H * H % p
    HHH = H * HH % p
    V = X * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    return X3, (R * (V - X3) - Y * HHH) % p, Z * H % p, _MADD_MULS


def _to_affine(X: int, Y: int, Z: int, p: int) -> tuple[int, int] | None:
    """(X/Z^2, Y/Z^3) after one inversion, or None for Z = 0 (infinity)."""
    if not Z:
        return None
    z_inv = pow(Z, -1, p)
    zz_inv = z_inv * z_inv % p
    return X * zz_inv % p, Y * zz_inv * z_inv % p


def _binary(k: int) -> list[tuple[int, int]]:
    """The set bits of k >= 1 as (position, 1), least significant first."""
    return [(pos, 1) for pos in range(k.bit_length()) if k >> pos & 1]


def _naf4(k: int) -> list[tuple[int, int]]:
    """The nonzero digits of the width-4 NAF of k >= 1, as (position, digit),
    least significant first.

    Each digit is odd with |d| < 8, the top one positive, and two digits are
    at least 4 positions apart (Hankerson-Menezes-Vanstone, Alg. 3.35).
    """
    digits = []
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & 15
        if d > 8:
            d -= 16
        digits.append((pos, d))
        k = (k - d) >> 4
        pos += 4
    return digits


def _odd_multiples(
    points: list[tuple[int, int]], a: int, p: int
) -> dict[int, list[tuple[int, int]]] | None:
    """The affine d * P of every point P, as table[d][i] for d in +-1, +-3,
    +-5, +-7; None if a point has order 2, 3, 5 or 7.

    2P, then 3P, 5P and 7P as 2P plus the one before, each step for all
    points at once with one inversion (`_affine_step`).  Only such an order
    makes a step's denominator zero: 2P = O, or P, 3P or 5P = +-2P.  Costs
    `_NAF_TABLE_MULS` per point, tallied by the caller.
    """
    two = _affine_step(points, None, a, p)
    table = {1: points}
    for d in (3, 5, 7):
        table[d] = two and table[d - 2] and _affine_step(table[d - 2], two, a, p)
    if table[7] is None:
        return None
    for d in (1, 3, 5, 7):
        table[-d] = [(x, -y % p) for x, y in table[d]]
    return table


def _interleaved(
    terms: list[tuple[int, int, int]], a: int, p: int
) -> tuple[int, int, int, int]:
    """sum k * (x, y) over terms (k, x, y) with k >= 1: (X, Y, Z, muls).

    Each k is recoded on its own: from `_NAF_MIN_BITS` bits on for one term,
    `_SHARED_NAF_MIN_BITS` for more, as a width-4 NAF over its point's
    column of one `_odd_multiples` table, below as binary digits of its
    point; when that table is None, every term runs binary digits.  All
    terms' additions then run under one shared sequence of doublings from
    the highest top digit down, in term order at each position (Straus's
    interleaving; Hankerson-Menezes-Vanstone, Alg. 3.51).
    One term runs the formulas of a single width-4 NAF or binary
    double-and-add, in the same order.
    """
    min_bits = _NAF_MIN_BITS if len(terms) == 1 else _SHARED_NAF_MIN_BITS
    naf_points = [(x, y) for k, x, y in terms if k.bit_length() >= min_bits]
    table = _odd_multiples(naf_points, a, p) if naf_points else None
    muls = _NAF_TABLE_MULS * len(naf_points) if table else 0
    dbl, dbl_muls = _doubling(a, p)
    adds = []  # (position, -term index, affine addend); a term's in descending position
    top = 0
    column = 0  # the next NAF term's column of the table
    for i, (k, x, y) in enumerate(terms):
        if table and k.bit_length() >= min_bits:
            digits = _naf4(k)
            adds += [(pos, -i, *table[d][column]) for pos, d in reversed(digits)]
            column += 1
        else:
            digits = _binary(k)
            adds += [(pos, -i, x, y) for pos, _ in reversed(digits)]
        top = max(top, digits[-1][0])
    if len(terms) > 1:
        adds.sort(reverse=True)  # merge the terms, in term order within one position
    muls += dbl_muls * top
    X, Y, Z = 1, 1, 0
    at = top  # the digit position the running point has reached
    for pos, _, x2, y2 in adds:
        while at > pos:
            X, Y, Z = dbl(X, Y, Z, a, p)
            at -= 1
        X, Y, Z, m = _madd(X, Y, Z, x2, y2, a, p)
        muls += m
    while at:
        X, Y, Z = dbl(X, Y, Z, a, p)
        at -= 1
    return X, Y, Z, muls


def _fixed_base(k: int, curve: CurveParams) -> tuple[int, int, int, int]:
    """k * G from the generator table: (X, Y, Z, muls).

    The general case of `_madd` runs inline; the first addition (Z = 0) and
    P + P or P + (-P) (H = 0) go through `_madd` itself.
    """
    p, a = curve.modulus.value, curve.a.residue
    mask = (1 << _WINDOW) - 1
    k %= curve.subgroup_order
    X, Y, Z = 1, 1, 0
    muls = 0
    for row in curve._generator_table:
        entry = row[k & mask]
        k >>= _WINDOW
        if entry is None:
            continue
        x2, y2 = entry
        if Z:
            ZZ = Z * Z % p
            H = (x2 * ZZ - X) % p
            if H:
                R = (y2 * Z * ZZ - Y) % p
                HH = H * H % p
                HHH = H * HH % p
                V = X * HH % p
                X = (R * R - HHH - 2 * V) % p
                Y = (R * (V - X) - Y * HHH) % p
                Z = Z * H % p
                muls += _MADD_MULS
                continue
        X, Y, Z, m = _madd(X, Y, Z, x2, y2, a, p)
        muls += m
    return X, Y, Z, muls


def _build_generator_table(curve: CurveParams) -> list[list[tuple[int, int] | None]]:
    """Rows T[j][d] = d * 2^(3j) * G for d < 8, affine, None for infinity.

    Row 0 comes from the variable-base path, each later row from three
    doublings of the one before, and each entry returns to affine with its
    own inversion.  Tallies nothing.
    """
    p, a = curve.modulus.value, curve.a.residue
    gx, gy = curve.generator.x.residue, curve.generator.y.residue
    rows = -(-curve.subgroup_order.bit_length() // _WINDOW)
    row = [(1, 1, 0)] + [
        _interleaved([(d, gx, gy)], a, p)[:3] for d in range(1, 1 << _WINDOW)
    ]
    table = []
    for j in range(rows):
        if j:
            for _ in range(_WINDOW):
                row = [_double(X, Y, Z, a, p) for X, Y, Z in row]
        table.append([_to_affine(X, Y, Z, p) for X, Y, Z in row])
    return table


def scalar_mul(k: int, pt: CurvePoint, curve: CurveParams) -> CurvePoint:
    """k * pt.  Records one TEM in the active `MulCounter`.

    The running point is Jacobian (X : Y : Z), standing for (X/Z^2, Y/Z^3),
    with Z = 0 the point at infinity (Cohen-Miyaji-Ono, ASIACRYPT'98); one
    inversion at the end returns to affine coordinates.

    * Fixed base, when pt equals `curve.generator` and `subgroup_order` n is
      set: k mod n is split into 3-bit digits d_j, and the precomputed
      affine point d_j * 2^(3j) * G of each nonzero digit is added with a
      mixed addition, with no doublings (fixed-base windowing,
      Brickell-Gordon-McCurley-Wilson, EUROCRYPT'92).  The first such call
      on a `CurveParams` builds its table of ceil(bitlen(n)/3) rows of 7
      points (about 11 ms for secp160r1), untallied.
    * Variable base, for any other point: the loop of
      `_multi_scalar_jacobian` with one term.  k of 32 bits or more is
      recoded as a width-4 NAF, whose nonzero digits are odd, below 8 in
      absolute value and at least 4 positions apart.  A per-call table of
      the affine P, 3P, 5P, 7P (`_odd_multiples`) turns each digit into one
      doubling and each nonzero digit d into one mixed addition of +-|d| P
      (Hankerson-Menezes-Vanstone, Guide to ECC, Alg. 3.35-3.36).  Shorter
      k, or a point of order 2, 3, 5 or 7, runs binary double-and-add:
      each bit doubles, each set bit adds pt.

    The field multiplications of the formulas run are tallied once, on
    return: 8 per doubling when a = -3 mod p (dbl-2001-b) and 10 otherwise,
    11 per mixed addition, 4 to return to affine; the NAF table adds 25
    (one affine doubling, 7, and three affine additions, 6 each, with
    their shares of the batch inversions).  A secp160r1 TEM of any point
    but G tallies about 1.6k, within 3x of the modeled 1189 for every
    scalar of 47 to 329 bits.  One of G tallies 509 on average, but about
    1 random scalar in 10^4 has 36 or fewer nonzero digits and tallies 389
    or less, under 1189/3.
    """
    if k < 0:
        raise ValueError("scalar must be non-negative")
    generator = pt is curve.generator or pt == curve.generator
    if not generator:  # the generator was checked when the curve was built
        _require_on_curve(pt, curve)
    counter = active_counter()
    if counter is not None:
        counter.ec_scalar_muls += 1
    if k == 0 or pt.is_infinity:
        return _INFINITY
    if generator and curve.subgroup_order is not None:
        X, Y, Z, muls = _fixed_base(k, curve)
    else:
        X, Y, Z, muls = _interleaved(
            [(k, pt.x.residue, pt.y.residue)], curve.a.residue, curve.modulus.value
        )
    return _affine_result(X, Y, Z, muls, curve, counter)


def _generator_jacobian(k: int, curve: CurveParams) -> tuple[int, int, int, int]:
    """k * G for k >= 0, as `scalar_mul` runs it on a curve with
    `subgroup_order` set, up to its return to affine: (X, Y, Z, muls), with
    the TEM recorded."""
    counter = active_counter()
    if counter is not None:
        counter.ec_scalar_muls += 1
    return _fixed_base(k, curve)


def _multi_scalar_jacobian(
    terms: list[tuple[int, int, int]], tems: int, curve: CurveParams
) -> tuple[int, int, int, int]:
    """sum k_i * (x_i, y_i) over terms (k_i, x_i, y_i), every k_i >= 1 and
    (x_i, y_i) on the curve, unchecked, up to the return to affine:
    (X, Y, Z, muls), with `tems` TEMs recorded.

    No k_i is reduced or negated, and the generator gets no fixed-base path
    here.  A caller whose points all have prime order n can pass a k above
    n/2 as the shorter term (n - k, -P), as `gas_core.decentralized_verify`
    does with its Lagrange weights.  All terms' mixed additions run under
    one shared sequence of doublings (Straus 1964; Moller, SAC 2001): about
    160 doublings for m random secp160r1 scalars, instead of 160 m.  Each
    term is recoded as in `scalar_mul`'s variable base, but with two or
    more terms a k of 8 bits or more takes the NAF (`_SHARED_NAF_MIN_BITS`):
    under shared doublings a b-bit term costs about 11 b/2 multiplications
    on binary digits and 25 + 11 b/5 on the NAF.  The NAF terms' tables come
    from one `_odd_multiples` call; if one of their points has order 2, 3,
    5 or 7, every term runs binary digits.  muls counts 25 per NAF term's
    table, 8 or 10 per shared doubling and 11 per mixed addition.  With one
    term and `_affine_result`, this is `scalar_mul` of a point other than
    the generator, in value and in tally.
    """
    counter = active_counter()
    if counter is not None:
        counter.ec_scalar_muls += tems
    if not terms:
        return 1, 1, 0, 0
    return _interleaved(terms, curve.a.residue, curve.modulus.value)


def scalar_mul_many(k: int, points: list[CurvePoint], curve: CurveParams) -> list[CurvePoint]:
    """[k * P for P in points], each what `scalar_mul(k, P, curve)` returns.

    Records one TEM per point.  k >= 0 and every point on the curve, or
    ValueError before any TEM is counted; k is not reduced, and fewer than
    2 points are `scalar_mul` itself.  Otherwise k is recoded once, as in
    `scalar_mul`'s variable base, and all points run its digits in
    lockstep in affine coordinates: on the width-4 NAF, the table of
    `_odd_multiples` comes first, and each accumulator starts from its
    point's multiple of the top digit.  Every shared doubling or addition
    takes all points' 1/(2y) or 1/(x2 - x) from one inversion (Montgomery,
    Math. Comp. 48, 1987), so there is no return to affine.  Tallies, once
    on return, 7 per point and doubling (4 for the formula, 3 for its
    share of the batch inversion) and 6 per point and addition, 25 of them
    per NAF table; a secp160r1 TEM tallies about 1.3k.  A zero denominator
    means some point met infinity, P + P or P - P, which only a point of
    small order does (for one of prime order n, 1 <= k < n never does):
    the pass is then dropped, untallied, and every point goes through
    `scalar_mul`.
    """
    if k < 0:
        raise ValueError("scalar must be non-negative")
    if len(points) < 2:
        return [scalar_mul(k, pt, curve) for pt in points]
    for pt in points:
        _require_on_curve(pt, curve)
    finite = [(pt.x.residue, pt.y.residue) for pt in points if k and not pt.is_infinity]
    xys, muls = _lockstep(k, finite, curve.a.residue, curve.modulus.value) if finite else ([], 0)
    if xys is None:
        return [scalar_mul(k, pt, curve) for pt in points]
    counter = active_counter()
    if counter is not None:
        counter.ec_scalar_muls += len(points)
        counter.field_muls += muls
    fp = curve.modulus
    found = iter([_point(_reduced(x, fp), _reduced(y, fp)) for x, y in xys])
    return [next(found) if k and not pt.is_infinity else _INFINITY for pt in points]


def _lockstep(
    k: int, points: list[tuple[int, int]], a: int, p: int
) -> tuple[list[tuple[int, int]] | None, int]:
    """k * (x, y) for every point, k >= 1, as affine ints, and the muls; None
    if a step meets infinity, P + P or P - P (a zero denominator)."""
    if k.bit_length() >= _NAF_MIN_BITS:
        digits = _naf4(k)
        table = _odd_multiples(points, a, p)
        if table is None:
            return None, 0
        muls = _NAF_TABLE_MULS
    else:
        digits = _binary(k)
        table = {1: points}
        muls = 0
    at, d = digits.pop()
    muls += _AFFINE_DOUBLE_MULS * at + _AFFINE_ADD_MULS * len(digits)
    acc = table[d]
    # the digits below the top one, highest first; (0, 0) doubles down to 0
    for pos, d in reversed([(0, 0)] + digits):
        while acc and at > pos:
            acc = _affine_step(acc, None, a, p)
            at -= 1
        if acc and d:
            acc = _affine_step(acc, table[d], a, p)
    return acc, muls * len(points)


def _affine_step(
    points: list[tuple[int, int]], addends: list[tuple[int, int]] | None, a: int, p: int
) -> list[tuple[int, int]] | None:
    """Every point doubled, or plus addends[i], with one inversion for all
    (Montgomery's trick); None if a denominator is zero."""
    if addends is None:
        addends = points
        nums = [3 * x * x + a for x, _ in points]
        dens = [y + y for _, y in points]
    else:
        nums = [y2 - y for (_, y), (_, y2) in zip(points, addends)]
        dens = [x2 - x for (x, _), (x2, _) in zip(points, addends)]
    suffix, acc = [], 1  # suffix[-1 - i] is the product of the dens after i
    for den in reversed(dens):
        suffix.append(acc)
        acc = acc * den % p
    if not acc:
        return None
    inv = pow(acc, -1, p)  # then 1 / the product of the dens from i on
    out = []
    for (x, y), (x2, _), num, den, suf in zip(points, addends, nums, dens, reversed(suffix)):
        lam = num * inv * suf % p
        inv = inv * den % p
        x3 = (lam * lam - x - x2) % p
        out.append((x3, (lam * (x - x3) - y) % p))
    return out


def _affine_result(
    X: int, Y: int, Z: int, muls: int, curve: CurveParams, counter: MulCounter | None
) -> CurvePoint:
    """The affine point of (X : Y : Z); tallies muls and the return to affine."""
    fp = curve.modulus
    xy = _to_affine(X, Y, Z, fp.value)
    if xy is None:
        result = _INFINITY
    else:
        result = _point(_reduced(xy[0], fp), _reduced(xy[1], fp))
        muls += _TO_AFFINE_MULS
    if counter is not None:
        counter.field_muls += muls
    return result


def _jacobian_is(X: int, Y: int, Z: int, muls: int, pt: CurvePoint, curve: CurveParams) -> bool:
    """Whether `_affine_result` of (X : Y : Z) would equal pt, without its
    inversion; tallies what it would.

    A finite pt equals (X/Z^2, Y/Z^3) iff both its coordinates are elements
    of the curve's prime p, Z != 0, X = x Z^2 and Y = y Z^3 (mod p): 4
    multiplications, the 4 of the return to affine, tallied whatever the
    verdict.  Infinity (Z = 0) equals only infinity.
    """
    if not Z:
        tally_muls(muls)
        return pt.x is None
    tally_muls(muls + _TO_AFFINE_MULS)
    x, y, p = pt.x, pt.y, curve.modulus.value
    if x is None or x.modulus.value != p or y.modulus.value != p:
        return False
    ZZ = Z * Z % p
    return (x.residue * ZZ - X) % p == 0 and (y.residue * ZZ * Z - Y) % p == 0


def brute_force_order(curve: CurveParams) -> int:
    """Point count by exhaustive enumeration (test oracle, modulus <= 1e6)."""
    p = curve.modulus.value
    if p > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"modulus {p} too large to enumerate")
    square_counts = [0] * p
    for y in range(p):
        square_counts[y * y % p] += 1
    a, b = curve.a.residue, curve.b.residue
    count = 1  # infinity
    for x in range(p):
        count += square_counts[(x * x * x + a * x + b) % p]
    return count


# ---------------------------------------------------------------------------
# Parameter files: JSON with decimal-string fields
# {p, A, B, Gx, Gy, order, subgroup_order}.

BUILTIN_CURVES = ("test2017", "secp160r1", "toy5")


def curve_from_dict(data: dict, name: str = "") -> CurveParams:
    data = json_object(data, "curve file", ("p", "A", "B", "Gx", "Gy"))
    p = Prime(json_int(data["p"], "p"))
    a, b, gx, gy = (p.element(json_int(data[k], k)) for k in ("A", "B", "Gx", "Gy"))
    order, sub = (
        None if data.get(k) is None else json_int(data[k], k)
        for k in ("order", "subgroup_order")
    )
    label = "" if data.get("name") is None else json_str(data["name"], "name")
    return CurveParams(
        a=a,
        b=b,
        modulus=p,
        generator=CurvePoint(gx, gy),
        order=order,
        subgroup_order=sub,
        name=name or label,
    )


def curve_to_dict(curve: CurveParams) -> dict:
    return {
        "name": curve.name,
        "p": str(curve.modulus.value),
        "A": str(curve.a.residue),
        "B": str(curve.b.residue),
        "Gx": str(curve.generator.x.residue),
        "Gy": str(curve.generator.y.residue),
        "order": str(curve.order) if curve.order is not None else None,
        "subgroup_order": (
            str(curve.subgroup_order) if curve.subgroup_order is not None else None
        ),
    }


def load_curve(path) -> CurveParams:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return curve_from_dict(data, name=str(path))


@lru_cache(maxsize=None)
def builtin_curve(name: str) -> CurveParams:
    if name not in BUILTIN_CURVES:
        raise ValueError(f"unknown builtin curve {name!r}; valid: {BUILTIN_CURVES}")
    text = resources.files("gaskit.data").joinpath(f"{name}.json").read_text("utf-8")
    return curve_from_dict(json.loads(text), name=name)
