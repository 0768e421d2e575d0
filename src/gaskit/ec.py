"""Short-Weierstrass elliptic-curve group over a prime field.

Points cross the API in affine coordinates (`CurvePoint` over
`FieldElement`, infinity as `CurvePoint(None, None)`).  `scalar_mul` picks
the loop for a point.  The loops' entries work on plain integers, record one
TEM per scalar multiplication (`field.tally_tems`) and tally their field
multiplications in bulk once per call.  There are three loops:

* fixed base, for `_generator_jacobian`, a multiple of the curve's own
  generator when `subgroup_order` is set: k is reduced mod n and split into
  w-bit digits, and one precomputed affine point per nonzero digit is
  added, with no doublings.  A member's multiple runs on w = `_WINDOW` (3),
  the table of ceil(bitlen(n)/3) rows of 7 points (54 rows, about 60 KB,
  for secp160r1); `gas_core.gm_verify`'s recomputations run on w =
  `_GM_WINDOW` (8), ceil(bitlen(n)/8) rows of 255 points (21 rows, about
  0.8 MB, for secp160r1).  In each, the top row stops at the top digit of
  n - 1 (secp160r1: 2 of 7 points, 1 of 255).  Each table is built once
  per `CurveParams`, on its first use, and is held on that instance.
  Tallies 11 per mixed addition and 4 to return to affine;
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
* lockstep, for `_mul_many`, k P_i for one k and two or more points (a
  member's pairwise ECDH): k is recoded once, in the same way, and every
  point runs its digits together in affine coordinates, each doubling or
  addition taking all points' denominators from one inversion.  Tallies,
  per point, 7 per doubling and 6 per addition.

Both build their NAF tables with `_odd_multiples`.  A point of order 2, 3,
5 or 7 has none: the interleaved loop then runs every term on binary
digits, and the lockstep, like any of its steps that meets a zero
denominator, gives up untallied: `_mul_many` then runs each point as a
one-term interleaved loop, as it does a lone point.

A verifier that only compares its result with a given point keeps it in
Jacobian coordinates: `_jacobian_at` tests X = x Z^2 and Y = y Z^3 on the
point's integers with the 4 multiplications of the return to affine,
tallied the same, and no inversion.  `gas_core.gm_verify` and
`decentralized_verify` use it.

A point from outside is checked once, on its integers, by
`check_affine_point`, where `gas_core` makes a public share or a config,
and is kept as those integers; on test2017, whose small subgroup is
listed, an honest point costs one set lookup.

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
    FieldElement, Prime, batch_inverse, cached_prime, json_int,
    json_object, json_str, tally_muls, tally_tems,
)

__all__ = [
    "CurvePoint",
    "CurveParams",
    "is_on_curve",
    "check_affine_point",
    "scalar_mul",
    "brute_force_order",
    "builtin_curve",
    "load_curve",
    "curve_from_dict",
    "curve_to_dict",
    "BUILTIN_CURVES",
    "MAX_CURVE_BITS",
]

_BRUTE_FORCE_LIMIT = 10**6

# Bit length cap of a curve file's p and subgroup_order (P-521), checked
# before any primality test: Miller-Rabin costs about 7x per doubling.
MAX_CURVE_BITS = 521

# Largest subgroup order n whose points (x, y) `check_affine_point` looks up
# in a set (test2017's n = 37); above it, or with no group order, it multiplies by n.
_SUBGROUP_LIST_MAX = 1 << 16


@dataclass(init=False, repr=False, unsafe_hash=True, slots=True)
class CurvePoint:
    """Affine point (x, y), equal by value, or the point at infinity, equal only to itself."""

    x: FieldElement | None
    y: FieldElement | None

    def __init__(self, x: FieldElement | None, y: FieldElement | None):
        if (x is None) != (y is None):
            raise ValueError("both coordinates or neither")
        # object's setter, past the raising `__setattr__`
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("CurvePoint is immutable")

    def __delattr__(self, name):
        raise AttributeError("CurvePoint is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the raising __setattr__
        return CurvePoint, (self.x, self.y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x.residue}, {self.y.residue})"


_INFINITY = CurvePoint(None, None)


@dataclass(frozen=True)
class CurveParams:
    """y^2 = x^3 + Ax + B over F_p, plus a published generator.

    `order` is the full group order (optional until computed for toy
    curves), which must lie in the Hasse interval |order - p - 1| <= 2
    sqrt(p); `subgroup_order` is the prime order of the generator, the
    modulus protocol scalars are drawn from.  Where n^2 <= 16p, more than
    one multiple of n fits that interval, so a stated order must equal
    `brute_force_order`, and p above its limit is refused.
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
        if self.order is not None and (self.order - p - 1) ** 2 > 4 * p:
            raise ValueError(
                f"order {self.order} is outside the Hasse interval p + 1 +- 2 sqrt(p), p = {p}"
            )
        if self.subgroup_order is not None:
            n, g = self.subgroup_order, self.generator
            # The variable-base loop on purpose: the fixed-base loop reduces k
            # mod subgroup_order, which is what this check has yet to justify.
            if (n < 1 or _interleaved([(n, g.x.residue, g.y.residue)], self.a.residue, p)[2]
                    or self.order is not None and self.order % n):
                raise ValueError("subgroup_order does not annihilate the generator")
            try:  # cached, so `scalar_field` reuses this test
                cached_prime(self.subgroup_order)
            except ValueError:
                raise ValueError(
                    f"subgroup_order {self.subgroup_order} is not a prime >= 3"
                ) from None
            if self.order is not None and n * n <= 16 * p:
                if p > _BRUTE_FORCE_LIMIT:
                    raise ValueError(
                        f"order {self.order} cannot be checked: n = {n} leaves several "
                        f"multiples in the Hasse interval and p = {p} is too large to count"
                    )
                count = brute_force_order(self)
                if count != self.order:
                    raise ValueError(f"order {self.order} is not the point count {count}")

    def scalar_field(self) -> Prime:
        """The prime scalar ring; requires a published subgroup order."""
        if self.subgroup_order is None:
            raise ValueError(f"curve {self.name or '<anonymous>'} has no subgroup_order")
        return cached_prime(self.subgroup_order)

    @cached_property
    def _generator_table(self) -> list[list[tuple[int, int] | None]]:
        """Fixed-base table of `scalar_mul`, built on first use; see there."""
        return _build_generator_table(self, _WINDOW)

    @cached_property
    def _gm_table(self) -> list[list[tuple[int, int] | None]]:
        """The `_GM_WINDOW` fixed-base table of `gas_core.gm_verify`, built
        on its first check, never at load."""
        return _build_generator_table(self, _GM_WINDOW)

    @cached_property
    def _subgroup_points(self) -> frozenset[tuple[int, int]] | None:
        """Every affine point (x, y) of the generator's subgroup, or None.

        Listed when the cofactor, order // subgroup_order, is above 1 and
        the subgroup order n is at most `_SUBGROUP_LIST_MAX`: built on first
        use, untallied, from 2G, 3G, ..., (n - 1)G, each the one before plus
        the generator.  test2017 lists its 36 points.  None otherwise.
        """
        n = self.subgroup_order
        if n is None or self.order is None or self.order // n <= 1 or n > _SUBGROUP_LIST_MAX:
            return None
        p, a = self.modulus.value, self.a.residue
        g = [(self.generator.x.residue, self.generator.y.residue)]
        points, acc = set(g), g
        for k in range(2, n):  # k G = (k - 1) G + G, doubling G for k = 2
            acc = _affine_step(acc, None if k == 2 else g, a, p)
            points.add(acc[0])
        return frozenset(points)


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


def check_affine_point(x: int, y: int, curve: CurveParams) -> None:
    """Refuse the integers (x, y) unless they are an affine point of the
    generator's subgroup.

    The one check of a point from outside, on plain ints, in `gas_core`'s
    `public_share_from_frame`, `PublicShare(member_id, point, curve)` and
    `GroupConfig` (on Q), which name the point's owner.  ValueError unless
    both lie in [0, p), satisfy the curve's equation and, when
    `subgroup_order` n is set, lie in the generator's subgroup.  Infinity
    has no affine encoding, so it never passes.

    The subgroup test refuses a point of small order, such as test2017's
    T = (1981, 1664) of order 5, from which a peer could learn the other
    side's ECDH scalar mod 5 (SEC 1 v2, section 3.2.2).  With cofactor 1
    (order = n, as on secp160r1) every point passes it at no cost.  A pair
    in `CurveParams._subgroup_points` passes every step: one set lookup
    accepts it, and any other runs the steps, which name its fault.
    Unlisted (n above 2^16, or no group order), n * (x, y) must be infinity.
    Nothing here is tallied.
    """
    points = curve._subgroup_points
    if points is not None and (x, y) in points:
        return
    if not _satisfies(x, y, curve):
        p = curve.modulus.value
        if 0 <= x < p and 0 <= y < p:
            raise ValueError(f"point ({x}, {y}) is off-curve")
        raise ValueError(f"{y if 0 <= x < p else x} out of field range [0, {p})")
    n = curve.subgroup_order
    if points is not None or (
        n is not None and curve.order != n
        and _interleaved([(n, x, y)], curve.a.residue, curve.modulus.value)[2]
    ):
        raise ValueError(f"point ({x}, {y}) is outside the subgroup of order {n}")


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

# Digit width of a member's fixed-base path.  4-bit windows are faster
# still, but then a secp160r1 TEM can tally fewer than a third of the
# modeled 1189 field multiplications, the floor tests/test_cost_model.py
# holds for a device.
_WINDOW = 3

# Digit width of the GM's fixed-base table, for `gas_core.gm_verify`.  The
# GM is no device of that model (the simulator gives it `GM_SPEEDUP`), and
# its table is built once per curve and process.  Measured on secp160r1
# (CPython 3.11, 2-vCPU KVM guest), per check, table build and table size:
# w = 6 87 us, 11 ms, 0.24 MB; w = 7 76 us, 19 ms, 0.43 MB; w = 8 66 us,
# 34 ms, 0.81 MB; w = 3, the members' table, 161 us.
_GM_WINDOW = 8

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
        dbl, dbl_muls = _doubling(a, p)
        return (*dbl(x2, y2, 1, a, p), _MADD_CHECK_MULS + dbl_muls)
    HH = H * H % p
    HHH = H * HH % p
    V = X * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    return X3, (R * (V - X3) - Y * HHH) % p, Z * H % p, _MADD_MULS


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
    """sum k * (x, y) over terms (k, x, y), k >= 1, infinity for none: (X, Y, Z, muls).

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


def _fixed_base(
    k: int, curve: CurveParams, table: list[list[tuple[int, int] | None]], window: int
) -> tuple[int, int, int, int]:
    """k * G from the generator table `_build_generator_table` built with
    this window: (X, Y, Z, muls).

    The general case of `_madd` runs inline; the first addition (Z = 0) and
    P + P or P + (-P) (H = 0) go through `_madd` itself.
    """
    p, a = curve.modulus.value, curve.a.residue
    mask = (1 << window) - 1
    k %= curve.subgroup_order
    X, Y, Z = 1, 1, 0
    muls = 0
    for row in table:
        entry = row[k & mask]
        k >>= window
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


def _build_generator_table(
    curve: CurveParams, window: int
) -> list[list[tuple[int, int] | None]]:
    """Rows T[j][d] = d * B_j, B_j = 2^(wj) * G, for d < 2^w and w = window,
    affine, None for infinity; ceil(bitlen(n)/w) rows.  The top row stops
    at the largest top digit of a scalar below n, (n - 1) >> w(rows - 1):
    `_fixed_base` reduces k mod n, so it never reads further.

    Each B_j is w doublings of the one before, and all return to affine
    with one `field.batch_inverse`; then each row runs d B_j = (d - 1) B_j
    + B_j, one mixed addition per entry, and returns to affine with one
    `field.batch_inverse`.  B_j is never infinity: n is an odd prime.
    Tallies nothing.
    """
    p, a = curve.modulus.value, curve.a.residue
    dbl, _ = _doubling(a, p)
    n = curve.subgroup_order
    rows = -(-n.bit_length() // window)
    top = (n - 1) >> window * (rows - 1)
    bases = [(curve.generator.x.residue, curve.generator.y.residue, 1)]
    for _ in range(rows - 1):
        X, Y, Z = bases[-1]
        for _ in range(window):
            X, Y, Z = dbl(X, Y, Z, a, p)
        bases.append((X, Y, Z))
    table = []
    for j, (bx, by) in enumerate(_batch_to_affine(bases, p)):
        row = [(1, 1, 0), (bx, by, 1)]
        X, Y, Z = row[1]
        for _ in range((top + 1 if j == rows - 1 else 1 << window) - 2):
            X, Y, Z, _ = _madd(X, Y, Z, bx, by, a, p)
            row.append((X, Y, Z))
        table.append(_batch_to_affine(row, p))
    return table


def _batch_to_affine(
    points: list[tuple[int, int, int]], p: int
) -> list[tuple[int, int] | None]:
    """`_affine_xy` of every Jacobian point, untallied, with one inversion for all."""
    out = []
    for (X, Y, Z), z_inv in zip(points, batch_inverse([Z for _, _, Z in points], p)):
        if not Z:
            out.append(None)
            continue
        zz_inv = z_inv * z_inv % p
        out.append((X * zz_inv % p, Y * zz_inv * z_inv % p))
    return out


def scalar_mul(k: int, pt: CurvePoint, curve: CurveParams) -> CurvePoint:
    """k * pt.  Records one TEM in the active `MulCounter`, itself for k = 0
    or infinity, else in the loop it picks; returns via `_affine_result`.

    The running point is Jacobian (X : Y : Z), standing for (X/Z^2, Y/Z^3),
    with Z = 0 the point at infinity (Cohen-Miyaji-Ono, ASIACRYPT'98); one
    inversion at the end returns to affine coordinates.

    * Fixed base, when pt equals `curve.generator` and `subgroup_order` n is
      set: k mod n is split into 3-bit digits d_j (`_WINDOW`), and the
      precomputed affine point d_j * 2^(3j) * G of each nonzero digit is
      added with a mixed addition, with no doublings (fixed-base windowing,
      Brickell-Gordon-McCurley-Wilson, EUROCRYPT'92).  The first such call
      on a `CurveParams` builds its table of ceil(bitlen(n)/3) rows of 7
      points, the top one shorter (about 4 ms for secp160r1), untallied.
      This is a member's TEM, the modeled device cost; `gas_core.gm_verify`
      runs the same loop on the GM's 8-bit table (`_GM_WINDOW`), not from
      here.
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
    if not generator and not is_on_curve(pt, curve):  # the generator was, at load
        raise ValueError(f"point {pt!r} is not on curve {curve.name or '<anonymous>'}")
    if k == 0 or pt.is_infinity:
        tally_tems(1)
        return _INFINITY
    if generator and curve.subgroup_order is not None:
        return _affine_result(*_generator_jacobian(k, curve), curve)
    terms = [(k, pt.x.residue, pt.y.residue)]
    return _affine_result(*_multi_scalar_jacobian(terms, curve), curve)


def _generator_jacobian(
    k: int, curve: CurveParams, gm: bool = False
) -> tuple[int, int, int, int]:
    """k * G for k >= 0, as `scalar_mul` runs it on a curve with
    `subgroup_order` set, up to its return to affine: (X, Y, Z, muls), with
    the TEM recorded.  With `gm`, the same point from the GM's wider table
    (`CurveParams._gm_table`), in fewer mixed additions."""
    tally_tems(1)
    table, window = (curve._gm_table, _GM_WINDOW) if gm else (curve._generator_table, _WINDOW)
    return _fixed_base(k, curve, table, window)


def _multi_scalar_jacobian(
    terms: list[tuple[int, int, int]], curve: CurveParams
) -> tuple[int, int, int, int]:
    """sum k_i * (x_i, y_i) over terms (k_i, x_i, y_i), every k_i >= 1 and
    (x_i, y_i) on the curve, unchecked, up to the return to affine:
    (X, Y, Z, muls), with one TEM recorded per term.

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
    tally_tems(len(terms))
    return _interleaved(terms, curve.a.residue, curve.modulus.value)


def _mul_many(
    k: int, points: list[tuple[int, int]], curve: CurveParams
) -> list[tuple[int, int] | None]:
    """[k * (x, y) for (x, y) in points] as affine ints, each what
    `scalar_mul` returns for that point, None for infinity.

    k >= 1, not reduced, and every point affine and on the curve, unchecked.
    Two or more points run `_lockstep`, one TEM per point.  One point, and
    every point when a step of that pass meets a zero denominator, runs
    instead as the one term of `_multi_scalar_jacobian`, with `scalar_mul`'s
    variable-base value, TEM and tally.
    """
    shared = _lockstep(k, points, curve) if len(points) > 1 else None
    if shared is None:
        p = curve.modulus.value
        shared = [_affine_xy(*_multi_scalar_jacobian([(k, x, y)], curve), p) for x, y in points]
    return shared


def _lockstep(
    k: int, points: list[tuple[int, int]], curve: CurveParams
) -> list[tuple[int, int]] | None:
    """`_mul_many`'s pass over its points, or None.

    k is recoded once, as in `scalar_mul`'s variable base, and all points
    run its digits in lockstep in affine coordinates: on the width-4 NAF,
    the table of `_odd_multiples` comes first, and each accumulator starts
    from its point's multiple of the top digit.  Every shared doubling or
    addition takes all points' 1/(2y) or 1/(x2 - x) from one inversion
    (Montgomery, Math. Comp. 48, 1987), so there is no return to affine.
    Records one TEM per point and tallies, once on return, 7 per point and
    doubling (4 for the formula, 3 for its share of the batch inversion)
    and 6 per point and addition, 25 of them per NAF table; a secp160r1 TEM
    tallies about 1.3k.  A zero denominator means some running multiple
    met infinity, P + P or P - P: a point of small order can do that, and
    so, rarely, can one of prime order n (on secp160r1, k = n - 14 does).
    The pass then records nothing and returns None, for `_mul_many`'s
    per-point fallback.
    """
    a, p = curve.a.residue, curve.modulus.value
    if k.bit_length() >= _NAF_MIN_BITS:
        digits = _naf4(k)
        table = _odd_multiples(points, a, p)
        if table is None:
            return None
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
    if acc is not None:
        tally_tems(len(points))
        tally_muls(muls * len(points))
    return acc


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


def _affine_xy(X: int, Y: int, Z: int, muls: int, p: int) -> tuple[int, int] | None:
    """The affine ints (X/Z^2, Y/Z^3) of (X : Y : Z) after one inversion,
    None for Z = 0 (infinity); tallies muls and the return to affine."""
    tally_muls(muls + _TO_AFFINE_MULS if Z else muls)
    if not Z:
        return None
    z_inv = pow(Z, -1, p)
    zz_inv = z_inv * z_inv % p
    return X * zz_inv % p, Y * zz_inv * z_inv % p


def _affine_result(X: int, Y: int, Z: int, muls: int, curve: CurveParams) -> CurvePoint:
    """`_affine_xy` of (X : Y : Z) as a point, with its tally."""
    fp = curve.modulus
    xy = _affine_xy(X, Y, Z, muls, fp.value)
    if xy is None:
        return _INFINITY
    return CurvePoint(FieldElement(xy[0], fp), FieldElement(xy[1], fp))


def _jacobian_at(X: int, Y: int, Z: int, muls: int, x: int, y: int, p: int) -> bool:
    """Whether (X : Y : Z) is the affine (x, y) mod p, on plain ints: Z !=
    0, X = x Z^2 and Y = y Z^3 (mod p), 4 multiplications, the 4 of the
    return to affine, tallied whatever the verdict.  Z = 0 (infinity) is
    no affine point, and tallies only muls.
    """
    if not Z:
        tally_muls(muls)
        return False
    tally_muls(muls + _TO_AFFINE_MULS)
    ZZ = Z * Z % p
    return (x * ZZ - X) % p == 0 and (y * ZZ * Z - Y) % p == 0


def brute_force_order(curve: CurveParams) -> int:
    """Point count by exhaustive enumeration (test oracle, modulus <= 1e6),
    run once per (p, A, B) in a process: `gaskit gen-params` counts a curve,
    and the `CurveParams` it builds with that order reuses the count."""
    p = curve.modulus.value
    if p > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"modulus {p} too large to enumerate")
    return _point_count(p, curve.a.residue, curve.b.residue)


@lru_cache(maxsize=16)
def _point_count(p: int, a: int, b: int) -> int:
    square_counts = [0] * p
    for y in range(p):
        square_counts[y * y % p] += 1
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
    p = json_int(data["p"], "p")
    order, sub = (
        None if data.get(k) is None else json_int(data[k], k)
        for k in ("order", "subgroup_order")
    )
    for key, value in (("p", p), ("subgroup_order", sub)):
        if value is not None and value.bit_length() > MAX_CURVE_BITS:
            raise ValueError(f"{key} has {value.bit_length()} bits, above {MAX_CURVE_BITS}")
    p = Prime(p)
    a, b, gx, gy = (p.element(json_int(data[k], k)) for k in ("A", "B", "Gx", "Gy"))
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
