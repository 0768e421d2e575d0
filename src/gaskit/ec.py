"""Short-Weierstrass elliptic-curve group over a prime field.

Points cross the API in affine coordinates (`CurvePoint` over
`FieldElement`); `add` is the chord-tangent law on them.  `scalar_mul` works
on plain integers in Jacobian coordinates with mixed addition and a single
final inversion, and tallies its field multiplications in bulk once per
call.  It has two paths:

* fixed base, for the curve's own generator when `subgroup_order` is set:
  k is reduced mod n and split into 3-bit digits, and one precomputed
  affine point per nonzero digit is added, with no doublings.  The table
  (ceil(bitlen(n)/3) rows of 7 points; 54 rows, about 60 KB, for
  secp160r1) is built once per `CurveParams`, on the first such call, and
  is held on that instance;
* variable base, for every other point: left-to-right double-and-add.

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

from .field import FieldElement, Prime, _tally_muls, active_counter, cached_prime

__all__ = [
    "CurvePoint",
    "CurveParams",
    "is_on_curve",
    "add",
    "negate",
    "scalar_mul",
    "brute_force_order",
    "builtin_curve",
    "load_curve",
    "curve_from_dict",
    "curve_to_dict",
    "BUILTIN_CURVES",
]

_BRUTE_FORCE_LIMIT = 10**6


class CurvePoint:
    """Affine point (x, y) or the point at infinity."""

    __slots__ = ("x", "y")

    def __init__(self, x: FieldElement | None, y: FieldElement | None):
        if (x is None) != (y is None):
            raise ValueError("both coordinates or neither")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("CurvePoint is immutable")

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return _INFINITY

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurvePoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity:
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x.residue}, {self.y.residue})"


_INFINITY = CurvePoint(None, None)


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
        if self.subgroup_order is not None:
            if not is_probable_subgroup(self):
                raise ValueError("subgroup_order does not annihilate the generator")

    @property
    def coord_byte_length(self) -> int:
        return self.modulus.byte_length

    def scalar_field(self) -> Prime:
        """The prime scalar ring; requires a published subgroup order."""
        if self.subgroup_order is None:
            raise ValueError(f"curve {self.name or '<anonymous>'} has no subgroup_order")
        return cached_prime(self.subgroup_order)

    def point(self, x: int, y: int) -> CurvePoint:
        return CurvePoint(
            FieldElement(x, self.modulus), FieldElement(y, self.modulus)
        )

    @cached_property
    def _generator_table(self) -> list[list[tuple[int, int] | None]]:
        """Fixed-base table of `scalar_mul`, built on first use; see there."""
        return _build_generator_table(self)


def is_probable_subgroup(curve: CurveParams) -> bool:
    # The variable-base path on purpose: the fixed-base path reduces k mod
    # subgroup_order, which is what this check has yet to justify.
    n, g = curve.subgroup_order, curve.generator
    p, a = curve.modulus.value, curve.a.residue
    if n < 1 or _var_base(n, g.x.residue, g.y.residue, a, p)[2]:
        return False
    return curve.order is None or curve.order % n == 0


def is_on_curve(pt: CurvePoint, curve: CurveParams) -> bool:
    """Raw-integer membership check (does not touch the mul counter)."""
    if pt.is_infinity:
        return True
    p = curve.modulus.value
    if pt.x.modulus.value != p:
        return False
    x, y = pt.x.residue, pt.y.residue
    return (y * y - (x * x * x + curve.a.residue * x + curve.b.residue)) % p == 0


def _require_on_curve(pt: CurvePoint, curve: CurveParams) -> None:
    if not is_on_curve(pt, curve):
        raise ValueError(f"point {pt!r} is not on curve {curve.name or '<anonymous>'}")


def negate(pt: CurvePoint) -> CurvePoint:
    if pt.is_infinity:
        return pt
    return CurvePoint(pt.x, -pt.y)


def add(p1: CurvePoint, p2: CurvePoint, curve: CurveParams) -> CurvePoint:
    """Chord-tangent group law; infinity is the identity.

    Tallies the affine formula's field multiplications: 3 for an addition,
    6 for a doubling (the one inversion is not counted).
    """
    _require_on_curve(p1, curve)
    _require_on_curve(p2, curve)
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    p = curve.modulus.value
    x1, y1, x2, y2 = p1.x.residue, p1.y.residue, p2.x.residue, p2.y.residue
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return _INFINITY
        # doubling: lambda = (3x^2 + A) / (2y)
        lam = (3 * x1 * x1 + curve.a.residue) * pow(2 * y1, -1, p) % p
        muls = 6
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        muls = 3
    x3 = (lam * lam - x1 - x2) % p
    _tally_muls(muls)
    return curve.point(x3, lam * (x1 - x3) - y1)


# Field multiplications per Jacobian formula, tallied in bulk by scalar_mul.
_DOUBLE_MULS = 10  # dbl-1998-cmo-2: 3M + 6S + 1*a
_MADD_MULS = 11  # madd-2004-hmv: 8M + 3S, adding an affine point
_MADD_CHECK_MULS = 4  # the part of madd that finds P + P or P + (-P)
_TO_AFFINE_MULS = 4  # x = X/Z^2, y = Y/Z^3 after one inversion

# Digit width of the fixed-base path.  4-bit windows are faster still, but
# then a secp160r1 TEM can tally fewer than a third of the modeled 1189
# field multiplications, the floor tests/test_cost_model.py holds.
_WINDOW = 3


def _double(X: int, Y: int, Z: int, a: int, p: int) -> tuple[int, int, int]:
    """2(X : Y : Z) in Jacobian coordinates; Y = 0 or Z = 0 gives Z3 = 0."""
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    M = (3 * X * X + a * ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


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


def _var_base(k: int, x2: int, y2: int, a: int, p: int) -> tuple[int, int, int, int]:
    """k * (x2, y2) for k >= 1 by left-to-right double-and-add: (X, Y, Z, muls)."""
    X, Y, Z = x2, y2, 1
    muls = 0
    for bit in bin(k)[3:]:
        X, Y, Z = _double(X, Y, Z, a, p)
        muls += _DOUBLE_MULS
        if bit == "1":
            X, Y, Z, m = _madd(X, Y, Z, x2, y2, a, p)
            muls += m
    return X, Y, Z, muls


def _fixed_base(k: int, curve: CurveParams) -> tuple[int, int, int, int]:
    """k * G from the generator table: (X, Y, Z, muls)."""
    p, a = curve.modulus.value, curve.a.residue
    mask = (1 << _WINDOW) - 1
    k %= curve.subgroup_order
    X, Y, Z = 1, 1, 0
    muls = 0
    for row in curve._generator_table:
        entry = row[k & mask]
        k >>= _WINDOW
        if entry is not None:
            X, Y, Z, m = _madd(X, Y, Z, *entry, a, p)
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
    row = [(1, 1, 0)] + [_var_base(d, gx, gy, a, p)[:3] for d in range(1, 1 << _WINDOW)]
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
    * Variable base, for any other point: each bit of k doubles, each set
      bit adds pt with a mixed addition.

    The field multiplications of the formulas run are tallied once, on
    return: 10 per doubling, 11 per mixed addition, 4 to return to affine.
    A secp160r1 TEM of any point but G tallies about 2.4k, within 3x of
    the modeled 1189 for every scalar of 41 to 161 bits.  One of G tallies
    509 on average, but about 1 random scalar in 10^4 has 36 or fewer
    nonzero digits and tallies 389 or less, under 1189/3.
    """
    if k < 0:
        raise ValueError("scalar must be non-negative")
    _require_on_curve(pt, curve)
    counter = active_counter()
    if counter is not None:
        counter.ec_scalar_muls += 1
    if k == 0 or pt.is_infinity:
        return _INFINITY
    p = curve.modulus.value
    if curve.subgroup_order is not None and pt == curve.generator:
        X, Y, Z, muls = _fixed_base(k, curve)
    else:
        X, Y, Z, muls = _var_base(k, pt.x.residue, pt.y.residue, curve.a.residue, p)
    xy = _to_affine(X, Y, Z, p)
    if xy is None:
        result = _INFINITY
    else:
        result = curve.point(*xy)
        muls += _TO_AFFINE_MULS
    if counter is not None:
        counter.field_muls += muls
    return result


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
    try:
        p = Prime(int(data["p"]))
        a = FieldElement(int(data["A"]), p)
        b = FieldElement(int(data["B"]), p)
        gx = FieldElement(int(data["Gx"]), p)
        gy = FieldElement(int(data["Gy"]), p)
    except KeyError as exc:
        raise ValueError(f"curve file missing field {exc}") from exc
    order = int(data["order"]) if data.get("order") else None
    sub = int(data["subgroup_order"]) if data.get("subgroup_order") else None
    return CurveParams(
        a=a,
        b=b,
        modulus=p,
        generator=CurvePoint(gx, gy),
        order=order,
        subgroup_order=sub,
        name=name or data.get("name", ""),
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
