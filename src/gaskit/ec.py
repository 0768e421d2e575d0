"""Short-Weierstrass elliptic-curve group over a prime field.

Points cross the API in affine coordinates (`CurvePoint` over
`FieldElement`); `add` is the chord-tangent law on them.  `scalar_mul`, the
one scalar-multiplication path, works on plain integers in Jacobian
coordinates with mixed addition and a single final inversion, and tallies
its field multiplications in bulk once per call.  Protocol scalars are
expected to live modulo `CurveParams.subgroup_order`: the builtin parameter
sets publish a generator of that prime-order subgroup, and the secret
sharing layer uses the same prime as its field modulus so that Lagrange
arithmetic and scalar arithmetic agree.

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
from functools import lru_cache
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


def is_probable_subgroup(curve: CurveParams) -> bool:
    if scalar_mul(curve.subgroup_order, curve.generator, curve, _count=False) != _INFINITY:
        return False
    return curve.order is None or curve.order % curve.subgroup_order == 0


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


def _double(X: int, Y: int, Z: int, a: int, p: int) -> tuple[int, int, int]:
    """2(X : Y : Z) in Jacobian coordinates; Y = 0 or Z = 0 gives Z3 = 0."""
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    M = (3 * X * X + a * ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def scalar_mul(
    k: int, pt: CurvePoint, curve: CurveParams, *, _count: bool = True
) -> CurvePoint:
    """k * pt by left-to-right double-and-add.  Records one TEM when counting.

    The running point is Jacobian (X : Y : Z), standing for (X/Z^2, Y/Z^3),
    with Z = 0 the point at infinity (Cohen-Miyaji-Ono, ASIACRYPT'98).  Each
    bit doubles it; each set bit adds the affine input with a mixed
    addition.  One inversion at the end returns to affine coordinates.  The
    field multiplications of those formulas are tallied once, on return;
    `_count=False` tallies nothing.
    """
    if k < 0:
        raise ValueError("scalar must be non-negative")
    _require_on_curve(pt, curve)
    counter = active_counter() if _count else None
    if counter is not None:
        counter.ec_scalar_muls += 1
    if k == 0 or pt.is_infinity:
        return _INFINITY
    p = curve.modulus.value
    a = curve.a.residue
    x2, y2 = pt.x.residue, pt.y.residue
    X, Y, Z = x2, y2, 1
    muls = 0
    for bit in bin(k)[3:]:
        X, Y, Z = _double(X, Y, Z, a, p)
        muls += _DOUBLE_MULS
        if bit == "0":
            continue
        if not Z:  # infinity + pt
            X, Y, Z = x2, y2, 1
            continue
        ZZ = Z * Z % p
        H = (x2 * ZZ - X) % p
        R = (y2 * Z * ZZ - Y) % p
        if not H:
            muls += _MADD_CHECK_MULS
            if R:
                Z = 0  # (X : Y : Z) = -pt
            else:
                X, Y, Z = _double(x2, y2, 1, a, p)
                muls += _DOUBLE_MULS
            continue
        HH = H * H % p
        HHH = H * HH % p
        V = X * HH % p
        X = (R * R - HHH - 2 * V) % p
        Y = (R * (V - X) - Y * HHH) % p
        Z = Z * H % p
        muls += _MADD_MULS
    if not Z:
        result = _INFINITY
    else:
        z_inv = pow(Z, -1, p)
        zz_inv = z_inv * z_inv % p
        result = curve.point(X * zz_inv, Y * zz_inv * z_inv)
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
