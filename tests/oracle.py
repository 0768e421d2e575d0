"""Reference point arithmetic that only the tests use.

The package only computes scalar multiples (`ec.scalar_mul`, and
`ec._mul_many` on ints) and never adds two given points, so the affine
chord-tangent law, double-and-add over it and the constructor of a point
from two ints live here.  Infinity is `CurvePoint(None, None)`.
"""

from gaskit.ec import CurveParams, CurvePoint, is_on_curve
from gaskit.field import FieldElement, tally_muls


def curve_point(curve: CurveParams, x: int, y: int) -> CurvePoint:
    """(x mod p, y mod p) on the curve's field, with no curve check."""
    return CurvePoint(FieldElement(x, curve.modulus), FieldElement(y, curve.modulus))


def negate(pt: CurvePoint) -> CurvePoint:
    """-pt = (x, -y); infinity for infinity."""
    if pt.is_infinity:
        return pt
    return CurvePoint(pt.x, FieldElement(-pt.y.residue, pt.y.modulus))


def add(p1: CurvePoint, p2: CurvePoint, curve: CurveParams) -> CurvePoint:
    """Chord-tangent group law; infinity is the identity.

    ValueError for a point off the curve.  Tallies the affine formula's
    field multiplications: 3 for an addition, 6 for a doubling (the one
    inversion is not counted).
    """
    for pt in (p1, p2):
        if not is_on_curve(pt, curve):
            raise ValueError(f"point {pt!r} is not on curve {curve.name or '<anonymous>'}")
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    p = curve.modulus.value
    x1, y1, x2, y2 = p1.x.residue, p1.y.residue, p2.x.residue, p2.y.residue
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return CurvePoint(None, None)
        # doubling: lambda = (3x^2 + A) / (2y)
        lam = (3 * x1 * x1 + curve.a.residue) * pow(2 * y1, -1, p) % p
        muls = 6
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        muls = 3
    x3 = (lam * lam - x1 - x2) % p
    tally_muls(muls)
    return curve_point(curve, x3, lam * (x1 - x3) - y1)


def mul(k: int, pt: CurvePoint, curve: CurveParams) -> CurvePoint:
    """k * pt for k >= 0 by right-to-left double-and-add over `add`."""
    acc = CurvePoint(None, None)
    while k:
        if k & 1:
            acc = add(acc, pt, curve)
        k >>= 1
        if k:
            pt = add(pt, pt, curve)
    return acc
