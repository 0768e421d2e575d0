"""Prime-field arithmetic with an optional per-context multiplication counter.

`FieldElement` is the checked type at API boundaries: shares, curve
coordinates, Harn tokens and releases.  Multiplications are the cost unit of
the whole toolkit, so `FieldElement.__mul__` and `pow` report into whatever
`MulCounter` is active in the current execution context.  The hot paths
compute on plain integers instead and tally the multiplications they did in
bulk, once per call: the curve group (`ec.scalar_mul`, `ec.scalar_mul_many`),
the Lagrange weights (`lagrange_weight`, one node's at several points from
one inversion, for a Harn release; `lagrange_weights`, all of a set from one
`batch_inverse`, for the verifiers), Horner dealing
(`sss.SecretPolynomial.evaluate`) and Harn's g^c, parameter check and
product check.  Inversions are *not* counted anywhere: they are tracked as separate
unit operations in the cost model, matching how the per-user operation
counts are broken down.
"""

from __future__ import annotations

import contextvars
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "Prime",
    "FieldElement",
    "MulCounter",
    "active_counter",
    "batch_inverse",
    "is_probable_prime",
    "json_int",
    "json_object",
    "json_str",
    "lagrange_coeff",
    "lagrange_coeff_at_zero",
    "lagrange_weight",
    "lagrange_weights",
    "pow_mod",
    "tally_muls",
]

_MR_ROUNDS = 64
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, 64 rounds, with bases derived from n (reproducible)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(n)
    for _ in range(_MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def json_int(value: object, name: str) -> int:
    """An integer read from a JSON file: an int, or the decimal string of one.

    The string form is what the writers emit, ``str(n)``: ASCII digits with
    an optional leading minus sign.  Anything else raises ValueError,
    including the floats and booleans that ``int()`` would silently truncate
    or coerce (``1.9`` -> 1, ``true`` -> 1).
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        digits = value[1:] if value.startswith("-") else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    raise ValueError(f"{name} must be an integer or a decimal string, got {value!r}")


# The shapes around those integers.  Each raises ValueError, never the
# KeyError, TypeError or AttributeError that indexing or unpacking the
# wrong shape would.  An optional key counts as absent only when it is
# missing or null: readers test ``data.get(key) is None``.

def json_object(value: object, name: str, required: tuple[str, ...]) -> dict:
    """A JSON object that holds every key in `required`."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{name} missing fields: {missing}")
    return value


def json_str(value: object, name: str) -> str:
    """A JSON string, such as a curve's name."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class Prime:
    """A checked prime modulus (>= 3) and the width of its elements in bytes."""

    value: int
    byte_length: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.value < 3:
            raise ValueError(f"modulus must be >= 3, got {self.value}")
        if not is_probable_prime(self.value):
            raise ValueError(f"modulus {self.value} is not prime")
        object.__setattr__(self, "byte_length", (self.value.bit_length() + 7) // 8)

    def element(self, value: int) -> "FieldElement":
        """The field element `value`; ValueError unless 0 <= value < p."""
        if not 0 <= value < self.value:
            raise ValueError(f"{value} out of field range [0, {self.value})")
        return _reduced(value, self)

    def from_bytes(self, data: bytes) -> "FieldElement":
        """Checked inverse of `FieldElement.to_bytes`: exactly `byte_length` bytes."""
        if len(data) != self.byte_length:
            raise ValueError(f"expected {self.byte_length} bytes, got {len(data)}")
        value = int.from_bytes(data, "big")
        if value >= self.value:  # unsigned, so never below 0
            raise ValueError(f"{value} out of field range [0, {self.value})")
        return _reduced(value, self)

    def random_element(self, rng: random.Random) -> "FieldElement":
        return FieldElement(rng.randrange(self.value), self)

    def __repr__(self) -> str:
        return f"Prime({self.value})"


@lru_cache(maxsize=None)
def cached_prime(value: int) -> Prime:
    """Primality checking is expensive; reuse Prime instances by value."""
    return Prime(value)


# The active counter is confined to one execution context (one simulated
# node); `contextvars` keeps it isolated across threads/tasks.
_ACTIVE: contextvars.ContextVar["MulCounter | None"] = contextvars.ContextVar(
    "gaskit_mul_counter", default=None
)


class MulCounter:
    """Counts field multiplications and EC scalar multiplications (TEM events).

    `field_muls` gets one per `FieldElement` multiplication and, in one step
    per call, the multiplications of the plain-int paths: the formula counts
    of each `ec.scalar_mul`, `ec._multi_scalar_jacobian` or
    `ec.scalar_mul_many`, the (k + 1)(m - 1) + k of each `lagrange_weight`
    at k points (2m - 1 at one, 3m - 1 at a Harn release's two), the
    m^2 + 6m of each `lagrange_weights`, the t of each Horner evaluation of
    a degree t - 1 polynomial, the bitlen - 1 + popcount of each `pow_mod`,
    the m of a Harn product check (`gas_harn.harn_verify`) and, for Harn's
    g^c (`HarnModulus.g_pow`), one per nonzero 4-bit digit of c (its
    table, like the generator table of `ec`, is built untallied);
    inversions are not counted.  A scalar
    multiplication tallies the formulas it ran, so the same TEM counts
    differently by path: about 509 on average on secp160r1 for the
    generator (fixed-base table), about 1.6k for any other point (width-4
    NAF, its per-call table included).  The variable-base count lies
    within 3x of the modeled 1189 for every scalar of 47 to 329 bits;
    about 1 random generator scalar in 10^4 tallies 389 or less, under
    1189/3.  `ec._multi_scalar_jacobian` records one TEM per term, but its
    terms share one run of doublings: m random secp160r1 terms tally about
    382 each for their tables and additions, plus about 1.3k for the
    doublings, once.  `gas_core.decentralized_verify` passes it short signed weights
    instead, 27 of them at 8 bits or more, where a term of a sum takes the
    width-4 NAF: an honest secp160r1 group of 30 (x = 1..30) tallies 3556
    in all, weights included.  The verifiers compare their Jacobian result
    with the point they check, and tally the 4 of a return to affine for
    it.
    These are measured counts: the modeled T_mul,q costs in `cost_model`
    never read them.

    Used as a context manager::

        with MulCounter() as ops:
            ...
        assert ops.ec_scalar_muls == 1
    """

    __slots__ = ("field_muls", "ec_scalar_muls", "_token")

    def __init__(self) -> None:
        self.field_muls = 0
        self.ec_scalar_muls = 0
        self._token = None

    def __enter__(self) -> "MulCounter":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.reset(self._token)
        self._token = None

    def __repr__(self) -> str:
        return f"MulCounter(field_muls={self.field_muls}, ec_scalar_muls={self.ec_scalar_muls})"


def active_counter() -> MulCounter | None:
    return _ACTIVE.get()


def tally_muls(n: int) -> None:
    """Add n field multiplications, done on plain ints, to the active counter."""
    counter = _ACTIVE.get()
    if counter is not None:
        counter.field_muls += n


class FieldElement:
    """Residue modulo a prime. Immutable; cross-modulus operations raise."""

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: Prime):
        _set_modulus(self, modulus)
        _set_residue(self, residue % modulus.value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the raising __setattr__
        return FieldElement, (self.residue, self.modulus)

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if self.modulus.value != other.modulus.value:
            raise ValueError(
                f"modulus mismatch: {self.modulus.value} vs {other.modulus.value}"
            )

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.residue + other.residue, self.modulus)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.residue - other.residue, self.modulus)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        tally_muls(1)
        return FieldElement(self.residue * other.residue, self.modulus)

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.residue, self.modulus)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.residue == other.residue
            and self.modulus.value == other.modulus.value
        )

    def __hash__(self) -> int:
        return hash((self.residue, self.modulus.value))

    def __repr__(self) -> str:
        return f"FieldElement({self.residue} mod {self.modulus.value})"

    def inv(self) -> "FieldElement":
        """Multiplicative inverse (not counted as a multiplication)."""
        if self.residue == 0:
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(pow(self.residue, -1, self.modulus.value), self.modulus)

    def pow(self, exp: int) -> "FieldElement":
        """base**exp; tallies what `pow_mod` tallies."""
        return _reduced(pow_mod(self.residue, exp, self.modulus.value), self.modulus)

    def to_bytes(self) -> bytes:
        """Canonical encoding: big-endian, fixed width of the modulus."""
        return self.residue.to_bytes(self.modulus.byte_length, "big")


# The slots' own setters, which `__init__` calls because `__setattr__` raises.
_set_residue = FieldElement.residue.__set__
_set_modulus = FieldElement.modulus.__set__
_new = object.__new__


def _reduced(residue: int, modulus: Prime) -> FieldElement:
    """The element of a residue already in [0, p), without reducing it again."""
    el = _new(FieldElement)
    _set_modulus(el, modulus)
    _set_residue(el, residue)
    return el


def pow_mod(base: int, exp: int, p: int) -> int:
    """base**exp mod p on plain ints; tallies square-and-multiply's bitlen-1 + popcount muls."""
    if exp < 0:
        raise ValueError("exponent must be non-negative")
    if exp:
        tally_muls(exp.bit_length() - 1 + exp.bit_count())
    return pow(base, exp, p)


def batch_inverse(zs: list[int], p: int) -> list[int]:
    """1/z mod p for each z, 0 for z = 0, from one inversion.

    Montgomery's trick: 3 multiplications per nonzero z, not tallied here.
    """
    prefix, acc = [], 1
    for z in zs:
        prefix.append(acc)
        if z:
            acc = acc * z % p
    inv = pow(acc, -1, p)
    out = [0] * len(zs)
    for i in reversed(range(len(zs))):
        if zs[i]:
            out[i] = inv * prefix[i] % p
            inv = inv * zs[i] % p
    return out


def lagrange_coeff(idx: int, xs: list[FieldElement], at: FieldElement) -> FieldElement:
    """L_idx(at) = prod_{r != idx} (at - x_r) / (x_idx - x_r).

    `idx` is a 0-based position into `xs`; the x's must be pairwise distinct.
    An empty product (single-node xs) is one.
    """
    if not 0 <= idx < len(xs):
        raise IndexError(f"idx {idx} out of range for {len(xs)} nodes")
    x_i = xs[idx]
    num = FieldElement(1, x_i.modulus)
    den = FieldElement(1, x_i.modulus)
    for r, x_r in enumerate(xs):
        if r == idx:
            continue
        diff = x_i - x_r
        if diff.residue == 0:
            raise ValueError(f"duplicate x-coordinate {x_r.residue}")
        num = num * (at - x_r)
        den = den * diff
    return num * den.inv()


def lagrange_coeff_at_zero(idx: int, xs: list[FieldElement]) -> FieldElement:
    """The interpolation weight prod_{r != idx} (-x_r)/(x_idx - x_r)."""
    if not xs:
        raise ValueError("empty node list")
    return lagrange_coeff(idx, xs, FieldElement(0, xs[0].modulus))


def lagrange_weight(idx: int, xs: list[int], ats: Sequence[int], q: int) -> list[int]:
    """Node idx's `lagrange_coeff` residue at each point of `ats`, on plain ints mod q.

    The denominator prod_{r != idx} (x_idx - x_r) and its one inversion
    serve every point.  Tallies (k + 1)(m - 1) + k multiplications in one
    step for k points and m = len(xs) nodes: the denominator's m - 1, each
    numerator's m - 1 and one to divide each; at one point that is the
    2m - 1 of `lagrange_coeff`.
    """
    if not 0 <= idx < len(xs):
        raise IndexError(f"idx {idx} out of range for {len(xs)} nodes")
    x_i = xs[idx]
    others = xs[:idx] + xs[idx + 1:]
    den = 1
    for x_r in others:
        den = den * (x_i - x_r) % q
    if not den:
        raise ValueError(f"duplicate x-coordinate {x_i % q}")
    inv = pow(den, -1, q)
    weights = []
    for at in ats:
        num = 1
        for x_r in others:
            num = num * (at - x_r) % q
        weights.append(num * inv % q)
    tally_muls((len(ats) + 1) * len(others) + len(ats))
    return weights


def lagrange_weights(xs: list[int], at: int, q: int) -> list[int]:
    """Every `lagrange_weight` of the nodes xs at `at`, in node order.

    Each denominator prod_{r != i} (x_i - x_r) takes m - 1 multiplications,
    one `batch_inverse` inverts them all, and prefix and suffix products of
    (at - x_r) give the numerators, which fold into the inverses as they go.
    Tallies the m^2 + 6m multiplications in one step: m(m - 1) for the
    denominators, 3m for the batch inversion and 4m for the two passes.
    ValueError on a duplicate x.
    """
    m = len(xs)
    dens = []
    for i, x_i in enumerate(xs):
        den = 1
        for x_r in xs[:i] + xs[i + 1:]:
            den = den * (x_i - x_r) % q
        if not den:
            raise ValueError(f"duplicate x-coordinate {x_i % q}")
        dens.append(den)
    weights = batch_inverse(dens, q)
    acc = 1
    for i in range(m):
        weights[i] = weights[i] * acc % q
        acc = acc * (at - xs[i]) % q
    acc = 1
    for i in reversed(range(m)):
        weights[i] = weights[i] * acc % q
        acc = acc * (at - xs[i]) % q
    tally_muls(m * m + 6 * m)
    return weights
