"""Harn's asynchronous group authentication scheme (comparison baseline).

Two secret polynomials f_1, f_2 over F_q, public mixing constants d_1, d_2
and public evaluation points w_1, w_2 define the group secret

    s = d_1*f_1(w_1) + d_2*f_2(w_2)  (mod q),

with g^s mod p published as the verification target.  Each member releases
e_i = g^{c_i} where c_i mixes its two private evaluations with Lagrange
terms taken *at* w_j; the product of all m releases telescopes to g^s when
everyone is honest.

The d/w constants are shared per polynomial (not per member): that is the
only reading under which sum(c_i) = s holds.  Parameter pairs only need q
to divide p-1 (the tiny pair p=23, q=11 happens to be a safe-prime pair);
the generator is derived from base 7 by cofactor exponentiation so its
order is exactly q.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources

from . import wire
from .field import FieldElement, Prime, json_int, lagrange_coeff
from .sss import SecretPolynomial, ThresholdError, sample_polynomial

__all__ = [
    "HarnParams",
    "HarnToken",
    "HarnRelease",
    "harn_init",
    "harn_release",
    "harn_verify",
    "builtin_harn_modulus",
    "load_harn_modulus",
    "derive_generator",
    "release_frame",
    "BUILTIN_HARN_MODULI",
]

BUILTIN_HARN_MODULI = ("harn-tiny", "harn-1024-160")
_FILES = {"harn-tiny": "harn_tiny.json", "harn-1024-160": "harn_1024_160.json"}

_GENERATOR_BASE = 7


@dataclass(frozen=True)
class HarnModulus:
    """A (p, q, g) triple with q | p-1 and g of order exactly q mod p."""

    p: Prime
    q: Prime
    g: FieldElement

    def __post_init__(self) -> None:
        if (self.p.value - 1) % self.q.value != 0:
            raise ValueError("q must divide p-1")
        if self.g.modulus.value != self.p.value:
            raise ValueError("generator must live mod p")
        if self.g.residue in (0, 1):
            raise ValueError("generator must not be trivial")
        if pow(self.g.residue, self.q.value, self.p.value) != 1:
            raise ValueError("generator order does not divide q")

    @property
    def is_safe_pair(self) -> bool:
        return self.p.value - 1 == 2 * self.q.value


def derive_generator(p: Prime, q: Prime, base: int = _GENERATOR_BASE) -> FieldElement:
    """base^((p-1)/q) mod p; lands in the order-q subgroup."""
    g = pow(base, (p.value - 1) // q.value, p.value)
    if g == 1:
        raise ValueError(f"base {base} collapses to 1; pick another base")
    return FieldElement(g, p)


@dataclass(frozen=True)
class HarnToken:
    """One member's credentials: public x_i, private f_1(x_i), f_2(x_i)."""

    member_id: str
    x: FieldElement
    y1: FieldElement
    y2: FieldElement


@dataclass(frozen=True)
class HarnRelease:
    """The broadcast value e_i = g^{c_i}, tagged with the member's x."""

    member_id: str
    x: FieldElement
    e: FieldElement


@dataclass(frozen=True)
class HarnParams:
    modulus: HarnModulus
    threshold: int
    f1: SecretPolynomial
    f2: SecretPolynomial
    w1: FieldElement
    w2: FieldElement
    d1: FieldElement
    d2: FieldElement
    s: FieldElement
    verification_target: FieldElement  # g^s mod p

    def __post_init__(self) -> None:
        if self.d1.residue == 0 and self.d2.residue == 0:
            raise ValueError("d1 = d2 = 0 makes the secret degenerate")
        expected = self.d1 * self.f1.evaluate(self.w1) + self.d2 * self.f2.evaluate(
            self.w2
        )
        if expected != self.s:
            raise ValueError("s is inconsistent with d_j * f_j(w_j)")
        if self.modulus.g.pow(self.s.residue) != self.verification_target:
            raise ValueError("verification target is not g^s")


def builtin_harn_modulus(name: str) -> HarnModulus:
    if name not in BUILTIN_HARN_MODULI:
        raise ValueError(f"unknown builtin {name!r}; valid: {BUILTIN_HARN_MODULI}")
    text = resources.files("gaskit.data").joinpath(_FILES[name]).read_text("utf-8")
    return _modulus_from_dict(json.loads(text))


def load_harn_modulus(path) -> HarnModulus:
    with open(path, "r", encoding="utf-8") as fh:
        return _modulus_from_dict(json.load(fh))


def _modulus_from_dict(data: dict) -> HarnModulus:
    p = Prime(json_int(data["p"], "p"))
    q = Prime(json_int(data["q"], "q"))
    if data.get("g"):
        g = p.element(json_int(data["g"], "g"))
    else:
        g = derive_generator(p, q)
    return HarnModulus(p=p, q=q, g=g)


def harn_init(
    t: int,
    n: int,
    modulus: HarnModulus,
    rng: random.Random,
) -> tuple[HarnParams, list[HarnToken]]:
    """Deal two polynomials and per-member tokens (x_i, f_1(x_i), f_2(x_i))."""
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t} n={n}")
    q = modulus.q
    if n >= q.value:
        raise ValueError(f"group size {n} does not fit in F_{q.value}")
    f1 = sample_polynomial(t, q.random_element(rng), rng)
    f2 = sample_polynomial(t, q.random_element(rng), rng)
    xs = [FieldElement(i + 1, q) for i in range(n)]
    taken = {x.residue for x in xs}
    # public evaluation points must avoid every member x (and each other)
    def draw_w() -> FieldElement:
        while True:
            w = q.random_element(rng)
            if w.residue not in taken:
                taken.add(w.residue)
                return w

    w1, w2 = draw_w(), draw_w()
    d1, d2 = q.random_element(rng), q.random_element(rng)
    while d1.residue == 0 and d2.residue == 0:
        d1, d2 = q.random_element(rng), q.random_element(rng)
    s = d1 * f1.evaluate(w1) + d2 * f2.evaluate(w2)
    params = HarnParams(
        modulus=modulus,
        threshold=t,
        f1=f1,
        f2=f2,
        w1=w1,
        w2=w2,
        d1=d1,
        d2=d2,
        s=s,
        verification_target=modulus.g.pow(s.residue),
    )
    tokens = [
        HarnToken(member_id=f"U{i + 1}", x=x, y1=f1.evaluate(x), y2=f2.evaluate(x))
        for i, x in enumerate(xs)
    ]
    return params, tokens


def harn_release(
    token: HarnToken, roster_xs: list[FieldElement], params: HarnParams
) -> HarnRelease:
    """c_i = sum_j d_j * f_j(x_i) * prod_{r != i} (w_j - x_r)/(x_i - x_r); e_i = g^{c_i}."""
    if len(roster_xs) < params.threshold:
        raise ThresholdError(
            f"roster of {len(roster_xs)} is below threshold {params.threshold}"
        )
    try:
        idx = [x.residue for x in roster_xs].index(token.x.residue)
    except ValueError:
        raise ValueError(
            f"member x={token.x.residue} is not in the participating roster"
        ) from None
    c = (
        params.d1 * token.y1 * lagrange_coeff(idx, roster_xs, params.w1)
        + params.d2 * token.y2 * lagrange_coeff(idx, roster_xs, params.w2)
    )
    return HarnRelease(member_id=token.member_id, x=token.x, e=params.modulus.g.pow(c.residue))


def release_frame(rel: HarnRelease) -> bytes:
    """The HARN_RELEASE frame a member broadcasts (Harn has no epochs: always 1)."""
    payload = wire.encode_point_payload(rel.x.to_bytes(), rel.e.to_bytes())
    return wire.encode_frame(wire.HARN_RELEASE, 1, rel.member_id, payload)


def harn_verify(releases: list[HarnRelease], params: HarnParams) -> bool:
    """prod(e_i) must equal g^s; needs >= t distinct contributors."""
    if len(releases) < params.threshold:
        raise ThresholdError(
            f"need at least {params.threshold} releases, got {len(releases)}"
        )
    xs = [rel.x.residue for rel in releases]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate releases")
    product = FieldElement(1, params.modulus.p)
    for rel in releases:
        product = product * rel.e
    return product == params.verification_target
