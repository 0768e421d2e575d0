"""Harn's asynchronous group authentication scheme (comparison baseline).

Two secret polynomials f_1, f_2 over F_q, public mixing constants d_1, d_2
and public evaluation points w_1, w_2 define the group secret

    s = d_1*f_1(w_1) + d_2*f_2(w_2)  (mod q),

with g^s mod p published as the verification target; `HarnParams` derives
both from f_j, w_j and d_j when it is built.  Each member releases
e_i = g^{c_i} where c_i mixes its two private evaluations with Lagrange
terms taken *at* w_j; the product of all m releases telescopes to g^s when
everyone is honest.

The d/w constants are shared per polynomial (not per member): that is the
only reading under which sum(c_i) = s holds.  Parameter pairs only need q
to divide p-1 (the tiny pair p=23, q=11 happens to be a safe-prime pair);
the generator is derived from base 7 by cofactor exponentiation so its
order is exactly q.

Tokens, parameters and releases hold `FieldElement`s; everything computes
on plain ints and tallies its field multiplications in one step per call.
A release takes both of its Lagrange terms from one `field.lagrange_weight`
call, which shares their denominator and its inversion, and g^{c_i} from
the fixed generator's table (`HarnModulus.g_pow`), as the proposed scheme
does for multiples of its own generator.  The check multiplies the m
releases as residues mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from . import wire
from .field import FieldElement, Prime, lagrange_weight, tally_muls
# Not called here; the benchmark's tracer binds it by name in this module.
from .field import lagrange_coeff  # noqa: F401
from .jsonfile import json_int, json_object, read_builtin, read_json
from .sss import SecretPolynomial, ThresholdError, roster_ids, sample_polynomial

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
    "MAX_P_BITS",
]

BUILTIN_HARN_MODULI = ("harn-tiny", "harn-1024-160")

_GENERATOR_BASE = 7
_G_WINDOW = 4  # bits per digit of a `g_pow` exponent


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

    @cached_property
    def _g_table(self) -> list[list[int]]:
        """Rows T[j][d - 1] = g^(d * 16^j) mod p for 1 <= d < 16.

        One row per 4-bit digit of an exponent below q (40 rows of 15 for a
        160-bit q, about 77 KB at 1024 bits).  Built on first use, untallied.
        """
        p = self.p.value
        base = self.g.residue
        table = []
        for _ in range(-(-self.q.value.bit_length() // _G_WINDOW)):
            row = [base]
            for _ in range((1 << _G_WINDOW) - 2):
                row.append(row[-1] * base % p)
            table.append(row)
            base = row[-1] * base % p
        return table

    def g_pow(self, e: int) -> FieldElement:
        """g^e mod p from the table of g, for any integer e.

        e mod q is split into 4-bit digits d_j, and each nonzero digit
        multiplies in its entry g^(d_j * 16^j) with no squarings
        (fixed-base windowing, Brickell-Gordon-McCurley-Wilson,
        EUROCRYPT'92).  Tallies one field multiplication per nonzero digit.
        """
        p = self.p.value
        mask = (1 << _G_WINDOW) - 1
        e %= self.q.value
        acc, muls = 1, 0
        for row in self._g_table:
            d = e & mask
            e >>= _G_WINDOW
            if d:
                acc = acc * row[d - 1] % p
                muls += 1
        tally_muls(muls)
        return FieldElement(acc, self.p)


def derive_generator(p: Prime, q: Prime) -> FieldElement:
    """7^((p-1)/q) mod p; lands in the order-q subgroup."""
    g = pow(_GENERATOR_BASE, (p.value - 1) // q.value, p.value)
    if g == 1:
        raise ValueError(f"base {_GENERATOR_BASE} collapses to 1 for p={p.value}, q={q.value}")
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
    """Harn's dealt parameters: f_1, f_2 and the public w_j, d_j.

    `s` = d_1*f_1(w_1) + d_2*f_2(w_2) and `verification_target` = g^s mod p
    (from the generator's table) are derived when it is built, never passed in.
    """

    modulus: HarnModulus
    threshold: int
    f1: SecretPolynomial
    f2: SecretPolynomial
    w1: FieldElement
    w2: FieldElement
    d1: FieldElement
    d2: FieldElement
    s: FieldElement = dc_field(init=False)
    verification_target: FieldElement = dc_field(init=False)  # g^s mod p

    def __post_init__(self) -> None:
        q = self.modulus.q
        if any(v.modulus != q for v in (self.w1, self.w2, self.d1, self.d2)):
            raise ValueError("w_j and d_j must live mod q")
        if self.d1.residue == 0 and self.d2.residue == 0:
            raise ValueError("d1 = d2 = 0 makes the secret degenerate")
        s = _group_secret(self.f1, self.f2, self.w1, self.w2, self.d1, self.d2)
        object.__setattr__(self, "s", q.element(s))
        object.__setattr__(self, "verification_target", self.modulus.g_pow(s))


def _group_secret(
    f1: SecretPolynomial,
    f2: SecretPolynomial,
    w1: FieldElement,
    w2: FieldElement,
    d1: FieldElement,
    d2: FieldElement,
) -> int:
    """s = d_1*f_1(w_1) + d_2*f_2(w_2) mod q; tallies the two products."""
    tally_muls(2)
    return (
        d1.residue * f1.evaluate(w1).residue + d2.residue * f2.evaluate(w2).residue
    ) % f1.field.value


def builtin_harn_modulus(name: str) -> HarnModulus:
    if name not in BUILTIN_HARN_MODULI:
        raise ValueError(f"unknown builtin {name!r}; valid: {BUILTIN_HARN_MODULI}")
    return _modulus_from_dict(read_builtin(f"{name}.json"))


def load_harn_modulus(path) -> HarnModulus:
    return _modulus_from_dict(read_json(path))


# Bit length cap of a Harn p and q, from a file or `gaskit gen-params
# --p-bits`, checked before any primality test.  The paper uses 1024; 2048
# takes about 10 s to generate.
MAX_P_BITS = 2048


def _modulus_from_dict(data: dict) -> HarnModulus:
    data = json_object(data, "Harn modulus", ("p", "q"), ("g", "name"))
    p, q = json_int(data["p"], "p"), json_int(data["q"], "q")
    for key, value in (("p", p), ("q", q)):
        if value.bit_length() > MAX_P_BITS:
            raise ValueError(f"{key} has {value.bit_length()} bits, above {MAX_P_BITS}")
    p, q = Prime(p), Prime(q)
    g = derive_generator(p, q) if data.get("g") is None else p.element(json_int(data["g"], "g"))
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
    if n + 2 > q.value:  # n member x's and two w's, all distinct
        raise ValueError(f"group size {n} does not fit in F_{q.value} beside w_1 and w_2")
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
    params = HarnParams(
        modulus=modulus, threshold=t, f1=f1, f2=f2, w1=w1, w2=w2, d1=d1, d2=d2
    )
    tokens = [
        HarnToken(member_id=mid, x=x, y1=f1.evaluate(x), y2=f2.evaluate(x))
        for mid, x in zip(roster_ids(n), xs)
    ]
    return params, tokens


def harn_release(
    token: HarnToken, roster_xs: list[FieldElement], params: HarnParams
) -> HarnRelease:
    """c_i = sum_j d_j * f_j(x_i) * prod_{r != i} (w_j - x_r)/(x_i - x_r); e_i = g^{c_i}.

    Both weights share the denominator prod_{r != i} (x_i - x_r) and its one
    inversion.  Tallies 3(m-1) + 6 multiplications for a roster of m: the
    weights' 3(m-1) + 2 and the 4 products that form c_i; then the nonzero
    digits of c_i in `g_pow`.  ValueError when x_i is not on the roster or
    when any x appears on it twice, found with one set: a repeated x_r would
    otherwise enter both weights twice and give a wrong c_i.
    """
    if len(roster_xs) < params.threshold:
        raise ThresholdError(
            f"roster of {len(roster_xs)} is below threshold {params.threshold}"
        )
    xs = [x.residue for x in roster_xs]
    if len(set(xs)) != len(xs):
        repeated = next(x for i, x in enumerate(xs) if x in xs[:i])
        raise ValueError(f"duplicate x-coordinate {repeated} in the roster")
    try:
        idx = xs.index(token.x.residue)
    except ValueError:
        raise ValueError(
            f"member x={token.x.residue} is not in the participating roster"
        ) from None
    q = params.modulus.q.value
    l1, l2 = lagrange_weight(idx, xs, (params.w1.residue, params.w2.residue), q)
    c = (params.d1.residue * token.y1.residue * l1 + params.d2.residue * token.y2.residue * l2) % q
    tally_muls(4)
    return HarnRelease(member_id=token.member_id, x=token.x, e=params.modulus.g_pow(c))


def release_frame(rel: HarnRelease) -> bytes:
    """The HARN_RELEASE frame a member broadcasts (Harn has no epochs: always 1)."""
    payload = wire.encode_point_payload(rel.x.to_bytes(), rel.e.to_bytes())
    return wire.encode_frame(wire.HARN_RELEASE, 1, rel.member_id, payload)


def harn_verify(releases: list[HarnRelease], params: HarnParams) -> bool:
    """prod(e_i) must equal g^s; needs >= t distinct contributors.

    Multiplies the residues mod p and tallies the m multiplications in one
    step.
    """
    if len(releases) < params.threshold:
        raise ThresholdError(
            f"need at least {params.threshold} releases, got {len(releases)}"
        )
    xs = [rel.x.residue for rel in releases]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate releases")
    p = params.modulus.p
    product = 1
    for rel in releases:
        if rel.e.modulus.value != p.value:
            raise ValueError(f"release of {rel.member_id} does not live mod p = {p.value}")
        product = product * rel.e.residue % p.value
    tally_muls(len(releases))
    return product == params.verification_target.residue
