"""Shamir secret sharing over a prime field.

The group secret is the constant term of a random polynomial of degree
exactly t-1 (`sample_polynomial`), and each member holds one evaluation
point.  Any t points reconstruct the secret by Lagrange interpolation at
zero; the dealer also publishes a hash commitment so reconstructors can
check what they recovered.

The proposed scheme's shares are dealt in one place, `gas_core._deal_group`,
at initialization and at every rotation: a nonzero secret, every share
nonzero (else the whole polynomial is redrawn), and each share's id and x
taken from the group's roster.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from .field import FieldElement, Prime, lagrange_coeff_at_zero, tally_muls

__all__ = [
    "ThresholdError",
    "SecretPolynomial",
    "Share",
    "SecretCommitment",
    "sample_polynomial",
    "roster_ids",
    "guessed_share",
    "reconstruct",
    "commit",
    "verify_commitment",
]


class ThresholdError(ValueError):
    """Fewer shares supplied than the threshold requires."""


@dataclass(frozen=True)
class SecretPolynomial:
    """Coefficients constant-term first; degree exactly t-1 for t >= 2."""

    coefficients: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("polynomial needs at least a constant term")
        if len(self.coefficients) >= 2 and self.coefficients[-1].residue == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def secret(self) -> FieldElement:
        return self.coefficients[0]

    @property
    def field(self) -> Prime:
        return self.coefficients[0].modulus

    def evaluate(self, x: FieldElement) -> FieldElement:
        """f(x) by Horner on plain ints; tallies its t multiplications in one step."""
        q = self.field
        if x.modulus.value != q.value:
            raise ValueError(f"modulus mismatch: {q.value} vs {x.modulus.value}")
        at, acc = x.residue, 0
        for coeff in reversed(self.coefficients):
            acc = (acc * at + coeff.residue) % q.value
        tally_muls(len(self.coefficients))
        return q.element(acc)


@dataclass(frozen=True)
class Share:
    """One member's point on the dealer polynomial: public x, private y."""

    x: FieldElement
    y: FieldElement
    member_id: str

    def __post_init__(self) -> None:
        if self.x.residue == 0:
            raise ValueError("share x must be nonzero (x=0 evaluates to the secret)")


@dataclass(frozen=True)
class SecretCommitment:
    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != hashlib.sha256().digest_size:
            raise ValueError("commitment digest must be 32 bytes")

    def hex(self) -> str:
        return self.digest.hex()


def sample_polynomial(
    t: int, secret: FieldElement, rng: random.Random
) -> SecretPolynomial:
    """Random degree-(t-1) polynomial with the given constant term.

    The leading coefficient is re-drawn until nonzero so the degree is
    exactly t-1 and the threshold is sharp.
    """
    if t < 1:
        raise ValueError("threshold must be >= 1")
    q = secret.modulus
    if t > q.value - 1:
        raise ValueError(f"threshold {t} exceeds field capacity (q={q.value})")
    coeffs = [secret]
    coeffs += [q.random_element(rng) for _ in range(t - 2)]
    if t >= 2:
        lead = q.random_element(rng)
        while lead.residue == 0:
            lead = q.random_element(rng)
        coeffs.append(lead)
    return SecretPolynomial(tuple(coeffs))


def roster_ids(n: int) -> list[str]:
    """The member ids of an n-member group in roster order: U1, ..., Un."""
    return [f"U{i + 1}" for i in range(n)]


def guessed_share(share: Share, rng: random.Random) -> Share:
    """The share of an attacker who lacks `share` but plays its member's seat.

    Same x and member id; y is redrawn from [1, q) until it differs from
    the share's own.
    """
    q = share.y.modulus
    y = share.y.residue
    while y == share.y.residue:
        y = rng.randrange(1, q.value)
    return Share(x=share.x, y=FieldElement(y, q), member_id=share.member_id)


def reconstruct(shares: list[Share], t: int) -> FieldElement:
    """Interpolate the constant term from m >= t shares; `lagrange_coeff`
    refuses a repeated x with ValueError."""
    if len(shares) < t:
        raise ThresholdError(f"need at least {t} shares, got {len(shares)}")
    xs = [s.x for s in shares]
    acc = FieldElement(0, xs[0].modulus)
    for i, share in enumerate(shares):
        acc = acc + share.y * lagrange_coeff_at_zero(i, xs)
    return acc


def commit(secret: FieldElement) -> SecretCommitment:
    """SHA-256 over the canonical fixed-width encoding of the secret."""
    return SecretCommitment(hashlib.sha256(secret.to_bytes()).digest())


def verify_commitment(candidate: FieldElement, commitment: SecretCommitment) -> bool:
    return hmac.compare_digest(commit(candidate).digest, commitment.digest)
