"""Analytical per-user computation costs in field-multiplication units.

All three schemes are expressed in T_mul,q - the time of one multiplication
in the 160-bit field.  One elliptic-curve scalar multiplication (TEM) is
taken as 29 multiplications in the 1024-bit field, and one 1024-bit
multiplication as 41 T_mul,q, so TEM = 29 * 41 = 1189 T_mul,q.

Per-user totals as a function of group size m:

    proposed:  1189            (one TEM, independent of m)
    harn:      45m + 1418      (14m + 1418 under the ``table`` slope flag -
                                the two published figures disagree; the text
                                value is the default and the one the
                                simulator uses)
    chien:     7m + 6785       (kept as a cost model only; the pairing-based
                                verification is not implemented)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SCHEMES",
    "HARN_SLOPES",
    "TEM_IN_TMULP",
    "TMULP_IN_TMULQ",
    "TEM_TMULQ",
    "per_user_cost",
    "savings_ratio",
    "EnergyBreakdown",
    "energy",
    "CSV_FIELDS",
    "csv_header",
    "csv_row",
]

SCHEMES = ("harn", "chien", "proposed")
HARN_SLOPES = ("text", "table")

TEM_IN_TMULP = 29
TMULP_IN_TMULQ = 41
TEM_TMULQ = TEM_IN_TMULP * TMULP_IN_TMULQ  # 1189

# decomposition of the per-user totals used by the simulator's timeline
HARN_RELEASE_BASE = 1418   # exponentiation + fixed work at release time
HARN_LAGRANGE_PER_X = 4    # release-time Lagrange work per roster member
HARN_ACCUM_PER_MSG = 41    # one 1024-bit multiplication per received e_i
CHIEN_LAGRANGE_PER_X = 7   # per-term multiplication + inverse
CHIEN_VERIFY_TAIL = 6785 - TEM_TMULQ + CHIEN_LAGRANGE_PER_X  # pairing etc.
DECENTRAL_VERIFY_PER_SHARE = TEM_TMULQ + CHIEN_LAGRANGE_PER_X


def per_user_cost(scheme: str, m: int, harn_slope: str = "text") -> int:
    """Total per-user multiplications for a group of m members."""
    if m < 1:
        raise ValueError(f"group size must be >= 1, got {m}")
    if scheme == "proposed":
        return TEM_TMULQ
    if scheme == "harn":
        if harn_slope not in HARN_SLOPES:
            raise ValueError(f"harn_slope must be one of {HARN_SLOPES}")
        slope = 45 if harn_slope == "text" else 14
        return slope * m + 1418
    if scheme == "chien":
        return 7 * m + 6785
    raise ValueError(f"unknown scheme {scheme!r}; valid: {SCHEMES}")


def savings_ratio(m: int) -> Fraction:
    """Energy saving of the proposed scheme against Chien's (exact)."""
    return 1 - Fraction(per_user_cost("proposed", m), per_user_cost("chien", m))


@dataclass(frozen=True)
class EnergyBreakdown:
    compute_j: float
    radio_j: float

    @property
    def total_j(self) -> float:
        return self.compute_j + self.radio_j


def energy(
    tmulq: int, joules_per_tmulq: float, bytes_tx: int, bytes_rx: int
) -> EnergyBreakdown:
    """Price a node's T_mul,q count and radio bytes in joules (split report).

    A radio byte, sent or received, costs one T_mul,q.  The only place work
    is turned into joules: the simulator's nodes, the modeled Chien row and
    the `cost` table all call it.
    """
    if joules_per_tmulq <= 0:
        raise ValueError("joules_per_tmulq must be positive")
    if tmulq < 0 or bytes_tx < 0 or bytes_rx < 0:
        raise ValueError("operation and byte counts must be non-negative")
    compute = tmulq * joules_per_tmulq
    radio_j = bytes_tx * joules_per_tmulq + bytes_rx * joules_per_tmulq
    return EnergyBreakdown(compute_j=compute, radio_j=radio_j)


# ---------------------------------------------------------------------------
# Shared CSV schema (also emitted by the simulator)

CSV_FIELDS = ("scheme", "m", "tmulq", "compute_J", "radio_J", "total_J", "auth_time_s")


def csv_header() -> str:
    return ",".join(CSV_FIELDS)


def csv_row(
    scheme: str, m: int, tmulq: int, energy: EnergyBreakdown, auth_time_s: float
) -> str:
    return ",".join(
        (
            scheme,
            str(m),
            str(tmulq),
            f"{energy.compute_j:.9g}",
            f"{energy.radio_j:.9g}",
            f"{energy.total_j:.9g}",
            f"{auth_time_s:.9g}",
        )
    )
