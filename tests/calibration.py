"""How the frozen constants and the savings claim are derived.

`sim.COMPUTE_RATE` and `sim.JOULES_PER_TMULQ` are one-point calibrations,
and the package only reads them; the tests derive them again here.  A run's
times depend on `COMPUTE_RATE` alone, so `calibrate_compute_rate` patches
that module constant (`unittest.mock.patch.object`) for each probe run.  A
run's T_mul,q and byte counts depend on neither constant, so
`calibrate_joules_per_tmulq` divides the target by one run's counts.
`savings_ratio` is the exact energy saving of the proposed scheme against
Chien's, from the per-user cost formulas.
"""

import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

from gaskit import sim
from gaskit.cost_model import per_user_cost


def savings_ratio(m: int) -> Fraction:
    """Energy saving of the proposed scheme against Chien's (exact)."""
    return 1 - Fraction(per_user_cost("proposed", m), per_user_cost("chien", m))


def calibrate_compute_rate(
    target_s: float = 1.3, m: int = 10, base: sim.Scenario | None = None
) -> float:
    """Find the compute rate putting proposed-centralized@m at target_s.

    auth time is affine in 1/rate under a fixed schedule, so two probe runs
    solve it exactly; a verification run guards the affine assumption.
    """
    if base is None:
        base = sim.Scenario(scheme="proposed-centralized", m=m)
    probe = replace(base, scheme="proposed-centralized", m=m, t=None)

    def auth(rate: float) -> float:
        with sim.event_log(False), mock.patch.object(sim, "COMPUTE_RATE", rate):
            return sim.run(probe).auth_time_s

    r1, r2 = 1000.0, 2000.0
    t1, t2 = auth(r1), auth(r2)
    # t = A + C / rate
    c = (t1 - t2) / (1.0 / r1 - 1.0 / r2)
    a = t1 - c / r1
    if target_s <= a:
        raise ValueError(f"target {target_s}s is below the airtime floor {a}s")
    rate = c / (target_s - a)
    check = auth(rate)
    if not math.isclose(check, target_s, rel_tol=1e-6):
        lo, hi = rate / 64, rate * 64
        for _ in range(200):
            mid = (lo + hi) / 2
            if auth(mid) > target_s:
                lo = mid
            else:
                hi = mid
        rate = (lo + hi) / 2
    return rate


def calibrate_joules_per_tmulq(
    target_j: float = 0.014, m: int = 10, base: sim.Scenario | None = None
) -> float:
    """Fit joules/T_mul,q so a member node of proposed@m totals target_j."""
    if base is None:
        base = sim.Scenario(scheme="proposed-centralized", m=m)
    probe = replace(base, scheme="proposed-centralized", m=m, t=None)
    with sim.event_log(False):
        rep = sim.run(probe).representative_member()
    return target_j / (rep.tmulq_count + rep.bytes_tx + rep.bytes_rx)
