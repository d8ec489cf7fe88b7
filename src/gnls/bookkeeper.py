"""Arithmetic of the radius lower-bound iteration.

Given the local-theory constants this module computes the uniform local
time step delta, the strip width sigma that survives iteration out to a
target time T, the induction trace certifying the doubling bound, and the
resulting radius floor sigma_floor(t) = min(sigma0, c1/t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class BookkeeperParams:
    """Constants of the iteration.

    sigma0 : initial strip half-width.
    A0     : A_{sigma0}(0), the data functional at time zero.
    c0     : local-existence time constant.
    C      : almost-conservation constant.
    eps    : exponent slack (the same slack feeds the delta exponent 4+eps
             and the c1 exponent 5+eps).
    T      : target time.
    """

    sigma0: float
    A0: float
    c0: float = 1.0
    C: float = 1.0
    eps: float = 0.05
    T: float = 1.0

    def __post_init__(self):
        for name in ("sigma0", "A0", "c0", "C", "T"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0 <= self.eps < 1:
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")


#: largest number of per-step entries kept verbatim in a trace
TRACE_CAP = 4096


@dataclass(frozen=True)
class InductionTrace:
    """Verdict of the doubling induction; the per-step trace is built on
    first access to ``ks``, ``bounds`` or ``ok``."""

    delta: float
    n: int
    sigma: float
    c1: float
    first_failure: int   # 0 if none, else the first failing k in 1..n+1
    params: BookkeeperParams = field(repr=False)

    @property
    def all_ok(self) -> bool:
        return self.first_failure == 0

    @cached_property
    def _trace(self) -> tuple:
        p, last = self.params, self.n + 1
        if last <= TRACE_CAP:
            ks = np.arange(1, last + 1, dtype=np.int64)
        else:
            stride = -(-last // TRACE_CAP)  # ceil division
            extras = [1, last]
            if self.first_failure:
                extras += [k for k in (self.first_failure - 1, self.first_failure,
                                       self.first_failure + 1) if 1 <= k <= last]
            ks = np.unique(np.concatenate(
                [np.arange(1, last + 1, stride, dtype=np.int64),
                 np.array(extras, dtype=np.int64)]))
        bounds = _bound_at(p, self.sigma, ks)
        ok = (bounds <= 2.0 * p.A0) | (self.n == 0)
        return (tuple(ks.tolist()), tuple(bounds.tolist()),
                tuple(bool(x) for x in ok))

    @property
    def ks(self) -> tuple:
        """Recorded step indices, a subset of 1..n+1."""
        return self._trace[0]

    @property
    def bounds(self) -> tuple:
        """bound_k at each recorded k."""
        return self._trace[1]

    @property
    def ok(self) -> tuple:
        """bound_k <= 2*A0 at each recorded k."""
        return self._trace[2]


def local_delta(A0: float, c0: float = 1.0, eps: float = 0.05) -> float:
    """delta = c0 * (1 + A0)^-(4+eps), the uniform local step."""
    for name, value in (("A0", A0), ("c0", c0), ("eps", eps)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not A0 >= 0:
        raise ValueError(f"A0 must be >= 0, got {A0}")
    if not c0 > 0:
        raise ValueError(f"c0 must be positive, got {c0}")
    return c0 * (1.0 + A0) ** (-(4.0 + eps))


def sigma_for_T(p: BookkeeperParams) -> tuple:
    """Largest sigma surviving iteration to time T, and the constant c1.

    sigma solves (16 T / delta) * C * sigma * A0 * (1 + A0) = 1 with
    equality; equivalently sigma = c1 / T with
    c1 = c0 / (16 C A0 (1 + A0)^(5+eps)).  Both branches are computed and
    must agree to round-off.
    """
    if not p.T > 0:
        raise ValueError(f"T must be positive, got {p.T}")
    delta = local_delta(p.A0, p.c0, p.eps)
    sigma = delta / (16.0 * p.T * p.C * p.A0 * (1.0 + p.A0))
    c1 = p.c0 / (16.0 * p.C * p.A0 * (1.0 + p.A0) ** (5.0 + p.eps))
    return sigma, c1


def _bound_at(p: BookkeeperParams, sigma: float, k):
    return p.A0 + 8.0 * p.C * sigma * k * p.A0 ** 2 * (1.0 + p.A0)


def run_induction(p: BookkeeperParams, sigma: float = None) -> InductionTrace:
    """Replay the doubling induction with a uniform step delta.

    n = floor(T/delta); for k = 1..n+1 the growth bound is

        bound_k = A0 + 8 C sigma k A0^2 (1 + A0)

    (A_sigma(0) conservatively replaced by its upper bound A0) and the
    induction closes when bound_k <= 2 A0 for every k.  A horizon shorter
    than one local step (n = 0) needs no iteration at all: the local
    theory covers [0, T] directly, so the single step is marked ok.

    The bound is affine and increasing in k, so the verdict is settled by
    scanning the crossing neighbourhood rather than all n+1 steps.  When
    n + 1 exceeds ``TRACE_CAP`` the trace is decimated (evenly
    spaced k, always including 1, n+1 and the crossing window); the
    ``first_failure`` verdict is exact regardless.
    """
    delta = local_delta(p.A0, p.c0, p.eps)
    default_sigma, c1 = sigma_for_T(p)
    if sigma is None:
        sigma = default_sigma
    n = int(math.floor(p.T / delta))
    last = n + 1

    # exact first failure: bound_k > 2*A0 first holds near k* = A0/slope
    first_failure = 0
    if n > 0:
        slope = 8.0 * p.C * sigma * p.A0 ** 2 * (1.0 + p.A0)
        k_star = p.A0 / slope if slope > 0 else math.inf
        lo = max(1, int(k_star) - 2) if math.isfinite(k_star) else last
        for k in range(lo, last + 1):
            if _bound_at(p, sigma, k) > 2.0 * p.A0:
                first_failure = k
                break

    return InductionTrace(delta=delta, n=n, sigma=sigma, c1=c1,
                          first_failure=0 if n == 0 else first_failure,
                          params=p)


def radius_floor(t: float, p: BookkeeperParams) -> float:
    """sigma_floor(t) = min(sigma0, c1 / max(t, delta)); nonincreasing in t.

    For t below one local step the local theory keeps the full radius
    sigma0 (capped by the iteration value at delta).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    delta = local_delta(p.A0, p.c0, p.eps)
    _, c1 = sigma_for_T(p)
    return min(p.sigma0, c1 / max(t, delta))
