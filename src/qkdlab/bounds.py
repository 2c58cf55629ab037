"""Counting bounds on the eavesdropper and secrecy-rate estimates.

The central object is the "atypical" subspace of N pair slots at error
rate epsilon: the span of Bell-product vectors carrying fewer than
T = ceil(2 N epsilon) non-singlet slots.  The accessible information of an
attack supported there is capped by the log of the subspace dimension;
passing a test does not confine an attack to it (see
:func:`eve_info_upper`).  This module computes the
exact dimension and the chain of increasingly generous closed-form bounds

    exact <= L1 <= L2 <= L3 <= L4 = L5,

    L1 = sum_{a,b,c < T} C(N,a) C(N-a,b) C(N-a-b,c)
    L2 = T^3 C(N,T-1)^3
    L3 = T^3 2^(3 N H((T-1)/N))
    L4 = 2^(N (6 H(eps) + mu)),   mu = 3 log2(T^3) / N
    L5 = 2^(-N k eps log2 eps)    for the implied k making L5 >= L4,

together with the resulting secrecy-rate lower bound
max(0, 1 + k' eps log2 eps).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass

from .errors import ConfigError, RegimeError

CHAIN_ATOL = 1e-9  # float slack of the log2 links of the bound chain
# 2^14283 < 10^4300: an integer of at most this many bits prints within 4,300 digits
MAX_PRINTED_INT_BITS = 14_283


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2(1-x), with H(0) = H(1) = 0."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy undefined at {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def log2_int(n: int) -> float:
    """log2 of a positive integer of arbitrary size."""
    if n <= 0:
        raise ValueError("log2 of a non-positive integer")
    shift = max(0, n.bit_length() - 53)
    return math.log2(n >> shift) + shift



def atypical_threshold(n_pairs: int, eps: float) -> int:
    """T = ceil(2 N eps), with protection against float fuzz at integers."""
    v = 2.0 * n_pairs * eps
    nearest = round(v)
    if abs(v - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(v))


def atypical_count_exact(n_pairs: int, threshold: int) -> int:
    """Number of Bell-product vectors on N slots with < T non-singlet slots."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    return sum(math.comb(n_pairs, k) * 3**k for k in range(min(threshold, n_pairs + 1)))


def _check_regime(n_pairs: int, eps: float) -> None:
    if n_pairs < 1:
        raise ConfigError(f"N must be positive, got {n_pairs}")
    try:
        float(n_pairs)
    except OverflowError:
        raise ConfigError(f"N of {n_pairs.bit_length()} bits is past the float range") from None
    if math.isnan(eps):
        raise ConfigError("epsilon must be a number, got nan")
    if not 0.0 < eps < 0.25:
        raise RegimeError(f"epsilon {eps} outside the validity regime (0, 1/4)")
    if n_pairs * eps < 0.5 - 1e-12:
        raise RegimeError(f"N*eps = {n_pairs * eps} below 1/2: too few expected errors")


def _l1_exact(n_pairs: int, threshold: int) -> int:
    # L1 counts the length-N words over {0,1,2,3} in which each of the
    # letters 1, 2, 3 occurs fewer than T times: C(N,a) C(N-a,b) C(N-a-b,c)
    # places a 1s, b 2s and c 3s.  Let s, m, k count such words over {0,1},
    # {0,1,2} and {0,1,2,3}.  Appending a letter to a length-n word leaves
    # the set only when that letter already occurs T-1 times, which happens
    # in C(n,T-1) ways times a word over the other letters on n-T+1 slots:
    #   s(n+1) = 2 s(n) - C(n,T-1)
    #   m(n+1) = 3 m(n) - 2 C(n,T-1) s(n-T+1)
    #   k(n+1) = 4 k(n) - 3 C(n,T-1) m(n-T+1)
    # and L1 = k(N).  Only the last T values of s and m are kept.
    if threshold <= 0:
        return 0
    s = m = k = 1
    lagged = deque([(1, 1)], maxlen=threshold)  # (s(j), m(j)), j = n-T+1 .. n
    c = 0  # C(n, T-1)
    for n in range(n_pairs):
        if n == threshold - 1:
            c = 1
        elif n >= threshold:
            c = c * n // (n + 1 - threshold)
        s_lag, m_lag = lagged[0]
        s, m, k = 2 * s - c, 3 * m - 2 * c * s_lag, 4 * k - 3 * c * m_lag
        lagged.append((s, m))
    return k


@dataclass(frozen=True)
class BoundReport:
    """The bound chain at one (N, eps) point, large values in log2 form."""

    n_pairs: int
    epsilon: float
    threshold: int
    exact_count: int
    l1: int
    l2: int
    log2_exact: float
    log2_l1: float
    log2_l2: float
    log2_l3: float
    log2_l4: float
    log2_l5: float
    mu: float
    implied_k: float
    margin_vs_full_space: float

    def chain_holds(self) -> bool:
        return (
            self.exact_count <= self.l1 <= self.l2
            and self.log2_l2 <= self.log2_l3 + CHAIN_ATOL
            and self.log2_l3 <= self.log2_l4 + CHAIN_ATOL
            and self.log2_l4 <= self.log2_l5 + CHAIN_ATOL
        )

    def to_dict(self) -> dict:
        """The fields and ``chain_holds``; an exact integer that may print past
        4,300 digits, the limit of Python's int-to-str and so of json, is None."""
        d = asdict(self)
        for key in ("exact_count", "l1", "l2"):
            if d[key].bit_length() > MAX_PRINTED_INT_BITS:
                d[key] = None
        return {**d, "chain_holds": self.chain_holds()}


def atypical_dim_chain(n_pairs: int, eps: float) -> BoundReport:
    """Exact atypical dimension and the loosening chain L1..L5 at (N, eps).

    Valid for eps in (0, 1/4) with N*eps >= 1/2.  Each link holds for
    every such point: L1 <= (sum_{k<T} C(N, k))^3, and T - 1 < 2 N eps < N/2
    makes C(N, T-1) the largest term, so L2 = T^3 C(N, T-1)^3 bounds it;
    C(N, k) <= 2^(N H(k/N)) gives L3; H is increasing below 1/2 and
    (T-1)/N < 2 eps, so H((T-1)/N) <= H(2 eps) <= 2 H(eps) gives L4.  The
    report keeps exact integers where they are exact and log2 values
    throughout.
    """
    _check_regime(n_pairs, eps)
    t = atypical_threshold(n_pairs, eps)
    exact = atypical_count_exact(n_pairs, t)
    l1 = _l1_exact(n_pairs, t)
    l2 = t**3 * math.comb(n_pairs, t - 1) ** 3
    log2_l3 = 3.0 * math.log2(t) + 3.0 * n_pairs * binary_entropy((t - 1) / n_pairs)
    mu = 3.0 * math.log2(t**3) / n_pairs
    rate = 6.0 * binary_entropy(eps) + mu
    log2_l4 = n_pairs * rate
    implied_k = rate / (-eps * math.log2(eps))
    log2_l5 = -n_pairs * implied_k * eps * math.log2(eps)
    return BoundReport(
        n_pairs=n_pairs,
        epsilon=eps,
        threshold=t,
        exact_count=exact,
        l1=l1,
        l2=l2,
        log2_exact=log2_int(exact),
        log2_l1=log2_int(l1),
        log2_l2=log2_int(l2),
        log2_l3=log2_l3,
        log2_l4=log2_l4,
        log2_l5=log2_l5,
        mu=mu,
        implied_k=implied_k,
        margin_vs_full_space=n_pairs - log2_l5,
    )


def eve_info_upper(report: BoundReport, theta: float = 0.0) -> float:
    """Upper bound in bits on Eve's accessible information per session.

    log2 of the exact atypical dimension ``report`` counted, plus an N*theta
    allowance for residual weight outside it.  Dominates the Holevo quantity
    only of coherent attacks supported on the atypical subspace (fewer than
    T = ceil(2 N eps) non-singlet slots) at the report's (N, eps).  Passing
    the default ``two_epsilon`` test does not confine an attack there: a
    non-singlet slot errs with probability 2/3 along a random axis, so
    weight on t slots with 2 N eps <= t < 3 N eps shows an expected test
    error rate below 2 eps and passes with probability tending to 1 as N
    grows.  Nothing here relates theta to that passing probability.
    Raises ConfigError when theta is so large that the bound overflows.
    """
    check_theta(theta)
    upper = report.log2_exact + report.n_pairs * theta
    if not math.isfinite(upper):
        raise ConfigError(f"theta {theta} overflows the bound over {report.n_pairs} pairs")
    return upper


def secrecy_lower_bound(eps: float, kprime: float = 10.0) -> float:
    """Secrecy-rate lower bound max(0, 1 + k' eps log2 eps), eps in [0, 1/4)."""
    eps = float(eps)
    if math.isnan(eps):
        raise ConfigError("epsilon must be a number, got nan")
    if not 0.0 <= eps < 0.25:
        raise RegimeError(f"epsilon {eps} outside the validity regime [0, 1/4)")
    check_kprime(kprime)
    if eps == 0.0:
        return 1.0
    return max(0.0, 1.0 + kprime * eps * math.log2(eps))


def check_kprime(kprime: float) -> None:
    """Raise ConfigError unless the secrecy-rate constant k' is positive and finite."""
    if not 0.0 < kprime < math.inf:
        raise ConfigError(f"kprime must be positive and finite, got {kprime}")


def check_theta(theta: float) -> None:
    """Raise ConfigError unless the per-pair allowance theta is nonnegative and finite."""
    if not 0.0 <= theta < math.inf:
        raise ConfigError(f"theta must be nonnegative and finite, got {theta}")
