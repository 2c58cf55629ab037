"""Counting bounds on the eavesdropper and secrecy-rate estimates.

The central object is the "atypical" subspace of N pair slots at error
rate epsilon: the span of Bell-product vectors carrying fewer than
T = ceil(2 N epsilon) non-singlet slots.  The accessible information of an
attack supported there is capped by the log of the subspace dimension;
passing a test does not confine an attack to it (see :func:`eve_info_upper`).
This module computes the exact dimension and the chain of increasingly
generous bounds (:func:`atypical_counts` counts exact and L1 in one pass)

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


def atypical_counts(n_pairs: int, threshold: int) -> tuple[int, int]:
    """The exact atypical dimension and L1 at (N, T), in one pass.

    A length-N word over {0,1,2,3} is its j nonzero slots, C(N, j) ways,
    times a word over {1,2,3} on those slots.  The exact count keeps the
    words with j < T, each with 3^j fillings.  L1 keeps the words in which
    each of 1, 2 and 3 occurs fewer than T times; call their fillings w(j).
    Then w(j) = 3^j for j < T, and no such word has more than 3T - 3
    nonzero letters.  Appending a letter to a length-j filling leaves the
    set only when that letter already occurs T-1 times, which happens in
    C(j, T-1) ways times a filling over the other letters on j-T+1 slots.
    With v(j) the same count over two letters:
      v(j+1) = 2 v(j) - 2 C(j, T-1) [j-T+1 < T]
      w(j+1) = 3 w(j) - 3 C(j, T-1) v(j-T+1)
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    exact = l1 = 0
    w, v, c_n, c_t = 1, [1], 1, 0  # w(j), v(0..j), C(N, j), C(j, T-1)
    for j in range(min(n_pairs, 3 * threshold - 3) + 1):
        l1 += c_n * w
        if j < threshold:
            exact = l1
        lag = j - threshold + 1  # C(j, T-1) = 0 while lag < 0
        if lag >= 0:
            c_t = c_t * j // lag if lag else 1
            w -= c_t * v[lag]
        v.append(2 * (v[j] - c_t * (lag < threshold)))
        c_n, w = c_n * (n_pairs - j) // (j + 1), 3 * w
    return exact, l1


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
    exact, l1 = atypical_counts(n_pairs, t)
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
