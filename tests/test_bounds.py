"""Tests for entropy/counting bounds and the secrecy-rate floor."""

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdlab.bounds import (
    atypical_counts,
    atypical_dim_chain,
    atypical_threshold,
    binary_entropy,
    eve_info_upper,
    secrecy_lower_bound,
)
from qkdlab.channel import ChannelModel, sample_common_axis_outcomes
from qkdlab.cli import main
from qkdlab.errors import ConfigError, RegimeError
from qkdlab.qstate import random_axes
from qkdlab.rng import stream


def brute_l1(n, t):
    """Triple sum of multinomial products, directly."""
    total = 0
    for a in range(t):
        for b in range(t):
            for c in range(t):
                total += (
                    math.comb(n, a) * math.comb(n - a, b) * math.comb(n - a - b, c)
                )
    return total


def sum_exact(n, t):
    """Words with fewer than T nonzero letters: one sum of C(N,k) 3^k."""
    return sum(math.comb(n, k) * 3**k for k in range(min(t, n + 1)))


def comb_l1(n, t):
    """The same triple sum with the inner sums shared across outer terms."""
    inner = {}

    def s_inner(k):
        if k not in inner:
            inner[k] = sum(math.comb(k, c) for c in range(t))
        return inner[k]

    middle = {}

    def s_middle(k):
        if k not in middle:
            middle[k] = sum(math.comb(k, b) * s_inner(k - b) for b in range(t))
        return middle[k]

    return sum(math.comb(n, a) * s_middle(n - a) for a in range(t))


@st.composite
def in_regime_points(draw):
    n = draw(st.integers(3, 2000))
    eps = draw(st.floats(0.5 / n, 0.25, exclude_max=True))
    return n, eps


@st.composite
def integer_threshold_points(draw):
    """In-regime (N, eps) with 2 N eps = T an integer, so T/N = 2 eps."""
    n = draw(st.integers(3, 2000))
    t = draw(st.integers(1, (n - 1) // 2))
    return n, t / (2 * n)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_near_half_bit_point(self):
        assert binary_entropy(0.11) == pytest.approx(0.49999, abs=1e-4)

    def test_concave_on_grid(self):
        xs = np.linspace(0.01, 0.99, 197)
        h = np.array([binary_entropy(x) for x in xs])
        assert np.all(h[1:-1] >= (h[:-2] + h[2:]) / 2 - 1e-12)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestBinomialEntropyInequality:
    def test_small_example(self):
        lhs, rhs = math.comb(4, 2), 4 * binary_entropy(2 / 4)
        assert math.log2(lhs) == pytest.approx(math.log2(6))
        assert rhs == pytest.approx(4.0)

    def test_equality_at_zero(self):
        lhs, rhs = math.comb(10, 0), 10 * binary_entropy(0 / 10)
        assert lhs == 1 and rhs == 0.0

    def test_exhaustive_sweep(self):
        for n in range(0, 201):
            for r in range(0, n + 1):
                lhs, rhs = (math.comb(n, r), n * binary_entropy(r / n)) if n else (1, 0.0)
                assert math.log2(lhs) <= rhs + 1e-9


class TestAtypicalCount:
    def test_trivial_threshold(self):
        assert atypical_counts(7, 1)[0] == 1

    def test_hand_counts(self):
        assert atypical_counts(4, 2)[0] == 13
        assert atypical_counts(20, 3)[0] == 1771
        assert atypical_counts(100, 2)[0] == 301

    def test_threshold_rounding(self):
        assert atypical_threshold(100, 0.01) == 2
        assert atypical_threshold(50, 0.02) == 2
        # 2*50*0.01 = 1.0 in exact arithmetic; float fuzz must not bump it
        assert atypical_threshold(50, 0.01) == 1
        assert atypical_threshold(100, 0.013) == 3


class TestDimChain:
    def test_integers_too_long_to_print_are_none(self):
        """2^14283 - 1 has 4,300 digits and is kept; 2^14283 may print longer."""
        rep = atypical_dim_chain(100, 0.01)
        kept = replace(rep, l2=2**14283 - 1).to_dict()
        assert kept["l2"] == 2**14283 - 1 and len(str(kept["l2"])) == 4300
        dropped = replace(rep, exact_count=2**14283, l1=2**14283, l2=2**20000).to_dict()
        assert (dropped["exact_count"], dropped["l1"], dropped["l2"]) == (None, None, None)
        assert dropped["chain_holds"] == rep.chain_holds()

    def test_l1_matches_brute_force(self):
        rep = atypical_dim_chain(100, 0.01)
        assert rep.threshold == 2
        assert rep.exact_count == 301
        assert rep.l1 == brute_l1(100, 2) == 1000201

    @settings(max_examples=200)
    @given(st.integers(0, 80).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (n + 2) // 2))))
    @example((7, 0))
    def test_l1_recurrence_matches_triple_sum(self, point):
        """Both counts of the one pass, T = 0 included, against their sums."""
        n, t = point
        assert atypical_counts(n, t) == (sum_exact(n, t), comb_l1(n, t))

    def test_l1_pinned_at_n2000_eps01(self):
        # SHA-256 of the decimal L1 (1153 digits) from the triple sum
        rep = atypical_dim_chain(2000, 0.1)
        assert rep.threshold == 400
        assert hashlib.sha256(str(rep.l1).encode()).hexdigest() == (
            "021bb0407844150efe43faade6d7fb9c040acfbedde75474575945d9db888054")

    def test_chain_pinned_above_the_print_cap(self, capsys):
        # SHA-256 of the hex integers (str() refuses L1 and L2: over 4,300
        # digits), computed with the per-term sum and the per-slot recurrence
        rep = atypical_dim_chain(40000, 0.02)
        assert rep.threshold == 1600 and rep.chain_holds()
        digests = {key: hashlib.sha256(format(getattr(rep, key), "x").encode()).hexdigest()
                   for key in ("exact_count", "l1", "l2")}
        assert digests == {
            "exact_count": "6e9ef3fc4adfd142f2cb421b6e82fbfbf2e4718b3f01b41605b3e55906e8332a",
            "l1": "a4bfb66f84e50855d9cc33f85c5e83d3cf26ac2de651298198abefadaba83ab3",
            "l2": "730a2f19890364b46d0dc3e9e23e02a688d3c6f3fd01e69f280130c571770465",
        }
        assert main(["bounds", "--n", "40000", "--epsilon", "0.02"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["l1"], out["l2"]) == (None, None)
        assert out["log2_l1"] == 28749.226215861014

    @settings(max_examples=60)
    @given(integer_threshold_points())
    def test_chain_holds_at_integer_thresholds(self, point):
        rep = atypical_dim_chain(*point)
        assert rep.threshold == round(2 * point[0] * point[1])
        assert rep.chain_holds(), point

    @settings(max_examples=120)
    @given(in_regime_points())
    @example((50, 0.011))
    @example((460, 0.0010877))
    def test_links_hold_in_regime(self, point):
        # every link, L3 <= L4 included; the examples are points where
        # T = ceil(2 N eps) overshoots 2 N eps at small T
        assert atypical_dim_chain(*point).chain_holds(), point

    def test_n50_example(self):
        rep = atypical_dim_chain(50, 0.02)
        assert rep.threshold == 2
        assert rep.exact_count == 151
        assert rep.exact_count <= rep.l1 == brute_l1(50, 2)

    def test_chain_ordering_on_grid(self):
        for n in (20, 50, 100, 200, 500):
            for eps in (0.01, 0.02, 0.05, 0.1, 0.2):
                if n * eps < 0.5:
                    continue
                rep = atypical_dim_chain(n, eps)
                assert rep.chain_holds(), (n, eps)
                assert rep.log2_exact <= rep.log2_l1 + 1e-9
                assert rep.log2_l1 <= rep.log2_l2 + 1e-9
                assert rep.log2_l2 <= rep.log2_l3 + 1e-9
                assert rep.log2_l3 <= rep.log2_l4 + 1e-9

    def test_exponentially_small_margin(self):
        # log2 of the bound stays far below N (the full-space exponent 2N)
        rep = atypical_dim_chain(500, 0.01)
        assert rep.log2_l5 < 500
        assert rep.margin_vs_full_space > 0

    def test_implied_k_consistency(self):
        rep = atypical_dim_chain(100, 0.02)
        want = rep.log2_l4 / (-100 * 0.02 * math.log2(0.02))
        assert rep.implied_k == pytest.approx(want)
        assert rep.log2_l5 == pytest.approx(rep.log2_l4)

    def test_regime_rejection(self):
        with pytest.raises(RegimeError):
            atypical_dim_chain(100, 0.25)
        with pytest.raises(RegimeError):
            atypical_dim_chain(100, 0.3)
        with pytest.raises(RegimeError):
            atypical_dim_chain(20, 0.01)  # N*eps = 0.2 < 1/2

    def test_report_serializes(self):
        d = atypical_dim_chain(100, 0.01).to_dict()
        assert d["exact_count"] == 301
        assert d["l1"] == 1000201
        assert d["chain_holds"] is True
        assert "log2_l4" in d and "mu" in d


class TestEveInfoUpper:
    def test_ideal_limit_zero(self):
        # T = 1: only the all-singlet vector is atypical
        assert eve_info_upper(atypical_dim_chain(4, 0.125), 0.0) == pytest.approx(0.0)

    def test_log_of_exact_count(self):
        assert eve_info_upper(atypical_dim_chain(4, 0.13), 0.0) == pytest.approx(math.log2(13))

    def test_theta_term(self):
        report = atypical_dim_chain(10, 0.1)
        assert eve_info_upper(report, 0.05) == pytest.approx(eve_info_upper(report, 0.0) + 0.5)


class TestSecrecyLowerBound:
    def test_ideal_channel(self):
        assert secrecy_lower_bound(0.0) == 1.0

    def test_clamped_to_zero(self):
        # k'=10 already kills the rate at eps=0.05
        assert secrecy_lower_bound(0.05, 10.0) == 0.0

    def test_monotone_decreasing(self):
        eps = np.linspace(1e-5, 0.03, 50)
        vals = [secrecy_lower_bound(e, 10.0) for e in eps]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_gap_scales_like_eps_log_eps(self):
        for kprime in (5.0, 10.0):
            for e in (1e-2, 1e-3, 1e-4):
                gap = 1.0 - secrecy_lower_bound(e, kprime)
                assert gap == pytest.approx(-kprime * e * math.log2(e))

    def test_regime_rejection(self):
        with pytest.raises(RegimeError):
            secrecy_lower_bound(0.25)
        with pytest.raises(RegimeError):
            secrecy_lower_bound(-0.01)

    def test_nan_is_a_config_error(self):
        with pytest.raises(ConfigError):
            secrecy_lower_bound(math.nan)


@dataclass(frozen=True)
class MixtureReport:
    """Observed vs expected error rate for a two-rate tensor mixture."""

    rate_x: float
    rate_y: float
    weight_x: float
    weight_y: float
    n_samples: int
    observed_rate: float
    expected_rate: float
    three_sigma: float
    bound_at_mixture: float
    mixed_bound_value: float

    @property
    def within_three_sigma(self) -> bool:
        return abs(self.observed_rate - self.expected_rate) <= self.three_sigma


def mixture_error_rate(
    rate_x: float,
    rate_y: float,
    weight_x: float,
    weight_y: float,
    n_samples: int,
    rng: np.random.Generator,
    kprime: float = 10.0,
) -> MixtureReport:
    """Simulate a block mixture of two channel strategies and report rates.

    A fraction ``weight_x`` of positions runs at error rate ``rate_x`` and
    the rest at ``rate_y`` (a tensor product of the two strategies).  Each
    block is realized as a Werner channel measured along random common
    axes, so the observed rate checks a*x + b*y against honest sampling.
    The report also evaluates the secrecy bound at the mixed rate and the
    weight-mixed bound values, for convexity inspection (a mixture never
    hides errors: the rate is exactly linear, while the bound values are
    reported without asserting convexity).
    """
    if abs(weight_x + weight_y - 1.0) > 1e-9 or weight_x < 0.0 or weight_y < 0.0:
        raise ValueError("weights must be nonnegative and sum to 1")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    n_x = int(round(weight_x * n_samples))
    blocks = [(rate_x, n_x), (rate_y, n_samples - n_x)]
    errors = 0
    for rate, count in blocks:
        if count == 0:
            continue
        labels = ChannelModel.from_epsilon(rate).sample_labels(count, rng)
        axes = random_axes(count, rng)
        a, b = sample_common_axis_outcomes(labels, axes, rng)
        errors += int((a == b).sum())
    expected = (n_x * rate_x + (n_samples - n_x) * rate_y) / n_samples
    sigma = math.sqrt(max(expected * (1.0 - expected), 1e-12) / n_samples)

    def bound(r: float) -> float:
        try:
            return secrecy_lower_bound(r, kprime)
        except RegimeError:
            return 0.0

    return MixtureReport(
        rate_x=rate_x,
        rate_y=rate_y,
        weight_x=weight_x,
        weight_y=weight_y,
        n_samples=n_samples,
        observed_rate=errors / n_samples,
        expected_rate=expected,
        three_sigma=3.0 * sigma,
        bound_at_mixture=bound(expected),
        mixed_bound_value=weight_x * bound(rate_x) + weight_y * bound(rate_y),
    )


class TestMixture:
    def test_degenerate_mixture(self):
        rng = stream(301)
        rep = mixture_error_rate(0.02, 0.02, 1.0, 0.0, 20000, rng)
        assert rep.expected_rate == pytest.approx(0.02)
        assert abs(rep.observed_rate - 0.02) < rep.three_sigma

    def test_two_rate_mixture(self):
        rng = stream(302)
        rep = mixture_error_rate(0.0, 0.5, 0.5, 0.5, 40000, rng)
        assert rep.expected_rate == pytest.approx(0.25)
        assert abs(rep.observed_rate - rep.expected_rate) < rep.three_sigma

    def test_reports_bound_values(self):
        rng = stream(303)
        rep = mixture_error_rate(0.01, 0.03, 0.5, 0.5, 20000, rng)
        assert rep.bound_at_mixture == pytest.approx(secrecy_lower_bound(0.02))
        mixed = 0.5 * secrecy_lower_bound(0.01) + 0.5 * secrecy_lower_bound(0.03)
        assert rep.mixed_bound_value == pytest.approx(mixed)
