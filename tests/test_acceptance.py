"""Acceptance suite: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single
pass/fail line per criterion.  Statistical checks use 3-sigma windows
around exact expectations; exact checks pin integer or closed-form
values outright.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from qkdlab.adversary import (
    CoherentAttack,
    InterceptResend,
    SubstituteAttack,
    TestPlan,
    axis_averaged_passing_probability,
    conditional_ancilla_state,
    error_count_distribution,
)
from qkdlab.bounds import (
    atypical_counts,
    atypical_dim_chain,
    binary_entropy,
    secrecy_lower_bound,
)
from qkdlab.channel import ChannelModel, sample_common_axis_outcomes
from qkdlab.cli import main, simulate_trial
from qkdlab.postprocess import final_key_length
from qkdlab.protocol import SessionConfig, run_bb84_session, run_epr_session
from qkdlab.qstate import AXIS_X, AXIS_Z, random_axes, von_neumann_entropy
from qkdlab.rng import stream
from physics import cloning_report, random_signal_pair, random_unitary, signal_preserving_unitary
from reference import spin_projectors


def bell_product(labels, ancilla_dim=1):
    t = np.zeros((4,) * len(labels) + (ancilla_dim,), dtype=complex)
    t[tuple(labels) + (0,)] = 1.0
    return CoherentAttack(t)


def test_c01_antiparallel_rate_tracks_fidelity():
    """Measured anti-correlation matches (1 + 2F)/3 at every fidelity."""
    rng = stream(901)
    n = 10 ** 5
    for f in (1.0, 0.97, 0.9, 0.25):
        t0 = time.perf_counter()
        labels = ChannelModel(f).sample_labels(n, rng)
        axes = random_axes(n, rng)
        oa, ob = sample_common_axis_outcomes(labels, axes, rng)
        observed = float((oa != ob).mean())
        want = (1 + 2 * f) / 3
        if f == 1.0:
            assert observed == 1.0
        else:
            sigma = math.sqrt(want * (1.0 - want) / n)
            assert abs(observed - want) < 3 * sigma
        assert time.perf_counter() - t0 < 10.0


def test_c02_intercept_resend_qber_quarter():
    """Full interception shows up as a 25% error rate on the test sample."""
    cfg = SessionConfig(100000, 1, 0.02, omega=0.5)
    tr = run_bb84_session(cfg, ChannelModel(1.0), InterceptResend("random"),
                          stream(902))
    assert tr.test_size >= 10 ** 4
    sigma = math.sqrt(0.25 * 0.75 / tr.test_size)
    assert abs(tr.error_rate_estimate - 0.25) < 3 * sigma
    assert tr.verdict == "rejected"
    # exact projector enumeration over preparations x interception bases
    rect = spin_projectors(AXIS_Z)
    diag = spin_projectors(AXIS_X)
    states = {
        b: tuple(np.linalg.eigh(p)[1][:, -1] for p in ps)
        for b, ps in (("rect", rect), ("diag", diag))
    }
    total = 0.0
    for a_basis in ("rect", "diag"):
        for a_bit in (0, 1):
            sent = states[a_basis][a_bit]
            wrong = states[a_basis][1 - a_bit]
            for e_basis in ("rect", "diag"):
                for e_bit in (0, 1):
                    e_state = states[e_basis][e_bit]
                    p_eve = abs(np.vdot(e_state, sent)) ** 2
                    total += p_eve * abs(np.vdot(wrong, e_state)) ** 2
    assert total / 8 == pytest.approx(0.25, abs=1e-12)


def test_c03_basis_bias_controls_sifted_fraction():
    """Sifted fraction follows (1-w)^2 + w^2 and rises as bias grows."""
    fractions = {}
    for omega in (0.5, 0.2, 0.05):
        cfg = SessionConfig(100000, 1, 0.01, omega=omega)
        tr = run_bb84_session(cfg, ChannelModel(1.0), None, stream(903))
        want = (1 - omega) ** 2 + omega ** 2
        sigma = math.sqrt(want * (1 - want) / 100000)
        assert abs(tr.sifted_fraction - want) < 3 * sigma
        fractions[omega] = tr.sifted_fraction
    assert fractions[0.05] / fractions[0.5] >= 1.8


def test_c04_substitution_caught_by_count_window():
    """A two-sided count window rejects both heavy and suppressed tampering."""
    n, m, eps, sessions = 20000, 10000, 0.01, 200
    cfg = SessionConfig(n, m, eps, window_coeff=1.0, threshold_mode="window")

    rejected = 0
    for t in range(sessions):
        tr = run_epr_session(cfg, ChannelModel.from_epsilon(eps),
                             SubstituteAttack(fraction=2 * eps), stream(904, t))
        rejected += tr.verdict == "rejected"
    assert rejected >= 0.95 * sessions

    accepted = 0
    for t in range(sessions):
        tr = run_epr_session(cfg, ChannelModel(1.0),
                             SubstituteAttack(fraction=eps / 2), stream(905, t))
        accepted += tr.verdict == "accepted"
    assert accepted <= 0.05 * sessions

    # exact acceptance probabilities: substituted pairs err at 2/3, honest
    # pairs at the channel rate, with the tested substituted count
    # hypergeometric in (n, round(a n), m)
    def accept_prob(sub_fraction, channel_eps):
        lo, hi = 99, 101
        k = round(sub_fraction * n)
        t_vals = np.arange(0, k + 1)
        weights = stats.hypergeom.pmf(t_vals, n, k, m)
        p = 0.0
        for t, w in zip(t_vals, weights):
            if w < 1e-15:
                continue
            j = np.arange(0, min(t, hi) + 1)
            pa = stats.binom.pmf(j, t, 2 / 3)
            pb = stats.binom.cdf(hi - j, m - t, channel_eps) - stats.binom.cdf(
                lo - j - 1, m - t, channel_eps)
            p += w * float((pa * pb).sum())
        return p

    assert accept_prob(2 * eps, eps) < 0.05
    assert accept_prob(eps / 2, 0.0) < 0.05


def test_c05_perfect_passing_isolates_all_singlet():
    """Testing every pair passes surely only for the all-singlet state."""
    rng = stream(906)
    perfect_cases = 0
    for n in (2, 3, 4):
        for _ in range(40):
            amps = rng.normal(size=(4,) * n + (2,)) + 1j * rng.normal(
                size=(4,) * n + (2,))
            amps /= np.linalg.norm(amps)
            attack = CoherentAttack(amps)
            plan = TestPlan(tuple(range(n)), random_axes(n, rng), 0, 0)
            assert error_count_distribution(attack, plan)[0] < 1.0 - 1e-9

        singlets = bell_product((0,) * n)
        for _ in range(5):
            plan = TestPlan(tuple(range(n)), random_axes(n, rng), 0, 0)
            p = error_count_distribution(singlets, plan)[0]
            assert p == pytest.approx(1.0, abs=1e-12)
            rho = conditional_ancilla_state(singlets, plan)
            assert von_neumann_entropy(rho) <= 1e-9
            perfect_cases += 1

        # a trace of any other component already breaks certainty
        spiked = np.zeros((4,) * n + (1,), dtype=complex)
        spiked[(0,) * n + (0,)] = math.sqrt(1 - 1e-6)
        spiked[(3,) + (0,) * (n - 1) + (0,)] = math.sqrt(1e-6)
        atk = CoherentAttack(spiked)
        plan = TestPlan(tuple(range(n)), random_axes(n, rng), 0, 0)
        assert error_count_distribution(atk, plan)[0] < 1.0 - 1e-9
    assert perfect_cases >= 15


def test_c06_single_defect_axis_average():
    """One corrupted pair among four passes a 2-pair test 2/3 of the time."""
    attack = bell_product((2, 0, 0, 0))
    mean, stderr = axis_averaged_passing_probability(
        attack, 2, stream(907), n_samples=10 ** 5, accept=(0, 0))
    # tested with prob 1/2 (hypergeometric) and then errs 2/3 of the time
    exact = 1.0 - 0.5 * (2 / 3)
    assert stderr < 0.005
    assert abs(mean - exact) < 3 * stderr


def test_c07_dimension_chain_ordering():
    """Counting bounds nest in order at every in-regime grid point."""
    checked = 0
    for n in (20, 50, 100, 200, 500):
        for eps in (0.01, 0.02, 0.05, 0.1):
            if n * eps < 0.5:
                continue
            rep = atypical_dim_chain(n, eps)
            assert rep.chain_holds(), (n, eps)
            assert rep.log2_exact <= rep.log2_l1 + 1e-9
            assert rep.log2_l4 == pytest.approx(rep.log2_l5)
            checked += 1
    assert checked >= 12
    assert atypical_counts(100, 2)[0] == 301
    assert atypical_counts(4, 2)[0] == 13


def test_c08_binomial_entropy_bound_exhaustive():
    """C(n, r) <= 2^(n H(r/n)) for every r <= n <= 200, quickly."""
    t0 = time.perf_counter()
    for n in range(0, 201):
        for r in range(0, n + 1):
            comb, exponent = (math.comb(n, r), n * binary_entropy(r / n)) if n else (1, 0.0)
            assert math.log2(comb) <= exponent + 1e-9, (n, r)
    assert time.perf_counter() - t0 < 5.0


def test_c09_secrecy_rate_approaches_unity():
    """The distillable-rate bound climbs to one as the error rate vanishes."""
    s2 = secrecy_lower_bound(1e-2)
    s3 = secrecy_lower_bound(1e-3)
    s4 = secrecy_lower_bound(1e-4)
    assert 0.0 < s2 < s3 < s4 < 1.0
    assert 1.0 - s4 < 15 * 10.0 * 1e-4
    assert ChannelModel.from_epsilon(0.5).fidelity == 0.25


def test_c10_information_disturbance_tradeoff():
    """Probes that learn nothing leave signals alone; informative ones can't."""
    rng = stream(908)
    for _ in range(100):
        u1, u2 = random_signal_pair(rng)
        u, probe = signal_preserving_unitary(u1, u2, 4, rng)
        rep = cloning_report(u, u1, u2, probe)
        assert rep.probe_overlap == pytest.approx(1.0, abs=1e-9)
        assert rep.max_fidelity_deficit <= 1e-9

    informative = 0
    draws = 0
    while informative < 100 and draws < 3000:
        draws += 1
        u1, u2 = random_signal_pair(rng)
        u = random_unitary(8, rng)
        probe = rng.normal(size=4) + 1j * rng.normal(size=4)
        probe /= np.linalg.norm(probe)
        rep = cloning_report(u, u1, u2, probe)
        if rep.helstrom_bits >= 0.01:
            informative += 1
            assert rep.max_fidelity_deficit >= 1e-6
    assert informative == 100


def test_c11_end_to_end_key_agreement():
    """Estimate, reconcile, and compress 10^5-pair sessions into equal keys."""
    cfg = SessionConfig(100000, 10000, 0.02, threshold_mode="two_epsilon")
    chan = ChannelModel.from_epsilon(0.02)
    agreed = 0
    for t in range(100):
        tr, res = simulate_trial("epr", cfg, chan, None, 909, t, 5.0)
        assert tr.verdict == "accepted"
        assert res is not None
        assert res.final_length == final_key_length(
            tr.sifted_key_a.size, tr.error_rate_estimate, res.leaked_bits, 5.0)
        assert res.final_length > 0
        agreed += res.keys_equal
    assert agreed >= 99


def test_c12_deterministic_csv_replay(tmp_path, capsys):
    """The same scenario and seed reproduce every output byte for byte."""
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({
        "name": "replay", "protocol": "epr", "n": 5000, "m": 500,
        "epsilon": 0.02, "trials": 5, "seed": 77, "kprime": 5.0,
    }))
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        summ = tmp_path / f"{tag}.json"
        code = main(["simulate", "--scenario", str(scen),
                     "--out", str(out), "--summary", str(summ)])
        capsys.readouterr()
        assert code == 0
        outputs.append((out.read_bytes(), summ.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    rows = list(csv.DictReader(io.StringIO(outputs[0][0].decode())))
    assert len(rows) == 5 and rows[0]["verdict"] in ("accepted", "rejected")
