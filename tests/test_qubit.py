"""Unit and property tests for states, analyzers, and channels."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ysqht
from ysqht import (
    Analyzer,
    NoiseParams,
    QubitState,
    born_probability,
    dephase,
    dephase_oracle,
    mix,
    pure_state,
    tilt,
)
from ysqht.qubit import EPS, _clamp_probability

THETA_B = 5.0 * math.pi / 36.0
DELTA_FIG2 = 2.0 * math.pi / 9.0

# Frozen by direct evaluation of the defining formulas.
SIN_2THETA_B = 0.766044443118978
COS_2THETA_B = 0.6427876096865394
Q1 = 0.8213938048432696          # (1 + cos 2theta)/2 at theta = 5pi/36
SMEARING_FIG2 = 0.3772769509544543   # exp(-2 (2pi/9)^2)
P2_FIG2 = 0.6886384754772271
Q2_FIG2 = 0.6212544747469197


class TestQubitState:
    def test_pure_state_north_pole(self):
        s = pure_state(0.0)
        assert (s.bloch_x, s.bloch_z) == (0.0, 1.0)

    def test_pure_state_diagonal(self):
        s = pure_state(math.pi / 4.0)
        assert s.bloch_x == pytest.approx(1.0, abs=1e-15)
        assert s.bloch_z == pytest.approx(0.0, abs=1e-15)

    def test_pure_state_tilted(self):
        s = pure_state(THETA_B)
        assert s.bloch_x == pytest.approx(SIN_2THETA_B, abs=1e-15)
        assert s.bloch_z == pytest.approx(COS_2THETA_B, abs=1e-15)

    def test_pure_state_unit_norm(self):
        for beta in np.linspace(-2.0, 2.0, 17):
            assert pure_state(beta).bloch_norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_pure_state_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            pure_state(bad)

    def test_rejects_unphysical_norm(self):
        with pytest.raises(ValueError, match="Bloch norm"):
            QubitState(0.8, 0.8)

    def test_tolerates_roundoff_at_boundary(self):
        QubitState(0.0, 1.0 + 5e-13)  # within EPS of pure


class TestAnalyzer:
    def test_canonicalizes_modulo_pi(self):
        assert Analyzer(THETA_B + math.pi).theta == pytest.approx(
            THETA_B, abs=1e-12
        )
        assert Analyzer(-0.1).theta == pytest.approx(math.pi - 0.1, abs=1e-12)

    def test_same_device_same_probability(self):
        state = pure_state(0.3)
        p = born_probability(state, Analyzer(THETA_B))
        p_flipped = born_probability(state, Analyzer(THETA_B + math.pi))
        assert p == pytest.approx(p_flipped, abs=1e-12)


class TestNoiseParams:
    def test_smearing_definition(self):
        for d in (0.1, 0.5, DELTA_FIG2, 1.2):
            n = NoiseParams(d)
            assert n.smearing == pytest.approx(
                math.exp(-2.0 * d * d), rel=1e-15
            )

    def test_zero_noise_means_unit_smearing(self):
        assert NoiseParams(0.0).smearing == 1.0

    def test_rejects_negative_spread(self):
        with pytest.raises(ValueError):
            NoiseParams(-0.1)


class TestBornProbability:
    def test_clean_probe_on_reference_analyzer(self):
        assert born_probability(pure_state(0.0), Analyzer(0.0)) == 1.0

    def test_orthogonal_basis_midpoint(self):
        p = born_probability(pure_state(0.0), Analyzer(math.pi / 4.0))
        assert p == pytest.approx(0.5, abs=1e-15)

    def test_tilted_analyzer(self):
        p = born_probability(pure_state(0.0), Analyzer(THETA_B))
        assert p == pytest.approx(Q1, abs=1e-15)

    def test_range_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            radius = rng.uniform(0.0, 1.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            state = QubitState(
                radius * math.cos(angle), radius * math.sin(angle)
            )
            p = born_probability(state, Analyzer(rng.uniform(0.0, math.pi)))
            assert 0.0 <= p <= 1.0

    def test_clamps_roundoff_above_one(self):
        state = QubitState(0.0, 1.0 + 5e-13)
        assert born_probability(state, Analyzer(0.0)) == 1.0


class TestDephase:
    def test_zero_noise_is_identity(self):
        s = pure_state(0.37)
        assert dephase(s, NoiseParams(0.0)) == s

    def test_contracts_by_smearing(self):
        out = dephase(pure_state(0.0), NoiseParams(DELTA_FIG2))
        assert out.bloch_x == 0.0
        assert out.bloch_z == pytest.approx(SMEARING_FIG2, rel=1e-15)

    def test_large_noise_depolarizes(self):
        out = dephase(pure_state(0.7), NoiseParams(50.0))
        assert out.bloch_norm() == pytest.approx(0.0, abs=1e-300)
        p = born_probability(out, Analyzer(0.3))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_semigroup_composition(self):
        # Two passes compose like a single pass with spreads added in
        # quadrature (Gaussian convolution).
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = pure_state(rng.uniform(-1.0, 1.0))
            d1, d2 = rng.uniform(0.01, 1.0, size=2)
            twice = dephase(dephase(s, NoiseParams(d1)), NoiseParams(d2))
            once = dephase(s, NoiseParams(math.hypot(d1, d2)))
            assert twice.bloch_x == pytest.approx(once.bloch_x, abs=1e-12)
            assert twice.bloch_z == pytest.approx(once.bloch_z, abs=1e-12)

    def test_never_leaves_unit_disk(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = pure_state(rng.uniform(-2.0, 2.0))
            out = dephase(s, NoiseParams(rng.uniform(0.0, 2.0)))
            assert out.bloch_norm() <= 1.0 + 1e-12


class TestDephaseOracle:
    def test_reproduces_noisy_probe_p2(self):
        p = dephase_oracle(
            pure_state(0.0), NoiseParams(DELTA_FIG2), Analyzer(0.0)
        )
        assert p == pytest.approx(P2_FIG2, abs=1e-9)

    def test_reproduces_noisy_probe_q2(self):
        p = dephase_oracle(
            pure_state(0.0), NoiseParams(DELTA_FIG2), Analyzer(THETA_B)
        )
        assert p == pytest.approx(Q2_FIG2, abs=1e-9)

    def test_small_noise_limit(self):
        p = dephase_oracle(pure_state(0.0), NoiseParams(0.01), Analyzer(0.0))
        assert p == pytest.approx(0.9999000099993334, abs=1e-9)

    def test_zero_noise_falls_back_to_born(self):
        s = pure_state(0.2)
        a = Analyzer(0.5)
        assert dephase_oracle(s, NoiseParams(0.0), a) == born_probability(s, a)

    def test_rejects_spread_beyond_supported_window(self):
        with pytest.raises(ValueError, match="delta_std"):
            dephase_oracle(pure_state(0.0), NoiseParams(1.3), Analyzer(0.0))

    def test_matches_closed_form_on_mixed_states(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            radius = rng.uniform(0.0, 1.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            state = QubitState(
                radius * math.cos(angle), radius * math.sin(angle)
            )
            noise = NoiseParams(rng.uniform(0.05, 1.2))
            analyzer = Analyzer(rng.uniform(0.0, math.pi))
            direct = born_probability(dephase(state, noise), analyzer)
            assert dephase_oracle(state, noise, analyzer) == pytest.approx(
                direct, abs=1e-14
            )

    def test_never_reads_the_smearing(self):
        state, analyzer = pure_state(0.3), Analyzer(THETA_B)
        noise = NoiseParams(DELTA_FIG2)
        closed = born_probability(dephase(state, noise), analyzer)
        object.__setattr__(noise, "smearing", 0.5)
        assert born_probability(dephase(state, noise), analyzer) != \
            pytest.approx(closed, abs=1e-3)
        assert dephase_oracle(state, noise, analyzer) == pytest.approx(
            closed, abs=1e-14
        )

    def test_loads_neither_scipy_nor_polynomial_with_the_cli(self):
        # The rule is built on the first call, from numpy alone.
        probe = (
            "import sys, ysqht.cli\n"
            "print('numpy.polynomial' in sys.modules)\n"
            "from ysqht import Analyzer, NoiseParams, dephase_oracle, "
            "pure_state\n"
            "dephase_oracle(pure_state(0.0), NoiseParams(0.5), Analyzer(0.2))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ysqht.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=env, check=True,
        )
        assert result.stdout.splitlines() == ["False", "[]"]


class TestTilt:
    def test_matches_pure_state_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            beta, alpha = rng.uniform(-3.0, 3.0, size=2)
            rotated = tilt(pure_state(beta), alpha)
            expected = pure_state(beta + alpha)
            assert rotated.bloch_x == pytest.approx(expected.bloch_x, abs=1e-12)
            assert rotated.bloch_z == pytest.approx(expected.bloch_z, abs=1e-12)


class TestMix:
    def test_full_weight_keeps_clean(self):
        clean, noisy = pure_state(0.0), pure_state(0.4)
        assert mix(1.0, clean, noisy) == clean

    def test_zero_weight_keeps_noisy(self):
        clean, noisy = pure_state(0.0), pure_state(0.4)
        assert mix(0.0, clean, noisy) == noisy

    def test_midpoint_with_depolarized(self):
        out = mix(0.5, pure_state(0.0), QubitState(0.0, 0.0))
        assert (out.bloch_x, out.bloch_z) == (0.0, 0.5)

    @pytest.mark.parametrize("gamma", [-0.1, 1.1, math.nan])
    def test_rejects_bad_weight(self, gamma):
        with pytest.raises(ValueError):
            mix(gamma, pure_state(0.0), pure_state(0.1))

    def test_born_is_linear_under_mixing(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            a = pure_state(rng.uniform(-1.0, 1.0))
            b = dephase(pure_state(rng.uniform(-1.0, 1.0)),
                        NoiseParams(rng.uniform(0.0, 1.0)))
            gamma = rng.uniform(0.0, 1.0)
            analyzer = Analyzer(rng.uniform(0.0, math.pi))
            mixed = born_probability(mix(gamma, a, b), analyzer)
            split = gamma * born_probability(a, analyzer) + (
                1.0 - gamma
            ) * born_probability(b, analyzer)
            assert mixed == pytest.approx(split, abs=1e-12)

    def test_preserves_unit_disk(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = pure_state(rng.uniform(-2.0, 2.0))
            b = pure_state(rng.uniform(-2.0, 2.0))
            out = mix(rng.uniform(0.0, 1.0), a, b)
            assert out.bloch_norm() <= 1.0 + 1e-12


class TestClampProbability:
    @pytest.mark.parametrize("p, clamped", [(-EPS / 2, 0.0),
                                            (1.0 + EPS / 2, 1.0)])
    def test_roundoff_is_clamped_into_the_unit_interval(self, p, clamped):
        assert _clamp_probability(p, "born_probability") == clamped

    @pytest.mark.parametrize("p", [-2 * EPS, 1.0 + 1e-9])
    def test_larger_excursion_names_its_context(self, p):
        with pytest.raises(ValueError) as err:
            _clamp_probability(p, "dephase_oracle")
        assert str(err.value) == (
            f"dephase_oracle produced probability {p} outside [0, 1]")
