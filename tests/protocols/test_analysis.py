"""Tests for the analytical protocol analysis (Sec. 3.2.1, Eqs. 4-5)."""

import math
import subprocess
import sys

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.protocols.analysis import (
    acc_grr,
    acc_olh,
    acc_oue,
    acc_ss,
    acc_sue,
    attacker_accuracy,
    oracle_variance,
    profiling_accuracy_non_uniform,
    profiling_accuracy_uniform,
)
from repro.protocols.ue import OUE, SUE

#: ``(epsilon, k, acc_sue, acc_oue)`` as computed when ``scipy.stats`` was
#: still imported at module load; the formulas must reproduce them exactly.
RECORDED_UE_ACCURACIES = (
    (0.5, 2, 0.5621765008857981, 0.5612296656009274),
    (1.0, 16, 0.10301199657133066, 0.11570739920569546),
    (2.0, 100, 0.02718281828458987, 0.04194516903508381),
    (4.0, 74, 0.09984394092942929, 0.2793974043122705),
    (8.0, 3, 0.9702386525623813, 0.6663872457111812),
)


class TestSingleReportAccuracies:
    def test_grr_formula(self):
        assert acc_grr(1.0, 10) == pytest.approx(math.e / (math.e + 9))

    def test_olh_formula(self):
        assert acc_olh(1.0, 74) == pytest.approx(1.0 / (2 * 74 / (math.e + 1)))
        # small domain: capped at 1/2
        assert acc_olh(5.0, 4) == pytest.approx(0.5)

    def test_ss_matches_paper_form_for_large_k(self):
        assert acc_ss(1.0, 64) == pytest.approx((math.e + 1) / (2 * 64), rel=0.15)

    def test_all_accuracies_are_probabilities(self):
        for func in (acc_grr, acc_olh, acc_ss, acc_sue, acc_oue):
            for eps in (0.5, 1.0, 5.0, 10.0):
                for k in (2, 7, 74):
                    value = func(eps, k)
                    assert 0.0 < value <= 1.0, (func.__name__, eps, k)

    def test_accuracy_increases_with_epsilon(self):
        for func in (acc_grr, acc_ss, acc_sue, acc_oue):
            values = [func(eps, 16) for eps in (1, 2, 4, 8)]
            assert values == sorted(values), func.__name__

    def test_grr_decreases_with_k(self):
        values = [acc_grr(2.0, k) for k in (2, 8, 32, 128)]
        assert values == sorted(values, reverse=True)

    def test_dispatch(self):
        assert attacker_accuracy("grr", 1.0, 10) == acc_grr(1.0, 10)
        with pytest.raises(InvalidParameterError):
            attacker_accuracy("bogus", 1.0, 10)

    def test_fig1_ordering_at_high_epsilon(self):
        # Fig. 1: GRR, SS and SUE have the highest attacker accuracy
        k = 16
        eps = 8.0
        high = min(acc_grr(eps, k), acc_ss(eps, k), acc_sue(eps, k))
        low = max(acc_olh(eps, k), acc_oue(eps, k))
        assert high > low


class TestProfilingAccuracies:
    SIZES = (74, 7, 16)

    def test_uniform_is_product(self):
        total = profiling_accuracy_uniform("GRR", 2.0, self.SIZES)
        expected = np.prod([acc_grr(2.0, k) for k in self.SIZES])
        assert total == pytest.approx(expected)

    def test_non_uniform_is_smaller_than_uniform(self):
        for protocol in ("GRR", "OLH", "SS", "SUE", "OUE"):
            uniform = profiling_accuracy_uniform(protocol, 4.0, self.SIZES)
            non_uniform = profiling_accuracy_non_uniform(protocol, 4.0, self.SIZES)
            assert non_uniform < uniform

    def test_non_uniform_factor_is_d_factorial_over_d_power_d(self):
        d = len(self.SIZES)
        uniform = profiling_accuracy_uniform("GRR", 3.0, self.SIZES)
        non_uniform = profiling_accuracy_non_uniform("GRR", 3.0, self.SIZES)
        assert non_uniform / uniform == pytest.approx(math.factorial(d) / d**d)

    def test_empty_sizes_rejected(self):
        with pytest.raises(InvalidParameterError):
            profiling_accuracy_uniform("GRR", 1.0, [])


class TestUnaryAccuracyValues:
    @pytest.mark.parametrize("epsilon, k, sue, oue", RECORDED_UE_ACCURACIES)
    def test_bit_identical_to_recorded_values(self, epsilon, k, sue, oue):
        assert acc_sue(epsilon, k) == sue
        assert acc_oue(epsilon, k) == oue
        assert SUE(k, epsilon).expected_attack_accuracy() == sue
        assert OUE(k, epsilon).expected_attack_accuracy() == oue


def test_cold_imports_load_no_scipy():
    """The CLI, the service and its client start without ``scipy``.

    Importing ``scipy.stats`` takes about a second; only the UE accuracy
    formula needs it, so it is imported there.
    """
    code = (
        "import sys\n"
        "import repro.experiments, repro.service.server, repro.service.client\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestVariance:
    def test_variance_positive_and_decreasing_in_epsilon(self):
        for protocol in ("GRR", "OLH", "SS", "SUE", "OUE"):
            values = [oracle_variance(protocol, eps, 32, 1000) for eps in (0.5, 1, 2, 4)]
            assert all(v > 0 for v in values)
            assert values == sorted(values, reverse=True), protocol

    def test_variance_decreasing_in_n(self):
        assert oracle_variance("GRR", 1.0, 10, 10_000) < oracle_variance("GRR", 1.0, 10, 100)

    def test_oue_beats_sue(self):
        assert oracle_variance("OUE", 1.0, 50, 1000) < oracle_variance("SUE", 1.0, 50, 1000)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(InvalidParameterError):
            oracle_variance("nope", 1.0, 10, 100)
