"""Property test of the estimators: they are functions of the set of
records, not of their order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ysqht import (
    AcquisitionConfig,
    Counts,
    EstimationError,
    NoiseParams,
    aggregate,
    run_acquisition,
)
from ysqht.theory import ESTIMATORS


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**64 - 1),
    iterations=st.integers(1, 50),
    spread=st.floats(0.0, 1.5),
    rate=st.floats(1.0, 12.0) | st.just(1e4),
    gamma1=st.floats(0.0, 1.0),
    gamma2=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_shuffled_records_give_the_same_estimates(
    seed, iterations, spread, rate, gamma1, gamma2, data
):
    counts = run_acquisition(AcquisitionConfig(
        theta=5.0 * math.pi / 36.0, noise=NoiseParams(spread), seed=seed,
        iterations=iterations, mean_rate=rate,
    ))
    order = data.draw(st.permutations(range(iterations)))
    shuffled = Counts(counts.alpha[order], counts.counts[order])

    def estimates(c):
        result = aggregate(c, gamma1, gamma2)
        return [getattr(result, name) for name, _, _ in ESTIMATORS]

    try:
        before = estimates(counts)
    except EstimationError:
        with pytest.raises(EstimationError):
            estimates(shuffled)
        return
    after = estimates(shuffled)
    # The clean estimates are ratios of exact sums of integers.
    for a, b in zip(before[:4], after[:4]):
        assert a.value == b.value
    # Sums of floats in another order differ in the last bits.  A residual
    # a - r*b is found to about 1e-16 of a, so where the error is tiny next
    # to the value (as at gamma1 = 0.99999) it holds fewer digits, and it is
    # compared to 1e-12 of the value as well.  An undefined error bar (NaN,
    # at a summed numerator of 0) stays undefined.
    for a, b in zip(before, after):
        assert a.n_samples == b.n_samples == iterations
        assert math.isclose(a.value, b.value, rel_tol=1e-12)
        assert math.isnan(a.std_error) == math.isnan(b.std_error)
        if not math.isnan(a.std_error):
            assert math.isclose(a.std_error, b.std_error, rel_tol=1e-12,
                                abs_tol=1e-12 * abs(a.value))
