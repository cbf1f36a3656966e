"""Property tests of the estimators: each is a ratio of sums, undefined
where its denominator sums to 0, and a function of the set of records, not
of their order."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ysqht import (
    AcquisitionConfig,
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
    shuffled = counts[order]

    def estimates(c):
        result = aggregate(c, gamma1, gamma2)
        return [getattr(result, name) for name, _, _ in ESTIMATORS]

    before, after = estimates(counts), estimates(shuffled)
    # The clean estimates are ratios of exact sums of integers, or NaN
    # where a denominator sums to 0.
    for a, b in zip(before[:4], after[:4]):
        assert np.array_equal(a.value, b.value, equal_nan=True)
    # Sums of floats in another order differ in the last bits.  A residual
    # a - r*b is found to about 1e-16 of a, so where the error is tiny next
    # to the value (as at gamma1 = 0.99999) it holds fewer digits, and it is
    # compared to 1e-12 of the value as well.  An undefined error bar (NaN,
    # at a summed numerator of 0) stays undefined.
    for a, b in zip(before, after):
        assert a.n_samples == b.n_samples == iterations
        assert math.isnan(a.value) == math.isnan(b.value)
        if math.isnan(a.value):
            continue
        assert math.isclose(a.value, b.value, rel_tol=1e-12)
        assert math.isnan(a.std_error) == math.isnan(b.std_error)
        if not math.isnan(a.std_error):
            assert math.isclose(a.std_error, b.std_error, rel_tol=1e-12,
                                abs_tol=1e-12 * abs(a.value))


#: Counts of a few windows, with many zeros, so that any denominator may
#: sum to 0, and zero windows as well.
windows = st.lists(st.lists(st.integers(0, 3) | st.just(0), min_size=4,
                            max_size=4), max_size=8)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rows=windows,
       gamma1=st.floats(0.0, 1.0) | st.sampled_from([1.0, 5e-324]),
       gamma2=st.floats(0.0, 1.0), stochastic=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_each_value_is_its_ratio_of_sums_or_undefined(
    rows, gamma1, gamma2, stochastic, seed
):
    n = len(rows)
    counts = np.array(rows, np.int64).reshape(n, 4)
    column = dict(zip(("p1", "q1", "p2", "q2"),
                      np.array(counts.T, dtype=float)))
    n1p, n1q, n2p, n2q = column.values()
    if stochastic:
        picks = np.random.default_rng(seed).random((2, n)) < [[gamma1],
                                                              [gamma2]]
        column["p"] = np.where(picks[0], n1p, n2p)
        column["q"] = np.where(picks[1], n1q, n2q)
    else:
        column["p"] = n1p if gamma1 == 1.0 else (gamma1 * n1p
                                                  + (1.0 - gamma1) * n2p)
        column["q"] = gamma2 * n1q + (1.0 - gamma2) * n2q
    result = aggregate(counts, gamma1, gamma2,
                       np.random.default_rng(seed) if stochastic else None)
    for name, a, b in ESTIMATORS:
        est = getattr(result, name)
        assert est.n_samples == n
        # Python divides a positive float by 0.0 with an error, and returns
        # inf where the ratio overflows; the kernel gives NaN for both.
        total_b = float(column[b].sum())
        ratio = float(column[a].sum()) / total_b if total_b else math.nan
        if math.isfinite(ratio):
            assert est.value == ratio, name
        else:
            assert math.isnan(est.value) and math.isnan(est.std_error), name
