import math

import numpy as np
import pytest
from scipy.stats import fisher_exact

from oracles import exact_p_strong, exact_p_weak, exact_tail, naive_bh
from trialbench.exact import (
    OddsRatioNull,
    TableMargins,
    bh_qvalues,
    bh_reject,
    fisher_one_sided_p,
    min_achievable_p,
    nchg_log_pmf,
    odds_ratio,
    p_strong,
    p_weak,
    support,
)


def test_support_bounds():
    assert support(5, 3, 2) == (0, 2)
    assert support(5, 3, 7) == (4, 5)
    assert support(2, 2, 4) == (2, 2)


def test_margins_validation():
    with pytest.raises(ValueError):
        TableMargins(2, 2, 5, 2)
    with pytest.raises(ValueError):
        TableMargins(5, 3, 7, 2)  # k below support


def test_pmf_hand_values():
    m = TableMargins(2, 2, 2, 1)
    central = [math.exp(nchg_log_pmf(k, m, 1.0)) for k in (0, 1, 2)]
    assert np.allclose(central, [1 / 6, 4 / 6, 1 / 6], atol=1e-12)
    shifted = [math.exp(nchg_log_pmf(k, m, 2.0)) for k in (0, 1, 2)]
    assert np.allclose(shifted, [1 / 13, 8 / 13, 4 / 13], atol=1e-12)


def test_tail_hand_value():
    p = fisher_one_sided_p(TableMargins(2, 2, 2, 2), OddsRatioNull(2.0, "upper"))
    assert abs(p - 4 / 13) < 1e-12


def test_one_sided_matches_scipy_at_central_null():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n1, n2 = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        m = int(rng.integers(0, n1 + n2 + 1))
        lo, hi = support(n1, n2, m)
        k = int(rng.integers(lo, hi + 1))
        table = [[k, n1 - k], [m - k, n2 - (m - k)]]
        margins = TableMargins(n1, n2, m, k)
        _, greater = fisher_exact(table, alternative="greater")
        _, less = fisher_exact(table, alternative="less")
        assert abs(fisher_one_sided_p(margins, OddsRatioNull(1.0, "upper")) - greater) < 1e-10
        assert abs(fisher_one_sided_p(margins, OddsRatioNull(1.0, "lower")) - less) < 1e-10


def test_odds_ratio_conventions():
    assert odds_ratio(20, 100, 10, 100) == pytest.approx(2.25)
    assert odds_ratio(0, 100, 0, 100) == 1.0            # no events anywhere
    assert odds_ratio(100, 100, 100, 100) == 1.0        # all events everywhere
    assert odds_ratio(5, 100, 0, 100) == math.inf
    assert odds_ratio(0, 100, 5, 100) == 0.0


def test_composite_p_against_rational_oracle():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n1, n2 = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        m = int(rng.integers(0, n1 + n2 + 1))
        lo, hi = support(n1, n2, m)
        k = int(rng.integers(lo, hi + 1))
        margins = TableMargins(n1, n2, m, k)
        assert abs(p_weak(margins) - float(exact_p_weak(n1, n2, m, k))) < 1e-12
        assert abs(p_strong(margins) - float(exact_p_strong(n1, n2, m, k))) < 1e-12
        # the stored tails themselves
        up = fisher_one_sided_p(margins, OddsRatioNull(1.25, "upper"))
        assert abs(up - float(exact_tail(n1, n2, m, k, 5, 4, "upper"))) < 1e-12


def test_min_achievable_hand_value():
    # one pooled event across two 100-patient arms can never certify strength
    assert min_achievable_p(100, 100, 1, "strong") == pytest.approx(0.2777778, abs=1e-6)
    assert min_achievable_p(100, 100, 1, "strong") > 0.05


def test_min_achievable_unknown_family():
    with pytest.raises(ValueError):
        min_achievable_p(10, 10, 5, "moderate")


def test_bh_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        m = int(rng.integers(1, 60))
        p = rng.random(m) ** rng.uniform(0.5, 3.0)
        alpha = float(rng.uniform(0.01, 0.2))
        assert bh_reject(p, alpha) == naive_bh(p.tolist(), alpha)


def test_bh_edge_cases():
    assert bh_reject([], 0.05) == set()
    assert bh_reject([0.5, 0.9], 0.05) == set()
    assert bh_reject([1e-9], 0.05) == {0}
    with pytest.raises(ValueError):
        bh_reject([0.1, 1.5], 0.05)


def test_qvalues_consistent_with_rejection():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = rng.random(int(rng.integers(1, 40)))
        q = bh_qvalues(p)
        assert np.all((q >= p - 1e-15) & (q <= 1.0))
        for alpha in (0.01, 0.05, 0.2):
            assert bh_reject(p, alpha) == set(np.nonzero(q <= alpha)[0].tolist())
