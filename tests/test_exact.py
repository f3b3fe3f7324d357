import math

import numpy as np
import pytest
from scipy.stats import fisher_exact

from oracles import (
    exact_p_strong,
    exact_p_weak,
    exact_tail,
    lgamma_family_p_all,
    lgamma_log_pmf,
    masked_window_family_p_all,
    naive_bh,
)
from trialbench import exact
from trialbench.exact import (
    _family_p_all,
    _live_log_pmf,
    _log_binomials,
    _tail,
    bh_qvalues,
    bh_reject,
    min_achievable_p,
    odds_ratio,
    p_strong,
    p_weak,
    support,
)


def test_support_bounds():
    assert support(5, 3, 2) == (0, 2)
    assert support(5, 3, 7) == (4, 5)
    assert support(2, 2, 4) == (2, 2)


def _pmf(n1, n2, m, psi):
    k, base = _log_binomials(n1, n2, m)
    i0, log_pmf = _live_log_pmf(k, base, psi, 1)
    pmf = np.zeros(k.size)
    pmf[i0:i0 + log_pmf.size] = np.exp(log_pmf)
    return pmf


def _assert_live_log_pmf_is_oracle(n1, n2, m, psi):
    """The live window's log-pmf is bit for bit the oracle's, whose pmf is 0.0 outside it."""
    k, base = _log_binomials(n1, n2, m)
    i0, log_pmf = _live_log_pmf(k, base, psi, 1)
    oracle = lgamma_log_pmf(n1, n2, m, psi)
    i1 = i0 + log_pmf.size
    assert np.array_equal(log_pmf, oracle[i0:i1]), (n1, n2, m, psi)
    assert not np.exp(oracle[:i0]).any() and not np.exp(oracle[i1:]).any(), (n1, n2, m, psi)


def _tail_at(n1, n2, m, k, psi, side):
    """One cell of the production tail vector for these margins."""
    ks, base = _log_binomials(n1, n2, m)
    lo, _ = support(n1, n2, m)
    return float(_tail(ks, base, psi, side)[k - lo])


def test_margins_validation():
    for p in (p_weak, p_strong):
        with pytest.raises(ValueError):
            p(2, 2, 5, 2)  # m above n1 + n2
        with pytest.raises(ValueError):
            p(5, 3, 7, 2)  # k below support
        with pytest.raises(ValueError):
            p(5, 3, 2, 3)  # k above support; a bare index would wrap
        with pytest.raises(ValueError):
            p(5, 3, 2, -1)


def test_pmf_hand_values():
    assert np.allclose(_pmf(2, 2, 2, 1.0), [1 / 6, 4 / 6, 1 / 6], rtol=0, atol=1e-12)
    assert np.allclose(_pmf(2, 2, 2, 2.0), [1 / 13, 8 / 13, 4 / 13], rtol=0, atol=1e-12)


def test_tail_hand_value():
    k, base = _log_binomials(2, 2, 2)
    assert np.allclose(_tail(k, base, 2.0, "upper"), [1, 12 / 13, 4 / 13], rtol=0, atol=1e-12)
    assert np.allclose(_tail(k, base, 2.0, "lower"), [1 / 13, 9 / 13, 1], rtol=0, atol=1e-12)


def test_one_sided_matches_scipy_at_central_null():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n1, n2 = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        m = int(rng.integers(0, n1 + n2 + 1))
        lo, hi = support(n1, n2, m)
        k = int(rng.integers(lo, hi + 1))
        table = [[k, n1 - k], [m - k, n2 - (m - k)]]
        _, greater = fisher_exact(table, alternative="greater")
        _, less = fisher_exact(table, alternative="less")
        assert abs(_tail_at(n1, n2, m, k, 1.0, "upper") - greater) < 1e-10
        assert abs(_tail_at(n1, n2, m, k, 1.0, "lower") - less) < 1e-10


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
        assert abs(p_weak(n1, n2, m, k) - float(exact_p_weak(n1, n2, m, k))) < 1e-12
        assert abs(p_strong(n1, n2, m, k) - float(exact_p_strong(n1, n2, m, k))) < 1e-12
        # the tails themselves
        up = _tail_at(n1, n2, m, k, 1.25, "upper")
        assert abs(up - float(exact_tail(n1, n2, m, k, 5, 4, "upper"))) < 1e-12


def test_min_achievable_hand_value():
    # one pooled event across two 100-patient arms can never certify strength
    assert min_achievable_p(100, 100, 1, "strong") == pytest.approx(0.2777778, abs=1e-6)
    assert min_achievable_p(100, 100, 1, "strong") > 0.05


def test_min_achievable_unknown_family():
    with pytest.raises(ValueError):
        min_achievable_p(10, 10, 5, "moderate")


def _random_margins(rng, max_arm):
    n1, n2 = (int(n) for n in rng.integers(0, max_arm + 1, size=2))
    return n1, n2, int(rng.integers(0, n1 + n2 + 1))


def test_log_factorial_table_is_bit_identical_to_lgamma(monkeypatch):
    monkeypatch.setattr(exact, "_LOG_FACTORIAL", np.empty(0))
    rng = np.random.default_rng(29)
    small = [_random_margins(rng, 50) for _ in range(30)]
    large = [_random_margins(rng, 40_000) for _ in range(12)]
    full_and_empty = [(n1, n2, m) for n1, n2 in ((0, 0), (1, 0), (0, 7), (37, 12),
                                                 (25_000, 40_000), (39_999, 3))
                      for m in (0, n1 + n2)]
    # m > n2 puts the support's lower end above zero
    lo_above_zero = [(n1, n2, n2 + int(rng.integers(1, n1 + 1)))
                     for n1, n2 in ((30, 5), (12, 0), (40_000, 17), (38_000, 36_500))]
    sizes = {}
    # small arms, then large ones grow the table, then small arms read the grown table
    for phase, batch in (("small", small), ("large", large + full_and_empty + lo_above_zero),
                         ("small again", small)):
        for n1, n2, m in batch:
            for family in ("weak", "strong"):
                assert np.array_equal(_family_p_all(n1, n2, m, family),
                                      lgamma_family_p_all(n1, n2, m, family)), (n1, n2, m, family)
            for psi in (0.8, 1.0, 1.25):
                _assert_live_log_pmf_is_oracle(n1, n2, m, psi)
        sizes[phase] = exact._LOG_FACTORIAL.size
    assert 0 < sizes["small"] <= 2 * 51 < 40_000 < sizes["large"] == sizes["small again"]


def _live_runs(pmf):
    """Whether each run of nonzero or zero pmf cells is live, in order: (False, True, False)
    is a live window with dead cells on both sides."""
    live = pmf > 0
    return tuple(live[np.r_[0, np.flatnonzero(np.diff(live)) + 1]].tolist())


# name -> (margins, the live runs of the pmf at both nulls 0.8 and 1.25)
LIVE_WINDOWS = {
    "inside_support": ((30_000, 30_000, 30_000), (False, True, False)),
    "at_lower_end": ((400, 40_000, 400), (True, False)),
    "at_upper_end": ((400, 40_000, 40_000), (False, True)),
    "live_everywhere": ((60, 70, 65), (True,)),
    "one_cell": ((5, 3, 0), (True,)),
}


@pytest.mark.parametrize("name", LIVE_WINDOWS)
def test_live_window_edges_are_bit_identical_to_oracle(name):
    (n1, n2, m), runs = LIVE_WINDOWS[name]
    lo, hi = support(n1, n2, m)
    assert (hi - lo == 0) == (name == "one_cell")
    for psi in (0.8, 1.25):
        # the margins still put the window where the name says
        assert _live_runs(np.exp(lgamma_log_pmf(n1, n2, m, psi))) == runs, psi
        _assert_live_log_pmf_is_oracle(n1, n2, m, psi)
    for family in ("weak", "strong"):
        assert np.array_equal(_family_p_all(n1, n2, m, family),
                              lgamma_family_p_all(n1, n2, m, family)), family


# Margins whose two modal cells tie exactly at one null: (psi numerator, denominator,
# n1, n2, m, mode k), with psi_num (n1 - k)(m - k) = psi_den (k + 1)(n2 - m + k + 1).
PLATEAUS = [(5, 4, 5, 6, 3, 1), (5, 4, 29_999, 69_999, 29_999, 9_999),
            (4, 5, 29_999, 51_999, 29_999, 9_999)]


def test_family_p_all_is_bit_identical_to_masked_window_oracle():
    """Each null's window search, on each side of its mode, against the whole-support
    mask it replaced: both ends live, one or both ends dead, a plateau at the mode,
    m = 0, m = n1 + n2, one-cell supports and arms up to 100,000."""
    rng = np.random.default_rng(43)
    margins = [_random_margins(rng, 60) for _ in range(150)]
    margins += [_random_margins(rng, 100_000) for _ in range(12)]
    margins += [(n1, n2, m) for n1, n2 in ((0, 0), (0, 9), (7, 0), (40, 3), (100_000, 99_000))
                for m in (0, n1 + n2)]
    margins += [(400, 40_000, 400), (400, 40_000, 40_000), (1_000, 100_000, 1_000),
                (1_000, 100_000, 100_000), (100_000, 100_000, 100_000)]
    for num, den, n1, n2, m, k in PLATEAUS:
        assert num * (n1 - k) * (m - k) == den * (k + 1) * (n2 - m + k + 1)
        margins.append((n1, n2, m))
    seen = set()
    for n1, n2, m in margins:
        k, base = _log_binomials(n1, n2, m)
        for psi in (0.8, 1.25):
            i0, window = _live_log_pmf(k, base, psi, 1)
            seen.add((k.size == 1, i0 > 0, i0 + window.size < k.size))
        for family in ("weak", "strong"):
            assert np.array_equal(_family_p_all(n1, n2, m, family),
                                  masked_window_family_p_all(n1, n2, m, family)), (n1, n2, m)
    # one-cell, and every (lower end dead, upper end dead) pair on longer supports
    assert seen == {(True, False, False), (False, False, False), (False, True, False),
                    (False, False, True), (False, True, True)}


def test_family_p_all_returns_fresh_vectors():
    """Large, small, then large margins again: each returned vector stays as it was
    returned, and none reads a cell an earlier, longer support left in the scratch."""
    returned = []
    for n1, n2, m in ((30_000, 30_000, 30_000), (60, 70, 65), (25_000, 35_000, 20_000)):
        for family in ("weak", "strong"):
            p = _family_p_all(n1, n2, m, family)
            assert np.array_equal(p, lgamma_family_p_all(n1, n2, m, family)), (n1, n2, m)
            returned.append((p, p.copy()))
    for p, copy in returned:
        assert np.array_equal(p, copy)


@pytest.mark.parametrize("n1, n2, m", [(-1, 5, 2), (5, -1, 2), (4, 3, 8), (4, 3, -1)],
                         ids=["negative_n1", "negative_n2", "m_above_total", "negative_m"])
def test_invalid_margins_raise(n1, n2, m):
    for family in ("weak", "strong"):
        with pytest.raises(ValueError):
            min_achievable_p(n1, n2, m, family)
    with pytest.raises(ValueError):
        _log_binomials(n1, n2, m)


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
