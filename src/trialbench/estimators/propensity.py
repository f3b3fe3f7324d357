"""Propensity estimation, matching, and weighting."""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

SCORE_CLIP = 1e-6
STANDARD_WEIGHT_CAP = 100.0
LOGISTIC_TOL = 1e-8  # max absolute IRLS coefficient step
LOGISTIC_MAX_ITER = 100


class MatchingError(Exception):
    """No matched pairs could be formed."""


@dataclass
class PropensityFit:
    coefficients: np.ndarray  # [intercept, per-feature...]
    scores: np.ndarray        # clipped e(x) per row
    converged: bool
    iterations: int


def fit_logistic(features, treatment_labels, ridge: float) -> PropensityFit:
    """Ridge-penalized logistic regression via IRLS.

    The intercept is unpenalized. Converged when the max absolute
    coefficient change drops below LOGISTIC_TOL. Separation yields a flagged
    non-converged fit whose clipped scores remain usable. At ridge 0 a
    feature column that the others span (a duplicated, constant or all-zero
    one) would make the Hessian singular, so a design of lower rank is fitted
    on an orthonormal basis of its row space: the scores are those of the
    design without that column, and the coefficients the least-norm ones. A
    positive penalty too small to make such a Hessian invertible has its
    step taken by least squares.
    """
    X = np.column_stack([np.ones(len(treatment_labels)), np.asarray(features, dtype=float)])
    y = np.asarray(treatment_labels, dtype=float)
    n, p = X.shape
    if y.sum() < 1 or (1 - y).sum() < 1:
        raise ValueError("need at least one row in each arm")
    basis = None
    if ridge == 0:  # unpenalized, a column the others span makes the Hessian singular
        _, sv, vt = np.linalg.svd(X, full_matrices=False)
        rank = int(np.sum(sv > sv[0] * max(n, p) * np.finfo(float).eps))  # matrix_rank's rule
        if rank < p:
            basis = vt[:rank].T
            X, p = X @ basis, rank
    penalty = np.full(p, ridge)
    penalty[0] = 0.0
    beta = np.zeros(p)
    converged = False
    iterations = 0
    for iterations in range(1, LOGISTIC_MAX_ITER + 1):
        eta = X @ beta
        e = 1.0 / (1.0 + np.exp(-np.clip(eta, -35, 35)))
        w = np.maximum(e * (1.0 - e), 1e-12)
        grad = X.T @ (y - e) - penalty * beta
        hess = (X.T * w) @ X + np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:  # a penalty too small to lift a spanned column
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta = beta + step
        if np.max(np.abs(step)) < LOGISTIC_TOL:
            converged = True
            break
    eta = X @ beta
    scores = 1.0 / (1.0 + np.exp(-np.clip(eta, -35, 35)))
    scores = np.clip(scores, SCORE_CLIP, 1.0 - SCORE_CLIP)
    return PropensityFit(coefficients=beta if basis is None else basis @ beta, scores=scores,
                         converged=converged, iterations=iterations)


def match_pairs(scores, treatment_labels, caliper_sd_logit: float,
                seed: int | np.random.SeedSequence) -> list[tuple[int, int]]:
    """1:1 greedy nearest-neighbor matching on logit(score), no replacement.

    Treated rows are processed in seeded random order; a pair farther
    apart than caliper_sd_logit * SD(logit scores) is not formed.
    """
    scores = np.asarray(scores, dtype=float)
    treated_mask = np.asarray(treatment_labels, dtype=bool)
    logits = np.log(scores / (1.0 - scores))
    caliper = caliper_sd_logit * float(np.std(logits))

    treated_idx = np.nonzero(treated_mask)[0]
    control_idx = np.nonzero(~treated_mask)[0]
    if len(treated_idx) == 0 or len(control_idx) == 0:
        raise MatchingError("one arm is empty")

    # the free controls, kept sorted by logit; a matched one is deleted from both lists
    order = control_idx[np.argsort(logits[control_idx], kind="stable")]
    free, free_logits = order.tolist(), logits[order].tolist()
    logits = logits.tolist()
    rng = np.random.default_rng(seed)
    pairs = []
    for t in treated_idx[rng.permutation(len(treated_idx))].tolist():
        if not free:
            break
        target = logits[t]
        # the nearer of the free controls just below and at or above target; a tie
        # goes to the one below
        i = bisect.bisect_left(free_logits, target)
        if i == len(free) or i > 0 and not (abs(free_logits[i] - target)
                                            < abs(free_logits[i - 1] - target)):
            i -= 1
        if abs(free_logits[i] - target) > caliper:
            continue
        pairs.append((t, free[i]))
        del free[i], free_logits[i]
    if not pairs:
        raise MatchingError("caliper excluded every candidate pair")
    return pairs


def compute_weights(scores, treatment_labels, mode: str,
                    cap: float = STANDARD_WEIGHT_CAP) -> np.ndarray:
    """Row weights: standard IPW (1/e, 1/(1-e), capped) or overlap (1-e, e)."""
    e = np.asarray(scores, dtype=float)
    treated = np.asarray(treatment_labels, dtype=bool)
    if mode == "standard_ipw":
        w = np.where(treated, 1.0 / e, 1.0 / (1.0 - e))
        return np.minimum(w, cap)
    if mode == "overlap":
        return np.where(treated, 1.0 - e, e)
    raise ValueError(f"unknown weight mode {mode!r}")
