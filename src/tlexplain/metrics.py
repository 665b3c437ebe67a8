"""Policy-similarity utility: KL divergence weighted by target confidence.

A candidate explanation's utility is the negative weighted sum of per-state
KL divergences between its policy's action distribution and the target's,
over a fixed sample of non-trap product states.  Weights come from the
target's normalized action entropy, so states where the target is decisive
count more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KL_EPS = 1e-8
# a utility over 10^5 sampled rows takes ~0.04 s on ctf5 (2-vCPU Xeon), 10^6 ~0.4 s
MAX_SAMPLE_SIZE = 100_000


class NoNontrapStatesError(RuntimeError):
    pass


class CoverageGapError(ValueError):
    pass


@dataclass(frozen=True)
class MetricConfig:
    """The ``metric`` config section: state sample, KL clamp, entropy weights."""

    sample_size: int = 256
    kl_eps: float = KL_EPS
    weights_enabled: bool = True

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.sample_size > MAX_SAMPLE_SIZE:
            raise ValueError(f"sample_size must be <= {MAX_SAMPLE_SIZE}, "
                             f"got {self.sample_size}")
        if not 0.0 < self.kl_eps < 1.0:
            raise ValueError(f"kl_eps must be in (0, 1), got {self.kl_eps}")


@dataclass(frozen=True)
class StateSample:
    """Sampled non-trap states (policy rows, an int index array) with their
    utility weights, and the target's side of every wKL: its action
    distributions on the rows, clamped at ``eps`` (:func:`clamped_rows`)."""

    rows: np.ndarray
    weights: np.ndarray
    target_rows: np.ndarray
    eps: float


def sample_nontrap(model, n: int, rng: np.random.Generator) -> list[int]:
    """Draw policy rows uniformly; these are exactly the non-trap, non-terminal
    product states (the automaton component of every actionable state is q0).

    Without replacement when enough rows exist, with replacement otherwise.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    n_rows = model.n_rows
    if n_rows == 0:
        raise NoNontrapStatesError("no non-trap states to sample")
    return sorted(rng.choice(n_rows, size=n, replace=n > n_rows).tolist())


def _clamp(p: np.ndarray, eps: float) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), eps, 1.0)
    return p / p.sum(axis=-1, keepdims=True)


def kl_rows(p: np.ndarray, q: np.ndarray, eps: float = KL_EPS) -> np.ndarray:
    """Row-wise KL(p || q) over the last axis of epsilon-clamped, renormalized
    inputs.  Clipped at 0, as KL is: rows that agree can sum to about -1e-16
    in floating point."""
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return _kl_clamped(_clamp(p, eps), _clamp(q, eps))


def _kl_clamped(pc: np.ndarray, qc: np.ndarray) -> np.ndarray:
    return np.maximum((pc * np.log(pc / qc)).sum(axis=-1), 0.0)


def xlogx(p: np.ndarray) -> np.ndarray:
    """``p * log(p)`` elementwise, exactly 0 where ``p`` is 0."""
    out = np.zeros_like(p)
    np.log(p, out=out, where=p > 0)
    out *= p
    return out


def normalized_entropy(p, h_max: float):
    """1 - H(p)/H_max over the last axis: 0 for a uniform row, 1 for a deterministic one."""
    if h_max <= 0:
        raise ValueError("h_max must be > 0")
    p = np.asarray(p, dtype=float)
    return 1.0 + xlogx(p).sum(axis=-1) / h_max


def weights(target, sample_rows, enabled: bool = True):
    """Per-state utility weights from the target's normalized entropy.

    With ``enabled=False`` (the ablation) every weight is 1.  The normalized
    entropy is clipped at 0, as it is defined: for a uniform row it sums to
    about -1e-16 in floating point, which would weigh disagreement there
    negatively.  A target uniform on every sampled state zeroes the
    normalizer; that degenerate case falls back to uniform weights.
    """
    rows = np.asarray(sample_rows, dtype=int)
    if rows.size == 0:
        raise ValueError("empty state sample")
    if not enabled:
        return np.ones(rows.size)
    p = target.probs[rows]
    hbar = np.maximum(normalized_entropy(p, np.log(p.shape[1])), 0.0)
    total = hbar.sum()
    if total <= 0:
        return np.full(rows.size, 1.0 / rows.size)
    return hbar / total


def build_sample(model, target, metric: MetricConfig,
                 rng: np.random.Generator) -> StateSample:
    """The sample that scores every candidate against ``target`` under the
    ``metric`` config section."""
    rows = sample_nontrap(model, metric.sample_size, rng)
    return StateSample(np.array(rows), weights(target, rows, enabled=metric.weights_enabled),
                       clamped_rows(target, rows, metric.kl_eps), metric.kl_eps)


def clamped_rows(policy, rows, eps: float = KL_EPS) -> np.ndarray:
    """``policy``'s action distributions on the policy rows ``rows``, clamped
    and renormalized as :func:`kl_rows` does."""
    rows = np.asarray(rows, dtype=int)
    if rows.max(initial=-1) >= policy.probs.shape[0]:
        raise CoverageGapError("sampled states not covered by both policies")
    return _clamp(policy.probs[rows], eps)


def utility(candidate, sample: StateSample) -> float:
    """Weighted-KL utility, -wKL, of a candidate policy against the target
    whose side ``sample`` carries."""
    divs = _kl_clamped(clamped_rows(candidate, sample.rows, sample.eps), sample.target_rows)
    return -float(np.dot(sample.weights, divs))
