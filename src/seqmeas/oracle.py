"""Independent verification paths: adaptive quadrature and Monte Carlo.

Everything the analytic Gaussian-pair algebra produces can be rechecked
here: pointer moments by adaptive quadrature over the outcome axis, and
chain statistics by sampling synthetic measurement records. Samplers use
the seeded PCG64 generator so every run is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain import ChainQuery, MeasurementChain, chain_state, conditional_density_k
from .errors import QuadratureFailure, RejectionStall, ZeroLikelihood
from .kraus import MeasurementStage
from .pointer import GaussianPairSum

#: Algorithm identifier of the sample generator, recorded in output metadata.
RNG_ALGORITHM = "PCG64"

_CHUNK = 1 << 16


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the adaptive quadrature oracle.

    ``domain_pad`` widens default domains by that many pointer widths
    beyond the extreme eigenvalues (tail mass < 1e-22 at the default 10).
    """

    domain_pad: float = 10.0
    abs_tol: float = 1e-10
    max_subdivisions: int = 1 << 16

    def __post_init__(self):
        if self.domain_pad < 4.0:
            raise ValueError("domain_pad below 4 sigma leaves visible tail mass")
        if self.abs_tol <= 0.0 or self.max_subdivisions < 1:
            raise ValueError("tolerances and subdivision cap must be positive")


@dataclass(frozen=True)
class SamplerConfig:
    """Sample count and seed for the Monte Carlo oracle."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("need at least one sample")


def make_rng(cfg: SamplerConfig) -> np.random.Generator:
    return np.random.default_rng(cfg.seed)


# QUADPACK's qk21 rule (Piessens et al., QUADPACK, 1983): Kronrod
# abscissae on [0, 1] in descending order, ending at the centre, with their
# Kronrod weights and the weights of the 10-point Gauss rule, which uses
# every second abscissa.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
])


def _mirror(half: np.ndarray, sign: float) -> np.ndarray:
    # 21 entries over the ascending nodes, from the 11 of the [0, 1] half
    return np.concatenate([sign * half[:-1], half[::-1]])


_GK_NODES = _mirror(_XGK, -1.0)
_GK_KRONROD = _mirror(_WGK, 1.0)
_GK_GAUSS = _mirror(_WG, 1.0)
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _panel_edges(domain: tuple[float, float], points) -> np.ndarray:
    lo, hi = float(domain[0]), float(domain[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise QuadratureFailure(f"empty or unbounded domain ({lo}, {hi})")
    interior = np.asarray([] if points is None else points, dtype=float)
    interior = np.unique(interior[(interior > lo) & (interior < hi)])
    return np.concatenate([[lo], interior, [hi]])


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """qk21 on every panel at once: (integrals, error estimates, roundoff floors), shape (3, m, P)."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    flat = x.ravel()
    # chunks bound the integrand's temporaries when many panels split at once
    fv = np.concatenate(
        [f(flat[i : i + _CHUNK]) for i in range(0, flat.size, _CHUNK)], axis=-1
    ).reshape(-1, *x.shape)
    if not np.isfinite(fv).all():
        bad = flat[~np.isfinite(fv).all(axis=0).ravel()][0]
        raise QuadratureFailure(f"integrand is not finite at x = {bad:.6e}")
    with np.errstate(all="ignore"):
        resk = fv @ _GK_KRONROD
        err = np.abs(resk - fv @ _GK_GAUSS) * half
        resabs = np.abs(fv) @ _GK_KRONROD * half
        resasc = np.abs(fv - 0.5 * resk[..., None]) @ _GK_KRONROD * half
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return np.stack([resk * half, np.maximum(err, floor), floor])


def _integrate(f, edges: np.ndarray, cfg: QuadratureConfig) -> np.ndarray:
    """Integrals of the m rows of ``f`` over ``[edges[0], edges[-1]]``.

    ``f`` maps N nodes to an (m, N) array. All rows share one adaptive
    panel set: each round evaluates the 21 nodes of every new panel in one
    call, then bisects the panels with the largest error, relative to each
    row's target ``max(abs_tol, 1e-11 |value|)``, until every row meets
    its target or the panel count reaches ``cfg.max_subdivisions``.
    """
    lo, hi = edges[:-1], edges[1:]
    panels = _gk21(f, lo, hi)
    while True:
        res, err, floor = panels
        value, estimate = res.sum(axis=1), err.sum(axis=1)
        if not (np.isfinite(value).all() and np.isfinite(estimate).all()):
            raise QuadratureFailure(f"non-finite integral {value} with error estimate {estimate}")
        target = np.maximum(cfg.abs_tol, 1e-11 * np.abs(value))
        if (estimate <= target).all():
            break
        # a panel at its roundoff floor gains nothing from bisection
        score = np.where(err > floor, err / target[:, None], 0.0).max(axis=0)
        order = np.argsort(-score, kind="stable")[: max(cfg.max_subdivisions - lo.size, 0)]
        order = order[score[order] > 0.0]
        if order.size == 0:
            break
        # largest first, until what stays unsplit is within half of every target
        unsplit = score.sum() - np.cumsum(score[order])
        split = order[: int((unsplit > 0.5).sum()) + 1]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        panels = np.concatenate([panels[..., keep], _gk21(f, new_lo, new_hi)], axis=-1)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
    missed = estimate > np.maximum(cfg.abs_tol, 1e-10 * np.abs(value))
    if missed.any():
        k = int(np.argmax(missed))
        raise QuadratureFailure(
            f"error estimate {estimate[k]:.3e} exceeds tolerance for value {value[k]:.6e}"
        )
    return value


def quad_moment(
    f: Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float],
    n: int,
    cfg: QuadratureConfig = QuadratureConfig(),
    points: Sequence[float] | None = None,
) -> float:
    """Adaptive quadrature of ``x^n f(x)`` over a finite domain.

    ``f`` is called on a 1-D array of nodes and must return an array of
    the same shape. ``points`` marks interior breakpoints (typically the
    eigenvalues) so narrow Gaussian peaks are not stepped over.

    Raises
    ------
    QuadratureFailure
        If the integrand or the result is not finite, or if the error
        estimate misses both the absolute tolerance and a 1e-10 relative
        floor at the subdivision cap.
    """
    edges = _panel_edges(domain, points)
    if n not in (0, 1, 2):
        raise ValueError(f"moment order must be 0, 1 or 2, got {n!r}")

    def integrand(x):
        return (x**n * np.broadcast_to(np.asarray(f(x), dtype=float), x.shape))[None]

    return float(_integrate(integrand, edges, cfg)[0])


def pair_sum_domain(s: GaussianPairSum, pad_sigmas: float = 10.0) -> tuple[float, float]:
    """Interval containing all pair centers with a ``pad_sigmas`` margin."""
    centers = np.concatenate([s.centers_a, s.centers_b])
    pad = pad_sigmas * float(s.sigmas.max())
    return float(centers.min() - pad), float(centers.max() + pad)


def quad_pair_sum_stats(
    s: GaussianPairSum, cfg: QuadratureConfig = QuadratureConfig()
) -> tuple[float, float, float]:
    """(normalization, mean, variance) of a pair sum by quadrature only.

    The moments 0, 1 and 2 share one adaptive pass, with breakpoints at
    the pair centers; only ``s.value`` is used, never the moment formulas.
    """
    centers = np.concatenate([s.centers_a, s.centers_b])
    edges = _panel_edges(pair_sum_domain(s, cfg.domain_pad), centers)

    def moments(x):
        v = s.value(x)
        return np.stack([v, x * v, x**2 * v])

    norm, first, second = (float(m) for m in _integrate(moments, edges, cfg))
    mean = first / norm
    return norm, mean, second / norm - mean * mean


def _pick_components(rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    # weights has one row per component and one column per sample; it need
    # not be normalized, since draws are scaled by the column totals
    bounds = [weights[0]]
    for row in weights[1:]:
        bounds.append(bounds[-1] + row)
    totals = bounds.pop()
    bad = ~(np.isfinite(totals) & (totals > 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ZeroLikelihood(f"level weights of sample {k} sum to {float(totals[k])!r}")
    draws = rng.random(totals.size) * totals
    if len(bounds) == 1:
        return (draws >= bounds[0]).astype(np.intp)
    comp = np.zeros(totals.size, dtype=np.intp)
    for bound in bounds:
        comp += bound < draws
    return comp


def _level_sums(values: np.ndarray, level_of: np.ndarray, n_levels: int) -> np.ndarray:
    # (d, n) eigenvalue weights to (n_levels, n) level weights
    if n_levels == level_of.size:
        return values
    sums = np.zeros((n_levels, values.shape[1]))
    np.add.at(sums, level_of, values)
    return sums


def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each entry on or above the diagonal: the diagonal first."""
    upper_p, upper_q = np.triu_indices(d, 1)
    diag = np.arange(d)
    return np.concatenate([diag, upper_p]), np.concatenate([diag, upper_q])


def _hermitian_coords(matrices: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian (..., d, d) matrices, shape (..., d^2).

    They are the diagonal, then the real parts of the upper triangle in
    ``_pairs`` order, then its imaginary parts.
    """
    d = matrices.shape[-1]
    entries = matrices[(...,) + _pairs(d)]
    return np.concatenate([entries.real, entries[..., d:].imag], axis=-1)


def _coord_rotation(u: np.ndarray) -> np.ndarray:
    """Real (d^2, d^2) matrix M with coords(U^dagger S U) = M @ coords(S)."""
    d = u.shape[0]
    p, q = _pairs(d)
    # basis[k] is the Hermitian matrix whose coordinates are the k-th unit vector
    unit = np.concatenate([np.ones(p.size), np.full(p.size - d, 1j)])
    p, q = np.concatenate([p, p[d:]]), np.concatenate([q, q[d:]])
    basis = np.zeros((d * d, d, d), dtype=complex)
    k = np.arange(d * d)
    basis[k, p, q] = unit
    basis[k, q, p] = unit.conj()
    return _hermitian_coords(u.conj().T @ basis @ u).T


def _amplitudes(x: np.ndarray, stage: MeasurementStage) -> np.ndarray:
    # Kraus weights w_p(x) of every eigenvalue, shape (d, n); sampled
    # outcomes stay within a few sigma of a center, so they cannot all
    # underflow before normalization
    eigenvalues = stage.observable.eigenvalues
    return np.exp(-((x[None, :] - eigenvalues[:, None]) ** 2) / (4.0 * stage.sigma**2))


def _sample_two_stage(chain: MeasurementChain, cfg: SamplerConfig) -> np.ndarray:
    # after one Kraus update the state is rho * (w w^T) elementwise, so the
    # second-stage level weights are a fixed quadratic form in w: one GEMM
    # over the d(d+1)/2 distinct products w_p w_q
    rng = make_rng(cfg)
    n = cfg.samples
    first, second = chain.stages
    obs1, obs2 = first.observable, second.observable
    v1 = obs1.eigenvectors
    d = chain.dim
    p, q = _pairs(d)
    rho = _hermitian_coords(v1.conj().T @ chain.initial_state.normalized().matrix @ v1)
    # folded kernel: an entry's real and imaginary coordinates share w_p w_q
    kernel = _coord_rotation(v1.conj().T @ obs2.eigenvectors)[:d] * rho
    kernel = np.concatenate([kernel[:, :d], kernel[:, d : p.size] + kernel[:, p.size :]], axis=1)

    probs1 = _level_sums(np.clip(rho[:d, None], 0.0, None), obs1.level_of, obs1.levels.size)[:, 0]
    probs1 /= probs1.sum()
    cum1 = np.cumsum(probs1)
    out = np.empty((n, 2))
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        count = stop - start
        draws = rng.random(count)
        # searchsorted(cum1, draws, "right") capped at the last level
        comp = np.zeros(count, dtype=np.intp)
        for bound in cum1[:-1]:
            comp += bound <= draws
        x1 = obs1.levels[comp] + first.sigma * rng.standard_normal(count)
        out[start:stop, 0] = x1

        w = _amplitudes(x1, first)
        diag2 = kernel @ (w[p] * w[q])
        probs2 = _level_sums(np.clip(diag2, 0.0, None), obs2.level_of, obs2.levels.size)
        comp2 = _pick_components(rng, probs2)
        out[start:stop, 1] = obs2.levels[comp2] + second.sigma * rng.standard_normal(count)
    return out


def sample_chain(chain: MeasurementChain, cfg: SamplerConfig) -> np.ndarray:
    """Synthetic outcome records, one row per run of the whole chain.

    Each stage's outcome is drawn from the Gaussian mixture over the stage
    observable's levels weighted by the current (normalized) conditional
    state, after which the state is updated with the matching Kraus
    operator. Fixed seeds reproduce records exactly.

    Each sample's state is carried in the current stage's eigenbasis as its
    d^2 real Hermitian coordinates (see ``_hermitian_coords``). The Kraus
    update scales the coordinates of entry (p, q) by w_p w_q, the level
    probabilities are sums of the first d coordinates, and moving to the
    next stage's eigenbasis is one real (d^2, d^2) GEMM. Two-stage chains
    skip the per-sample state entirely.

    Raises
    ------
    ZeroLikelihood
        If a sample's level weights sum to zero or to a non-finite value.
    """
    if len(chain) == 2:
        return _sample_two_stage(chain, cfg)
    rng = make_rng(cfg)
    n = cfg.samples
    stages = chain.stages
    d = chain.dim
    p, q = _pairs(d)
    v0 = stages[0].observable.eigenvectors
    rho0 = _hermitian_coords(v0.conj().T @ chain.initial_state.normalized().matrix @ v0)
    rotations = [
        _coord_rotation(
            stages[j].observable.eigenvectors.conj().T @ stages[j + 1].observable.eigenvectors
        )
        for j in range(len(stages) - 1)
    ]
    out = np.empty((n, len(stages)))
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        count = stop - start
        # one column per sample
        states = np.repeat(rho0[:, None], count, axis=1)
        for j, stage in enumerate(stages):
            obs = stage.observable
            probs = _level_sums(np.clip(states[:d], 0.0, None), obs.level_of, obs.levels.size)
            comp = _pick_components(rng, probs)
            x = obs.levels[comp] + stage.sigma * rng.standard_normal(count)
            out[start:stop, j] = x
            if j + 1 == len(stages):
                break
            w = _amplitudes(x, stage)
            products = w[p] * w[q]
            states[: p.size] *= products
            states[p.size :] *= products[d:]
            states /= states[:d].sum(axis=0)
            states = rotations[j] @ states
    return out


def jackknife_variance_se(x: np.ndarray) -> tuple[float, float]:
    """Sample variance of ``x`` and its delete-one jackknife standard error."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        raise ValueError("need at least three samples")
    s1, s2 = x.sum(), (x * x).sum()
    variance = s2 / n - (s1 / n) ** 2
    mean_loo = (s1 - x) / (n - 1)
    var_loo = (s2 - x * x) / (n - 1) - mean_loo * mean_loo
    se = float(np.sqrt((n - 1) / n * ((var_loo - var_loo.mean()) ** 2).sum()))
    return float(variance), se


def _split_density(density: GaussianPairSum):
    cross = np.abs(density.centers_a - density.centers_b) > 1e-12
    significant = np.abs(density.coeffs) > 1e-14 * np.abs(density.coeffs).max()
    return cross & significant


def _sample_direct(rng, density: GaussianPairSum, n: int) -> np.ndarray:
    diagonal = np.abs(density.centers_a - density.centers_b) <= 1e-12
    keep = diagonal & (density.coeffs.real > 0)
    weights = density.coeffs.real[keep]
    centers = density.centers_a[keep]
    sigma = float(density.sigmas[0])
    probs = weights / weights.sum()
    comp = rng.choice(probs.size, size=n, p=probs)
    return centers[comp] + sigma * rng.standard_normal(n)


def _sample_rejection(
    rng,
    density: GaussianPairSum,
    proposal_weights: np.ndarray,
    proposal_centers: np.ndarray,
    n: int,
) -> np.ndarray:
    sigma = float(density.sigmas[0])
    support = proposal_weights > 1e-300
    weights = proposal_weights[support] / proposal_weights[support].sum()
    centers = proposal_centers[support]

    # rigorous envelope: v^T C v <= lam_max(C) * sum_i psi_i^2 and the
    # proposal mixture dominates that sum by its smallest weight
    dim = int(np.sqrt(density.coeffs.size))
    coeff_matrix = density.coeffs.reshape(dim, dim)
    lam_max = float(np.linalg.eigvalsh(coeff_matrix)[-1].real)
    envelope = 1.1 * lam_max / float(weights.min())

    norm_const = (2.0 * np.pi * sigma * sigma) ** -0.5
    accepted: list[np.ndarray] = []
    got, proposed = 0, 0
    batch = max(n // 4, 4096)
    while got < n:
        comp = rng.choice(weights.size, size=batch, p=weights)
        y = centers[comp] + sigma * rng.standard_normal(batch)
        proposal_pdf = (
            weights[None, :]
            * norm_const
            * np.exp(-((y[:, None] - centers[None, :]) ** 2) / (2.0 * sigma * sigma))
        ).sum(axis=1)
        target = density.value(y)
        accept = rng.random(batch) * envelope * proposal_pdf <= target
        accepted.append(y[accept])
        got += int(accept.sum())
        proposed += batch
        if proposed >= 100_000 and got / proposed < 1e-6:
            raise RejectionStall(f"acceptance rate {got / proposed:.2e}")
    return np.concatenate(accepted)[:n]


def mc_conditional_variance(
    chain: MeasurementChain, query: ChainQuery, cfg: SamplerConfig
) -> tuple[float, float]:
    """Monte Carlo estimate of the conditional variance of the free outcome.

    Samples the exact conditional density: directly when it is a plain
    mixture (no cross terms), otherwise by rejection against the
    unconditioned stage mixture with a provable envelope constant. Returns
    the sample variance and its jackknife standard error.
    """
    rng = make_rng(cfg)
    density, _ = conditional_density_k(chain, query)
    if not _split_density(density).any():
        samples = _sample_direct(rng, density, cfg.samples)
    else:
        rho_before = chain_state(chain, query.outcomes_before())
        free_stage = chain.stages[query.free_index - 1]
        v = free_stage.observable.eigenvectors
        rho_diag = np.clip(
            np.diag(v.conj().T @ rho_before.matrix @ v).real, 0.0, None
        )
        samples = _sample_rejection(
            rng,
            density,
            rho_diag / rho_diag.sum(),
            free_stage.observable.eigenvalues,
            cfg.samples,
        )
    return jackknife_variance_se(samples)
