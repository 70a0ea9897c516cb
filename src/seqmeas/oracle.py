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

from .chain import ChainQuery, MeasurementChain
from .errors import QuadratureFailure, RejectionStall, ZeroLikelihood
from .kraus import MeasurementStage
from .pointer import GaussianPairSum, upper_pairs

#: Algorithm identifier of the sample generator, recorded in output metadata.
RNG_ALGORITHM = "PCG64"

_CHUNK = 1 << 16
# sample_chain draws a chunk at a time and computes a block of columns at a
# time; of 4096 to 32768 columns, 8192 ran fastest or tied at 200k samples,
# d = 2-4, 2-12 stages (one BLAS thread, 2-core Xeon with 2 MiB L2 per core)
_BLOCK = 1 << 13


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
    """Interval containing all centers with a ``pad_sigmas`` margin."""
    pad = pad_sigmas * s.sigma
    return float(s.centers.min() - pad), float(s.centers.max() + pad)


def quad_pair_sum_stats(
    s: GaussianPairSum, cfg: QuadratureConfig = QuadratureConfig()
) -> tuple[float, float, float]:
    """(normalization, mean, variance) of a pair sum by quadrature only.

    The moments 0, 1 and 2 share one adaptive pass, with breakpoints at
    the centers; only ``s.value`` is used, never the moment formulas.
    """
    edges = _panel_edges(pair_sum_domain(s, cfg.domain_pad), s.centers)

    def moments(x):
        v = s.value(x)
        return np.stack([v, x * v, x**2 * v])

    norm, first, second = (float(m) for m in _integrate(moments, edges, cfg))
    mean = first / norm
    return norm, mean, second / norm - mean * mean


def _pick_components(draws: np.ndarray, weights: np.ndarray, comp: np.ndarray, flags: np.ndarray) -> np.ndarray:
    # the component of each sample, into ``comp``, from its uniform draw in
    # ``draws``; weights has one row per component and one column per
    # sample, or one column shared by all samples; it need not be
    # normalized, since draws are scaled by the column totals. Nothing is
    # allocated: weights is overwritten by its cumulative sums, draws by the
    # scaled draws, and ``flags`` is a boolean buffer as long as ``comp``
    for k in range(1, len(weights)):
        weights[k] += weights[k - 1]
    totals = weights[-1]
    # a NaN minimum fails the first test
    if not (totals.min() > 0.0 and totals.max() < np.inf):
        k = int(np.argmax(~(np.isfinite(totals) & (totals > 0.0))))
        raise ZeroLikelihood(f"level weights of sample {k} sum to {float(totals[k])!r}")
    draws *= totals
    if len(weights) == 2:
        return np.greater_equal(draws, weights[0], out=comp)
    comp.fill(0)
    for bound in weights[:-1]:
        comp += np.less(bound, draws, out=flags)
    return comp


def _hermitian_coords(matrices: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian (..., d, d) matrices, shape (..., d^2).

    They are the diagonal, then the real parts of the upper triangle in
    :func:`~seqmeas.pointer.upper_pairs` order, then its imaginary parts.
    """
    d = matrices.shape[-1]
    entries = matrices[(...,) + upper_pairs(d)]
    return np.concatenate([entries.real, entries[..., d:].imag], axis=-1)


def _coord_rotation(u: np.ndarray) -> np.ndarray:
    """Real (d^2, d^2) matrix M with coords(U^dagger S U) = M @ coords(S)."""
    d = u.shape[0]
    p, q = upper_pairs(d)
    # basis[k] is the Hermitian matrix whose coordinates are the k-th unit vector
    unit = np.concatenate([np.ones(p.size), np.full(p.size - d, 1j)])
    p, q = np.concatenate([p, p[d:]]), np.concatenate([q, q[d:]])
    basis = np.zeros((d * d, d, d), dtype=complex)
    k = np.arange(d * d)
    basis[k, p, q] = unit
    basis[k, q, p] = unit.conj()
    return _hermitian_coords(u.conj().T @ basis @ u).T


def _amplitudes(x: np.ndarray, stage: MeasurementStage, out: np.ndarray) -> np.ndarray:
    # Kraus weights w_p(x) of every eigenvalue into ``out``, shape (d, n);
    # sampled outcomes stay within a few sigma of a center, so they cannot
    # all underflow before normalization
    np.subtract(x, stage.observable.eigenvalues[:, None], out=out)
    np.square(out, out=out)
    out /= -(4.0 * stage.sigma**2)
    return np.exp(out, out=out)


def sample_chain(chain: MeasurementChain, cfg: SamplerConfig) -> np.ndarray:
    """Synthetic outcome records, one row per run of the whole chain.

    Each stage's outcome is drawn from the Gaussian mixture over the stage
    observable's eigenvalues, weighted by their eigenvectors' populations in
    the current conditional state, after which the state is updated with
    the matching Kraus operator. Fixed
    seeds reproduce records exactly.

    Each sample's state is carried in the current stage's eigenbasis as its
    d^2 real Hermitian coordinates (see ``_hermitian_coords``). The Kraus
    update scales the coordinates of entry (p, q) by w_p w_q, the pick
    weights are the first d coordinates, and moving to the
    next stage's eigenbasis is one real GEMM. Every sample starts from the
    same state, so the first stage draws from one shared weight column and
    its update folds into the first rotation: one GEMM over the d(d+1)/2
    products w_p w_q. The last stage reads only populations, so the
    rotation into it keeps d rows, and the state before it is not
    renormalized, since the pick divides by the totals. Random draws come a
    chunk at a time: each chunk first makes every stage's ``random`` and
    then its ``standard_normal`` call, stage by stage. The arithmetic runs
    a block of ``_BLOCK`` columns at a time, every stage on the block's
    slice of those draws, in one workspace per call, so the records do not
    depend on the block.

    Raises
    ------
    ZeroLikelihood
        If a sample's level weights sum to zero or to a non-finite value.
    """
    rng = make_rng(cfg)
    n = cfg.samples
    stages = chain.stages
    d = chain.dim
    p, q = upper_pairs(d)
    v0 = stages[0].observable.eigenvectors
    rho0 = _hermitian_coords(v0.conj().T @ chain.initial_state.normalized().matrix @ v0)
    rotations = [
        _coord_rotation(
            stages[j].observable.eigenvectors.conj().T @ stages[j + 1].observable.eigenvectors
        )
        for j in range(len(stages) - 1)
    ]
    if rotations:
        # the last stage reads only its populations, the first d coordinates
        rotations[-1] = rotations[-1][:d]
        # coords(R (rho0 * products)) = (R * rho0) @ products, where an
        # entry's real and imaginary coordinates share w_p w_q
        kernel = rotations[0] * rho0
        rotations[0] = np.concatenate([kernel[:, :d], kernel[:, d : p.size] + kernel[:, p.size :]], axis=1)
    out = np.empty((n, len(stages)))
    uniforms, normals = np.empty((2, len(stages), min(n, _CHUNK)))
    # the GEMMs alternate between two state buffers, since numpy copies an aliased out
    m = min(n, _BLOCK)
    buffers = np.empty((2, d * d, m))
    products, amplitudes, populations = np.empty((p.size, m)), np.empty((d, m)), np.empty((d, m))
    x, totals = np.empty((2, m))
    picks, flags = np.empty(m, dtype=np.intp), np.empty(m, dtype=bool)
    for start in range(0, n, _CHUNK):
        count = min(_CHUNK, n - start)
        for j in range(len(stages)):
            rng.random(out=uniforms[j, :count])
            rng.standard_normal(out=normals[j, :count])
        for lo in range(0, count, _BLOCK):
            c = min(_BLOCK, count - lo)
            cols = slice(lo, lo + c)
            # one column shared by every sample until the first update
            states = rho0[:, None]
            for j, stage in enumerate(stages):
                obs = stage.observable
                probs = np.clip(states[:d], 0.0, None, out=populations[:, : states.shape[1]])
                comp = _pick_components(uniforms[j, cols], probs, picks[:c], flags[:c])
                # in-range picks; the default mode would copy out to guard against a bad index
                xs = np.take(obs.eigenvalues, comp, out=x[:c], mode="clip")
                xs += np.multiply(stage.sigma, normals[j, cols], out=normals[j, cols])
                out[start + lo : start + lo + c, j] = xs
                if j + 1 == len(stages):
                    break
                w = _amplitudes(xs, stage, amplitudes[:, :c])
                prods = products[:, :c]
                for k in range(p.size):
                    np.multiply(w[p[k]], w[q[k]], out=prods[k])
                if j:
                    states[: p.size] *= prods
                    states[p.size :] *= prods[d:]
                    if j + 2 < len(stages):
                        states /= states[:d].sum(axis=0, out=totals[:c])
                # the first update is folded into rotations[0]
                target = buffers[j % 2, : len(rotations[j]), :c]
                states = np.matmul(rotations[j], states if j else prods, out=target)
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


def _dense_fold(matrix: np.ndarray, pairs) -> np.ndarray:
    # K M K^H for each (stage, outcome) in the order given, with K = V diag(w) V^H, then unit trace.
    # w is scaled so that the largest w_i^2 p_i is one over M's populations p_i (floored at 1e-300),
    # and its logs are taken as differences: (x - a)^2 loses the eigenvalue gaps once |x| >> a gap
    for stage, x in pairs:
        v, a = stage.observable.eigenvectors, stage.observable.eigenvalues
        logs = (a - a[0]) * (2.0 * x - a - a[0]) / (4.0 * stage.sigma**2)
        populations = np.einsum("ip,ij,jp->p", v.conj(), matrix, v).real
        logs -= (logs + 0.5 * np.log(np.maximum(populations, 1e-300))).max()
        k = (v * np.exp(logs)) @ v.conj().T
        matrix = k @ matrix @ k.conj().T
        matrix = matrix / np.trace(matrix).real
    return matrix


def _conditional_coeffs(chain: MeasurementChain, query: ChainQuery):
    """The free outcome's ``(d, d)`` pair coefficients ``C = rho * E^T``, from dense Kraus products.

    The state ``rho`` of the earlier stages and the effect ``E`` of the later ones are written in
    the free stage's eigenbasis. Returns C, the free eigenvalues and width, and ``rho``'s populations;
    raises :class:`ZeroLikelihood` if the mixture normalization is not finite or below 1e-300.
    """
    query.validate_for(chain)
    free, stages, fixed = query.free_index - 1, chain.stages, query.fixed_outcomes
    v, a, sigma = stages[free].observable.eigenvectors, stages[free].observable.eigenvalues, stages[free].sigma
    # an overflow shows as a non-finite normalization
    with np.errstate(all="ignore"):
        rho = _dense_fold(chain.initial_state.normalized().matrix, zip(stages[:free], fixed[:free]))
        effect = _dense_fold(np.eye(chain.dim, dtype=complex), list(zip(stages[free + 1 :], fixed[free:]))[::-1])
        rho, effect = (v.conj().T @ m @ v for m in (rho, effect))
        coeffs = rho * effect.T
        norm = float((coeffs.real * np.exp(-((a[:, None] - a) ** 2) / (8.0 * sigma * sigma))).sum())
    if not (np.isfinite(coeffs).all() and norm >= 1e-300):
        raise ZeroLikelihood(f"conditional normalization {norm!r} too small")
    return coeffs, a, sigma, rho.diagonal().real


def _split_density(coeffs: np.ndarray, eigenvalues: np.ndarray):
    # the significant pair terms of (d, d) coefficients over two distinct eigenvalues
    cross = np.abs(eigenvalues[:, None] - eigenvalues) > 1e-12
    significant = np.abs(coeffs) > 1e-14 * np.abs(coeffs).max()
    return cross & significant


def _sample_direct(rng, coeffs: np.ndarray, eigenvalues: np.ndarray, sigma: float, n: int) -> np.ndarray:
    diagonal = np.abs(eigenvalues[:, None] - eigenvalues) <= 1e-12
    keep = diagonal & (coeffs.real > 0)
    weights = coeffs.real[keep]
    centers = np.broadcast_to(eigenvalues[:, None], coeffs.shape)[keep]
    probs = weights / weights.sum()
    comp = rng.choice(probs.size, size=n, p=probs)
    return centers[comp] + sigma * rng.standard_normal(n)


def _sample_rejection(
    rng,
    coeff_matrix: np.ndarray,
    sigma: float,
    proposal_weights: np.ndarray,
    proposal_centers: np.ndarray,
    n: int,
) -> np.ndarray:
    # the target's (d, d) pair coefficients are over the proposal centers
    support = proposal_weights > 1e-300
    weights = proposal_weights[support] / proposal_weights[support].sum()
    centers = proposal_centers[support]
    center_weights = np.zeros(proposal_centers.size)
    center_weights[support] = weights

    # rigorous envelope: v^T C v <= lam_max(C) * sum_i psi_i^2 and the
    # proposal mixture dominates that sum by its smallest weight
    lam_max = float(np.linalg.eigvalsh(coeff_matrix)[-1].real)
    envelope = 1.1 * lam_max / float(weights.min())

    # with real amplitudes a_i(y) = exp(-(y - lambda_i)^2 / 4 sigma^2) the
    # target is a^T Re(C) a and the proposal sum_i w_i a_i^2, both up to
    # the same normalization constant, which the accept test drops
    real_coeffs = np.ascontiguousarray(coeff_matrix.real)
    accepted: list[np.ndarray] = []
    got, proposed = 0, 0
    batch = max(n // 4, 4096)
    while got < n:
        comp = rng.choice(weights.size, size=batch, p=weights)
        y = centers[comp] + sigma * rng.standard_normal(batch)
        # one row per level keeps the per-level passes contiguous
        amps = np.exp(-((y - proposal_centers[:, None]) ** 2) / (4.0 * sigma * sigma))
        target = ((real_coeffs @ amps) * amps).sum(axis=0)
        proposal = center_weights @ (amps * amps)
        accept = rng.random(batch) * envelope * proposal <= target
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
    coeffs, eigenvalues, sigma, populations = _conditional_coeffs(chain, query)
    if not _split_density(coeffs, eigenvalues).any():
        samples = _sample_direct(rng, coeffs, eigenvalues, sigma, cfg.samples)
    else:
        populations = np.clip(populations, 0.0, None)
        samples = _sample_rejection(rng, coeffs, sigma, populations / populations.sum(), eigenvalues, cfg.samples)
    return jackknife_variance_se(samples)
