"""Independent references for the tests, written with numpy alone and nothing from ``seqmeas``."""

import numpy as np


def dense_kraus_reference(mats, sigmas, rho, free, fixed):
    """(mean, variance) of the free outcome: p(y) proportional to Tr[E K(y) rho K(y)^dagger].

    ``rho`` and ``E`` are plain products of dense Kraus matrices
    ``K(x) = sum_a exp(-(x - a)^2 / 4 sigma^2) P_a``, renormalized at each
    stage; at a fixed outcome the weights are divided by their largest, a
    factor the renormalization drops anyway, so far outcomes stay
    representable. The density is tabulated on a grid of step sigma/8 over
    the spectrum plus twelve sigma each side, where the sums are exact to
    rounding for these Gaussian integrands.
    """

    def kraus(a, sigma, xs, scaled):
        lam, v = np.linalg.eigh(a)
        logs = -((np.atleast_1d(xs)[:, None] - lam) ** 2) / (4.0 * sigma * sigma)
        if scaled:
            logs -= logs.max(axis=-1, keepdims=True)
        return (v * np.exp(logs)[:, None, :]) @ v.conj().T

    outcomes = list(fixed[:free]) + [None] + list(fixed[free:])
    for a, sigma, x in zip(mats[:free], sigmas[:free], outcomes[:free]):
        k = kraus(a, sigma, x, True)[0]
        rho = k @ rho @ k.conj().T
        rho = rho / np.trace(rho).real
    effect = np.eye(len(rho), dtype=complex)
    for a, sigma, x in reversed(list(zip(mats[free + 1 :], sigmas[free + 1 :], outcomes[free + 1 :]))):
        k = kraus(a, sigma, x, True)[0]
        effect = k.conj().T @ effect @ k
        effect = effect / np.trace(effect).real
    a, sigma = mats[free], sigmas[free]
    lam = np.linalg.eigvalsh(a)
    grid = np.arange(lam.min() - 12.0 * sigma, lam.max() + 12.0 * sigma, sigma / 8.0)
    k = kraus(a, sigma, grid, False)
    density = np.einsum("gij,jk,glk,li->g", k, rho, k.conj(), effect).real
    mean = float((grid * density).sum() / density.sum())
    return mean, float(((grid - mean) ** 2 * density).sum() / density.sum())
