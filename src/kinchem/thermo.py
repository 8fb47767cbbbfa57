"""Closed-form thermodynamics of the ideal mixture on the equilibrium manifold.

A state is (beta, c_1..c_J) together with the species constants.  Everything
else is algebra: per-species activity prefactors lambda_j, chemical potentials
mu_j = mu_{j,0} + beta^{-1} ln c_j + K_j, pressure, internal energy,
enthalpy, entropy, the free energies, and the two-state reaction quantities
(reaction free energy, equilibrium constant, affinity) built from them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ThermoPoint",
    "lambda_B",
    "standard_potential",
    "chemical_potential",
    "concentration_from_potential",
    "potentials",
    "affinity_and_kappa",
    "markov_entropy",
    "gibbs_identity_check",
    "hess_delta_H",
]


@dataclass(frozen=True)
class ThermoPoint:
    """Inverse temperature, concentrations and the species they refer to."""

    beta: float
    concentrations: tuple
    species: tuple

    def __post_init__(self):
        object.__setattr__(self, "concentrations",
                           tuple(float(c) for c in self.concentrations))
        object.__setattr__(self, "species", tuple(self.species))
        if self.beta <= 0.0 or not math.isfinite(self.beta):
            raise ValueError("beta must be positive and finite")
        if len(self.concentrations) != len(self.species):
            raise ValueError("one concentration per species required")
        if not all(0.0 <= c < math.inf for c in self.concentrations):    # NaN too
            raise ValueError("concentrations must be finite and >= 0")

    @property
    def total(self) -> float:
        return math.fsum(self.concentrations)


def _prefactors(species, beta: float):
    """``lambda_B`` as two lists of floats."""
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    B = []
    lam = []
    for sp in species:
        if sp.mass <= 0.0 or any(m <= 0.0 for m in sp.internal_masses):
            raise ValueError(f"species {sp.type_id}: masses must be positive")
        b = (2.0 * math.pi / sp.mass) ** 1.5
        for mk in sp.internal_masses:
            b *= math.sqrt(2.0 * math.pi / mk)
        B.append(b)
        lam.append(beta ** (-0.5 * sp.dof) * b)
    return B, lam


def lambda_B(species, beta: float):
    """Activity prefactors: B_j = (2 pi / m_j)^{3/2} prod_k (2 pi / m_{j,k})^{1/2}
    and lambda_j = beta^{-d_j/2} B_j."""
    B, lam = _prefactors(species, beta)
    return np.array(B), np.array(lam)


@functools.lru_cache(maxsize=64, typed=True)
def _standard_potentials(species: tuple, beta: float) -> tuple:
    """``standard_potential`` as a tuple of floats, computed once per
    (species, beta): a trajectory's state points all share them."""
    return tuple(-math.log(lam) / beta for lam in _prefactors(species, beta)[1])


def standard_potential(point: ThermoPoint) -> np.ndarray:
    """Standard chemical potentials mu_{j,0} = -beta^{-1} ln lambda_j
    (the value of mu_j - K_j at unit concentration)."""
    return np.array(_standard_potentials(point.species, point.beta))


def chemical_potential(point: ThermoPoint) -> np.ndarray:
    """mu_j = mu_{j,0} + beta^{-1} ln c_j + K_j; undefined at c_j = 0."""
    zero = [sp.type_id for sp, c in zip(point.species, point.concentrations) if c == 0.0]
    if zero:
        raise ValueError(f"chemical potential undefined at zero concentration "
                         f"(species {zero})")
    mu0 = standard_potential(point)
    c = np.asarray(point.concentrations)
    K = np.array([sp.chem_energy for sp in point.species])
    return mu0 + np.log(c) / point.beta + K


def concentration_from_potential(species, beta: float, mu) -> np.ndarray:
    """Inverse map c_j = lambda_j exp(beta (mu_j - K_j))."""
    _, lam = lambda_B(species, beta)
    K = np.array([sp.chem_energy for sp in species])
    return lam * np.exp(beta * (np.asarray(mu) - K))


def potentials(point: ThermoPoint, volume: float) -> dict:
    """All extensive/intensive potentials of the mixture in volume Lambda.

    P = beta^{-1} sum c_j, U = sum <n_j> (d_j/2 beta^{-1} + K_j),
    H = U + P Lambda, S_j = <n_j> (d_j/2 + 1 + beta K_j - beta mu_j),
    G = sum mu_j <n_j>, F = U - beta^{-1} S, Omega = -P Lambda,
    g = G / Lambda.  Zero-concentration species contribute nothing
    (the c ln c terms vanish in the limit).  The sums run over the species
    on plain floats; ``mu`` (-inf at zero concentration) and ``n`` are
    arrays.
    """
    if not 0.0 < volume < math.inf:     # NaN too
        raise ValueError("volume must be positive and finite")
    beta = point.beta
    mu, n = [], []
    U = H = S = G = g = 0.0
    for sp, c, mu0 in zip(point.species, point.concentrations,
                          _standard_potentials(point.species, beta)):
        K, half_d = sp.chem_energy, 0.5 * sp.dof
        n_j = c * volume
        U += n_j * (half_d / beta + K)
        H += n_j * (half_d + 1.0 + beta * K)
        mu_j = -math.inf
        if c > 0.0:
            mu_j = mu0 + math.log(c) / beta + K
            S += n_j * (half_d + 1.0 + beta * K - beta * mu_j)
            G += mu_j * n_j
            g += mu_j * c
        mu.append(mu_j)
        n.append(n_j)
    P = sum(point.concentrations) / beta
    return {"P": P, "U": U, "H": H / beta, "S": S, "G": G, "F": U - S / beta,
            "Omega": -P * volume, "g": g, "mu": np.array(mu), "n": np.array(n)}


def reaction_free_energy(point: ThermoPoint) -> float:
    """Standard reaction free energy of 2 -> 1: dG0 = mu_{1,0} - mu_{2,0} + K_1 - K_2,
    so that kappa = exp(-beta dG0) equals the equilibrium ratio c_1/c_2."""
    if len(point.species) != 2:
        raise ValueError("reaction quantities require exactly two species")
    mu0 = _standard_potentials(point.species, point.beta)
    K1 = point.species[0].chem_energy
    K2 = point.species[1].chem_energy
    return mu0[0] - mu0[1] + K1 - K2


def affinity_and_kappa(point: ThermoPoint) -> dict:
    """Two-state reaction quantities at a state point.

    A = mu_2 - mu_1 = -dG0 - beta^{-1} ln(c_1/c_2) vanishes exactly at the
    equilibrium ratio kappa = exp(-beta dG0).  ``c1_of_A`` inverts the
    affinity relation at the point's total concentration:
    c_1 = c / (1 + exp(beta (dG0 + A))).
    """
    if len(point.species) != 2:
        raise ValueError("affinity requires exactly two species")
    c1, c2 = point.concentrations
    if c1 == 0.0 or c2 == 0.0:
        raise ValueError("affinity undefined at zero concentration")
    beta = point.beta
    dG0 = reaction_free_energy(point)
    kappa = math.exp(-beta * dG0)
    A = -dG0 - math.log(c1 / c2) / beta
    c = point.total

    def c1_of_A(a: float) -> float:
        return c / (1.0 + math.exp(beta * (dG0 + a)))

    return {"A": A, "delta_G0": dG0, "kappa": kappa, "c1_of_A": c1_of_A}


def markov_entropy(p, pi) -> float:
    """Relative entropy S_M = sum p_j ln(p_j / pi_j) >= 0, zero iff p == pi,
    summed over the entries on plain floats."""
    p = np.asarray(p, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if p.shape != pi.shape:
        raise ValueError("distributions must have equal length")
    s = 0.0
    for a, b in zip(p.ravel().tolist(), pi.ravel().tolist()):
        if a > 0.0:
            if b <= 0.0:
                raise ValueError("support of p must lie inside the support of pi")
            s += a * math.log(a / b)
    return s


def gibbs_identity_check(times, concentrations, species, beta: float,
                         c_eq) -> dict:
    """Check g(t) = mu c + (beta C)^{-1} S_M(t) along a concentration trajectory.

    ``c_eq`` is the stationary point of the dynamics that produced the
    trajectory; mu is the (common) chemical potential there and C = 1/c turns
    concentrations into probabilities.  Returns the maximal identity residual
    and the monotonicity defects of g and S_M over the sampled times.
    """
    conc = np.asarray(concentrations, dtype=float)
    c_eq = np.asarray(c_eq, dtype=float)
    c_tot = float(conc[0].sum())
    pi = c_eq / c_eq.sum()
    mu_eq = chemical_potential(ThermoPoint(beta, tuple(c_eq), tuple(species)))
    mu_spread = float(np.max(mu_eq) - np.min(mu_eq))
    mu = float(mu_eq[0])

    gs = np.empty(conc.shape[0])
    sm = np.empty(conc.shape[0])
    for i, c in enumerate(conc):
        pt = ThermoPoint(beta, tuple(c), tuple(species))
        gs[i] = potentials(pt, 1.0)["g"]
        sm[i] = markov_entropy(c / c_tot, pi)
    residual = np.abs(gs - mu * c_tot - (c_tot / beta) * sm)
    return {
        "max_residual": float(residual.max()),
        "g": gs,
        "S_M": sm,
        "mu_equilibrium_spread": mu_spread,
        "g_monotone_defect": float(np.max(np.diff(gs), initial=-math.inf)),
        "S_M_monotone_defect": float(np.max(np.diff(sm), initial=-math.inf)),
    }


def hess_delta_H(endpoint_a: ThermoPoint, endpoint_b: ThermoPoint,
                 volume: float) -> float:
    """Enthalpy difference H(b) - H(a); path independent because H is a state
    function of (beta, c) alone."""
    if endpoint_a.beta != endpoint_b.beta:
        raise ValueError("endpoints must share the same beta")
    return potentials(endpoint_b, volume)["H"] - potentials(endpoint_a, volume)["H"]
