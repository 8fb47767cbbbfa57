"""Deterministic integration of the one-particle kinetic equation and its
fast-scale reductions.

The full equation evolves the joint law p_t(j, T) on an energy grid under
the four particle channels, held as the mass of each type on each node's hat
function.  Unary type changes shift the energy exactly and deposit it onto
the bracketing nodes, each node's rate weighted by the fraction of its cell
above the threshold.  Every other channel is a pair collision that redraws
the pair's energy as a Beta(3/2, 3/2) split: a fast collision keeps both
types, a slow outcome may change them and pays its chemical-energy shift from
the pair total, and bath contact is a collision with a partner drawn from the
bath law Gamma(3/2, beta).  So fast collisions and slow outcomes form one
list of binary terms.  All channels are discretized conservatively on those
masses: one hat projection, shared by the split of a pair total, the bath law
and the initial laws, carries a law onto the grid with its mass and mean
energy, so the discrete operators inherit the continuum conservation laws up
to grid-edge clipping.  Only ``DensityField.marginal`` forms a density.

The split deposition needs no incomplete beta function: with theta =
arcsin sqrt(u), Beta(3/2, 3/2) has the closed-form CDF F(u) = (2/pi)(theta -
sin 4 theta / 4) and partial first moment G(u) = (theta - sin 4 theta / 4 -
sin^3 2 theta / 3) / pi, evaluated once per pair total on the grid's edges.
Nor does the bath law need an incomplete gamma function: Gamma(3/2, 1) has
the closed-form tail Q(3/2, x) = erfc(sqrt x) + 2 sqrt(x / pi) e^{-x}.

In the limit of infinitely fast exchange and bath contact the kinetic
marginal is pinned at density c sqrt(T) exp(-beta T) and only the type
concentrations evolve; that reduction is a linear ODE with Maxwell-averaged
unary rates, solved by ``model.propagate``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import EnsembleSpec, TypeKernel, propagate, sample_times

__all__ = [
    "DensityField",
    "MacroState",
    "ReducedTrajectory",
    "MeanFieldTrajectory",
    "BoltzmannIntegrator",
    "integrate_boltzmann",
    "reduced_macro_ode",
    "check_reduced_model",
    "two_state_equilibrium",
    "survival_gbeta",
    "onsager_flux",
    "maxwell_unary_rates",
    "energy_grid",
    "gamma32_density",
    "field_from_laws",
    "field_from_spec",
    "rk4_step",
]


# -- closed-form pieces --------------------------------------------------------


def survival_gbeta(r: float, beta: float) -> float:
    """Upper tail P(xi > r) of the bath energy law with density c sqrt(x) e^{-beta x}.
    A negative or NaN r, or a beta that is not positive and finite, raises
    ValueError."""
    if not r >= 0.0:        # NaN too
        raise ValueError(f"r must be >= 0, got {r!r}")
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    return float(_gamma32_sf_cdf_and_moment(beta * r)[0])


def onsager_flux(A: float, u12: float, u21: float, beta: float) -> float:
    """Reaction flux as a function of the affinity for the two-state chain.

    J1 = (1 - e^{-beta A}) / (u21^{-1} + u12^{-1} e^{-beta A}); zero exactly
    at A = 0, sign equal to sign(A), saturating at u21 and -u12.  Equals
    dc1/dt on trajectories normalized to unit total concentration.  A NaN
    A, a rate that is not positive and finite, or a beta that is not
    positive and finite raises ValueError.
    """
    if math.isnan(A):
        raise ValueError("A must not be NaN")
    for name, u in (("u12", u12), ("u21", u21)):
        if not 0.0 < u < math.inf:
            raise ValueError(f"rate {name} must be positive and finite, got {u!r}")
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    x = -beta * A
    if x > 700.0:
        return -u12
    e = math.exp(x)
    return (1.0 - e) / (1.0 / u21 + e / u12)


def maxwell_unary_rates(spec: EnsembleSpec, beta: Optional[float] = None) -> np.ndarray:
    """Unary rates averaged over the equilibrium kinetic-energy law.

    For the threshold family this is w_jj' * P(T >= K_j' - K_j); a plugged-in
    rate function is averaged by ``_maxwell_average`` over the allowed
    energy range.
    """
    if beta is None:
        beta = spec.rates.bath_beta
    J = spec.n_types
    K = spec.chem_energies()
    v = np.zeros((J, J))
    r = spec.rates
    for j in range(J):
        for j1 in range(J):
            if j1 == j:
                continue
            thresh = max(0.0, K[j1] - K[j])
            if r.unary_fn is None:
                v[j, j1] = r.unary[j][j1] * survival_gbeta(thresh, beta)
            else:
                v[j, j1] = _maxwell_average(
                    lambda T: r.unary_fn(j + 1, j1 + 1, T), thresh, beta)
    return v


_QUAD_LIMIT = 200    # subintervals of one plug-in Maxwell average
_QUAD_TOL = 1e-13    # its summed error estimate over its summed |integral|


def _maxwell_average(rate: Callable, thresh: float, beta: float) -> float:
    """Integral of rate(T) c sqrt(T) e^{-beta T} over T >= thresh, with
    c = 2 beta^{3/2} / sqrt(pi) normalizing the equilibrium law.

    With T = thresh + s^2 the integrand is smooth at s = 0; it is taken over
    s in [0, sqrt(60 / beta)], which cuts a tail of relative weight about
    e^{-60}.  The rule is globally adaptive in the manner of QUADPACK's QAG
    (Piessens et al. 1983): the subinterval whose two rules differ most is
    bisected until the differences sum to at most ``_QUAD_TOL`` of the
    summed |integrals|, so a kink or a jump of ``rate`` is cut down until
    its error no longer counts.  The value is the 21-point Gauss-Legendre
    rule's.  Its check is the 12-point Gauss-Lobatto rule, whose nodes
    include both ends: a jump between a rule's outermost node and the end of
    its interval is invisible to any rule of interior nodes, and a
    10-point Gauss rule then agrees with the 21-point one exactly.  If
    ``_QUAD_LIMIT`` subintervals do not get there, RuntimeError.
    """
    from numpy.polynomial.legendre import Legendre, leggauss

    x21, w21 = leggauss(21)
    p11 = Legendre.basis(11)
    x12 = np.concatenate(([-1.0], p11.deriv().roots(), [1.0]))
    w12 = 2.0 / (12 * 11 * p11(x12) ** 2)
    nodes = np.concatenate((x21, x12))
    c = 4.0 * beta ** 1.5 / math.sqrt(math.pi)      # with dT = 2 s ds

    def rule(a, b):
        """Heap entry (-error estimate, a, b, value) of [a, b]: the worst first."""
        half = 0.5 * (b - a)
        s = 0.5 * (a + b) + half * nodes
        T = thresh + s * s
        g = np.array([rate(t) for t in T.tolist()]) * c * s * np.sqrt(T) * np.exp(-beta * T)
        fine = half * (w21 @ g[:21])
        return -abs(fine - half * (w12 @ g[21:])), a, b, fine

    parts = [rule(0.0, math.sqrt(60.0 / beta))]
    while True:
        error = -math.fsum(p[0] for p in parts)
        if error <= _QUAD_TOL * math.fsum(abs(p[3]) for p in parts):
            return math.fsum(p[3] for p in parts)
        if len(parts) >= _QUAD_LIMIT:
            raise RuntimeError(f"the Maxwell average of a plugged-in rate above T = {thresh!r} "
                               f"did not converge in {_QUAD_LIMIT} subintervals "
                               f"(error estimate {error:.3g})")
        _, a, b, _ = heapq.heappop(parts)
        heapq.heappush(parts, rule(a, 0.5 * (a + b)))
        heapq.heappush(parts, rule(0.5 * (a + b), b))


def two_state_equilibrium(ratio: float, total: float = 1.0) -> tuple:
    """Stationary (c1, c2) of the two-state chain with c1 / c2 = ratio =
    v21 / v12 and c1 + c2 = total."""
    c1 = total * ratio / (1.0 + ratio)
    return c1, total - c1


@dataclass(frozen=True)
class MacroState:
    """Point of the reduced dynamics: inverse temperature and concentrations.
    Checked when made: beta positive and finite, every concentration finite
    and nonnegative (their total need not be 1)."""

    beta: float
    concentrations: tuple

    def __post_init__(self):
        object.__setattr__(self, "concentrations",
                           tuple(float(c) for c in self.concentrations))
        if not 0.0 < self.beta < math.inf:      # NaN too
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not all(0.0 <= c < math.inf for c in self.concentrations):
            raise ValueError(f"concentrations must be finite and >= 0, got {self.concentrations!r}")


@dataclass
class ReducedTrajectory:
    """Samples of the reduced dynamics dc/dt = c A, with the generator A that
    ``reduced_macro_ode`` built from the Maxwell-averaged unary rates v:
    A = v - diag(v 1)."""

    times: np.ndarray
    concentrations: np.ndarray   # shape (n_times, J)
    beta: float
    generator: np.ndarray        # A, shape (J, J); its rows sum to 0

    def equilibrium(self) -> np.ndarray:
        """Stationary concentrations with the same total (two-state only)."""
        if self.concentrations.shape[1] != 2:
            raise ValueError("closed-form equilibrium implemented for J = 2")
        ratio = self.generator[1, 0] / self.generator[0, 1]
        return np.array(two_state_equilibrium(ratio, self.concentrations[0].sum()))


def rk4_step(f: Callable, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reduced_macro_ode(state: MacroState, spec: EnsembleSpec, t_end: float,
                      sample_every: Optional[float] = None) -> ReducedTrajectory:
    """The concentration dynamics dc/dt = c A on the fixed-beta equilibrium
    manifold, with Maxwell-averaged unary rates v and the generator A = v -
    diag(v 1), solved exactly by ``propagate`` at each sample time; the
    total concentration is conserved, since A's rows sum to 0.
    Samples are taken at ``model.sample_times(0, t_end, sample_every)``,
    with ``sample_every`` = t_end / 200 when it is None; with t_end = 0 the
    trajectory is the single row of initial data at t = 0.  A negative or
    non-finite t_end, a bad ``sample_every``, or a concentration count other
    than the spec's number of species raises ValueError.  The chain is wrong
    for the specs ``check_reduced_model`` names, which ``kinchem sim --engine
    reduced`` refuses; this function still runs them, since the bench's
    ``meanfield`` workload calls it on one."""
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end!r}")
    if len(state.concentrations) != spec.n_types:
        raise ValueError(f"{len(state.concentrations)} concentrations for a spec of "
                         f"{spec.n_types} species")
    if sample_every is None and t_end > 0.0:
        sample_every = t_end / 200.0
    times = np.fromiter(sample_times(0.0, t_end, sample_every), float)
    v = maxwell_unary_rates(spec, beta=state.beta)
    A = v - np.diag(v.sum(axis=1))
    c = propagate(state.concentrations, A, times)
    return ReducedTrajectory(times=times, concentrations=c, beta=state.beta, generator=A)


def check_reduced_model(spec: EnsembleSpec) -> None:
    """ValueError for a spec whose dynamics the fixed-beta chain of
    ``reduced_macro_ode`` drops: a slow binary outcome of positive rate that
    changes the pair's types, or a closed system (scale_heat * heat_rate = 0)
    whose unary channel moves the temperature by changing the chemical energy."""
    r, K = spec.rates, spec.chem_energies()
    closed = spec.scale_heat * r.heat_rate == 0.0
    for a in range(spec.n_types):
        for b in range(spec.n_types):
            if closed and r.unary[a][b] > 0.0 and K[a] != K[b]:
                raise ValueError(f"the reduced model holds beta at bath_beta, but the system is "
                                 f"closed (scale_heat * heat_rate = 0) and the unary channel "
                                 f"{a + 1} -> {b + 1} changes the chemical energy")
            if r.slow_binary[a][b] > 0.0:
                for out, p in r.binary_kernel.outcomes(a + 1, b + 1):
                    if p > 0.0 and sorted(out) != sorted((a + 1, b + 1)):
                        raise ValueError(f"the reduced model has no slow binary reactions, but "
                                         f"({a + 1}, {b + 1}) -> {tuple(out)} changes the types")


# -- energy-grid machinery -------------------------------------------------------


def _rounding(values: Sequence[float]) -> float:
    """16 ulp of the largest magnitude of ``values``: the rounding within
    which a difference of chemical energies is a whole number of steps, both
    when ``energy_grid`` picks the step and when ``BoltzmannIntegrator``
    reads a shift as whole rows."""
    return 16.0 * np.finfo(float).eps * max(map(abs, values), default=0.0)


def _common_step(values: Sequence[float]) -> float:
    """Largest d of which every difference of ``values`` is a whole multiple,
    by Euclid's algorithm on the differences from the smallest value, a
    remainder within ``_rounding(values)`` counting as 0; 0.0 when the
    values are all equal or there are none."""
    low = min(values, default=0.0)
    tol = _rounding(values)
    d = 0.0
    for v in values:
        a, b = max(d, v - low), min(d, v - low)
        while b > tol:
            r = a % b
            a, b = b, min(r, b - r)
        d = a
    return d


def energy_grid(beta: float, chem_energies: Sequence[float] = (),
                m: int = 512, t_max: Optional[float] = None) -> np.ndarray:
    """Uniform grid 0 = T_0 < ... < T_M = t_max, M = m >= 1 intervals.

    A given t_max, positive and finite, is kept.  The default span covers
    the chemical-energy range plus a 30/beta thermal tail, at step h0 =
    span / m.  When the chemical energies differ by whole multiples of a
    common step d >= h0, the step becomes h = d / floor(d / h0) and t_max =
    m h, no shorter than the span: every chemical-energy difference is then
    a whole number of steps, so ``BoltzmannIntegrator`` deposits every
    binary channel through one split matrix."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m!r}")
    if t_max is None:
        span = (max(chem_energies) - min(chem_energies)) if chem_energies else 0.0
        t_max = span + 30.0 / beta
        d = _common_step(chem_energies) if math.isfinite(span) else 0.0
        if d > 0.0 and d >= t_max / m:
            t_max = m * (d / math.floor(d / (t_max / m)))
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    return np.linspace(0.0, t_max, m + 1)


def gamma32_density(grid: np.ndarray, beta: float) -> np.ndarray:
    """Equilibrium kinetic density c sqrt(T) exp(-beta T) on the grid."""
    c = 2.0 * beta ** 1.5 / math.sqrt(math.pi)
    return c * np.sqrt(grid) * np.exp(-beta * grid)


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    w = np.full(grid.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _uniform_grid(grid) -> np.ndarray:
    """``grid`` as floats, uniform, strictly increasing and starting at 0,
    or ValueError."""
    grid = np.asarray(grid, dtype=float)
    h = np.diff(grid)
    # relative only: an absolute tolerance would pass any steps below it
    if h.size == 0 or not h[0] > 0.0 or not np.abs(h - h[0]).max() <= 1e-9 * h[0]:
        raise ValueError("grid must be uniform and strictly increasing")
    # the pair totals k h and the bath band are laid on nodes T_k = k h
    if grid[0] != 0.0:
        raise ValueError(f"grid must start at 0, got grid[0] = {float(grid[0])!r}")
    return grid


@dataclass
class DensityField:
    """Discretized joint law p(j, T) on a uniform grid: values[j, k] >= 0 is
    the mass of type j on node k's hat function, so values[j, k] / w_k, w
    being the trapezoid weights, is p(j, T_k) for a smooth density.

    ``integrate_boltzmann`` clips negative undershoots and rescales to unit
    mass after every step.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = _uniform_grid(self.grid)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.size:
            raise ValueError("values must have shape (J, len(grid))")

    @property
    def n_types(self) -> int:
        return self.values.shape[0]

    def masses(self) -> np.ndarray:
        """Per-type probability masses."""
        return self.values.sum(axis=1)

    def norm(self) -> float:
        return float(self.masses().sum())

    def mean_energy(self) -> float:
        return float((self.values @ self.grid).sum() / self.norm())

    def marginal(self, j: int) -> np.ndarray:
        """Normalized kinetic-energy density of (1-based) type j at the nodes;
        ValueError unless 1 <= j <= n_types."""
        if not 1 <= j <= self.n_types:
            raise ValueError(f"type must be in 1..{self.n_types}, got {j!r}")
        mass = self.masses()[j - 1]
        return self.values[j - 1] / (mass * _trapezoid_weights(self.grid))


def field_from_laws(grid: np.ndarray, weights: Sequence[float], laws) -> DensityField:
    """Field of per-type weights and kinetic-energy laws: each
    distinct law is carried once onto the grid's hat functions
    (``_hat_weights``), which keeps its mass and mean, and scaled to each
    type's weight.  A uniform or point law that reaches below 0 or past the
    grid's last node, or a uniform law with low > high, is refused."""
    grid = np.asarray(grid, dtype=float)
    last = float(grid[-1])
    mass = np.zeros((len(weights), grid.size))
    projected = {}
    for j, (wt, law) in enumerate(zip(weights, laws)):
        if law not in projected:
            low = {"uniform": law.low, "point": law.value}.get(law.law, 0.0)
            top = {"uniform": law.high, "point": law.value}.get(law.law, last)
            if not top <= last:
                raise ValueError(f"{law.law} law {law.to_dict()!r} reaches past the grid's "
                                 f"last node {last!r}")
            if not 0.0 <= low <= top:
                raise ValueError(f"{law.law} law {law.to_dict()!r} needs 0 <= low <= high")
            if law.law == "gamma":
                projected[law] = _gamma32_hat_weights(grid, law.beta)
            elif law.law in ("uniform", "point"):
                projected[law] = _uniform_hat_weights(grid, low, top)
            else:
                raise ValueError(f"unknown law {law.law!r}")
        mass[j] = wt * projected[law]
    return DensityField(grid, mass)


def field_from_spec(spec: EnsembleSpec, grid: np.ndarray) -> DensityField:
    """The spec's initial distribution as a field on ``grid``."""
    dist = spec.initial_distribution
    return field_from_laws(grid, dist.type_weights, dist.energy_laws)


# -- deposition kernels ----------------------------------------------------------


def _beta32_cdf_and_moment(u: np.ndarray):
    """(F(u), G(u)): the CDF of Beta(3/2,3/2) and its partial first moment
    G(u) = int_0^u x f(x) dx, in closed form through theta = arcsin sqrt(u).

    The density is (2/pi)(1 - cos 4 theta) d theta, so F = (2/pi)(theta -
    sin 4 theta / 4) and G = (theta - sin 4 theta / 4 - sin^3 2 theta / 3) / pi,
    which equal betainc(3/2, 3/2, u) and betainc(5/2, 3/2, u) / 2.  Below
    u = 1/16, where those differences cancel, both come from the series of
    the density (8/pi) sqrt(x (1 - x)) instead.
    """
    theta = np.arcsin(np.sqrt(u))
    a = theta - 0.25 * np.sin(4.0 * theta)
    F, G = (2.0 / math.pi) * a, (a - np.sin(2.0 * theta) ** 3 / 3.0) / math.pi
    small = np.flatnonzero((0.0 < u) & (u < 0.0625))     # faster than a mask
    x = u.ravel()[small]
    # sqrt(1 - x) = sum_k c_k x^k, summed by Horner; 14 terms reach 16^-14
    c = np.cumprod([1.0] + [(k - 1.5) / k for k in range(1, 14)])
    f = g = 0.0
    for k in range(c.size - 1, -1, -1):
        f = f * x + c[k] / (k + 1.5)
        g = g * x + c[k] / (k + 2.5)
    r = (8.0 / math.pi) * x * np.sqrt(x)
    F.ravel()[small] = r * f
    G.ravel()[small] = r * x * g
    return F, G


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _gamma32_sf_cdf_and_moment(x):
    """(Q(3/2, x), P(3/2, x), P(5/2, x)) at x >= 0: the upper tail and the
    CDF of Gamma(3/2, 1), and its partial first moment P(5/2, x) =
    (2/3) int_0^x t f(t) dt, each to a few ulp in relative terms.

    Q = erfc(sqrt x) + 2 sqrt(x / pi) e^{-x} and P(5/2) = P(3/2) - d with
    d = x^{3/2} e^{-x} / Gamma(5/2).  Below x = 3, where 1 - Q would cancel,
    P(5/2) = d (x / (5/2)) sum_n x^n / ((7/2)(9/2)...(5/2 + n)) and
    P(3/2) = d + P(5/2), a series of positive terms.
    """
    x = np.minimum(np.asarray(x, dtype=float), 1e3)    # Q(3/2, x) is 0.0 from x = 750 on
    s = np.sqrt(x)
    e = np.exp(-x)
    q = np.asarray(_erfc(s), dtype=float) + (2.0 / math.sqrt(math.pi)) * s * e
    d = (4.0 / (3.0 * math.sqrt(math.pi))) * x * s * e
    xs = np.minimum(x, 3.0)
    term = np.ones_like(xs)
    series = np.ones_like(xs)
    k = 3.5
    while np.any(term > 1e-17 * series):
        term = term * xs / k
        series = series + term
        k += 1.0
    small = x < 3.0
    g = np.where(small, d * (x / 2.5) * series, 1.0 - q - d)
    return q, np.where(small, d + g, 1.0 - q), g


def _hat_weights(law: Callable, scale, grid: np.ndarray) -> np.ndarray:
    """Weights E[hat_l(X)] of a law on [0, inf) carried onto the grid's hat
    functions, which keeps its mass and mean.

    ``law(edges)`` returns (upper, F, G) at the M+3 edges T_{-1} ..
    T_{M+1}, in its last axis: the CDF F and the partial first moment
    G / scale (scale being the law's mean, or 1 if no edge is ``upper``),
    except at the edges ``upper`` marks above the median, where they are
    F - 1 and G / scale - 1, the negated upper tails, which keep the digits
    that F near 1 loses.  Their differences are the mass and first moment of
    every interval, which give both wings of each hat; the mass beyond the
    last node is folded into it.
    """
    M = grid.size - 1
    h = grid[1] - grid[0]
    edges = np.concatenate(([grid[0] - h], grid, [grid[M] + h]))
    upper, F, G = law(edges)
    # interval i = [T_{i-1}, T_i]: mass m0[..., i] and mu[..., i], the law's
    # integral of (y - T_{i-1})/h over it; F and G drop by 1 across the median
    across = np.diff(upper, axis=-1)
    m0 = np.diff(F, axis=-1) + across
    mu = (scale * (np.diff(G, axis=-1) + across) - edges[:-1] * m0) / h
    # ascending wing on [T_{l-1}, T_l], weight (y - T_{l-1})/h, and descending
    # wing on [T_l, T_{l+1}], weight 1 - (y - T_l)/h
    w = mu[..., :-1] + m0[..., 1:] - mu[..., 1:]
    w[..., M] = mu[..., M] + ((1.0 - upper[..., M + 1]) - F[..., M + 1])
    return w


# rows per block of a split matrix, whose set-up temporaries are a few
# arrays of this many rows rather than of the whole matrix
_BLOCK_ROWS = 32


def beta_split_deposition(totals: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Row-stochastic deposition of a Beta(3/2,3/2) split onto hat functions.

    Row s gives the expected nodal weights of an energy drawn as totals[s]*X,
    X ~ Beta(3/2,3/2); any mass beyond the last node is folded into it.  The
    closed-form F and G (``_beta32_cdf_and_moment``) are evaluated per row on
    the grid's edges (``_hat_weights``), one block of ``_BLOCK_ROWS`` positive
    totals at a time; a zero total deposits on T_0, and a negative or
    non-finite one is refused with ValueError.  Each entry is computed from
    its own row alone, so the matrix has the bits of a single pass over all
    rows.  A block's hats stop at the first node at or past its largest
    total: every weight beyond that node is exactly 0, and so is the mass
    folded into it, so the rows and their sums see what a full pass sees.
    """
    totals = np.asarray(totals, dtype=float)
    bad = ~(np.isfinite(totals) & (totals >= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"split totals must be finite and >= 0, got totals[{i}] = "
                         f"{float(totals[i])!r}")
    D = np.zeros((totals.size, grid.size))
    pos = totals > 0.0

    def law(edges):
        # S: the totals of the block being deposited, as a column
        u = edges / S
        # the law is symmetric about 1/2: its upper tails at u are the lower
        # ones at 1 - u, which is exact for u >= 1/2; outside [0, 1] both are 0
        upper = u > 0.5
        v = np.minimum(u, 1.0 - u)
        F, G = _beta32_cdf_and_moment(np.maximum(v, 0.0, out=v))
        return upper, np.where(upper, -F, F), 2.0 * np.where(upper, G - F, G)

    rows = np.flatnonzero(pos)
    for lo in range(0, rows.size, _BLOCK_ROWS):
        block = rows[lo:lo + _BLOCK_ROWS]
        S = totals[block][:, None]
        n = min(max(int(np.searchsorted(grid, S.max())), 1) + 1, grid.size)
        D[block, :n] = _hat_weights(law, S / 2.0, grid[:n])
    D[~pos, 0] = 1.0
    D /= D.sum(axis=1, keepdims=True)
    return D


def shift_deposition(grid: np.ndarray, delta: float):
    """Index/fraction arrays scattering node masses to node energy + delta."""
    M = grid.size - 1
    h = grid[1] - grid[0]
    target = grid + delta
    idx = np.clip(np.floor(target / h).astype(int), 0, M - 1)
    frac = np.clip(target / h - idx, 0.0, 1.0)
    over = target >= grid[M]
    idx[over] = M - 1
    frac[over] = 1.0
    under = target < 0.0
    idx[under] = 0
    frac[under] = 0.0
    return idx, frac


def _cell_fraction_above(grid: np.ndarray, threshold: float) -> np.ndarray:
    """Fraction of each node's cell [T_k - h/2, T_k + h/2], cut to the grid,
    that lies above ``threshold``: 1 everywhere when the threshold is at or
    below T_0, 1/2 at a node on it, continuous in the threshold."""
    h = grid[1] - grid[0]
    lo = np.maximum(grid - 0.5 * h, grid[0])
    hi = np.minimum(grid + 0.5 * h, grid[-1])
    return np.clip((hi - threshold) / (hi - lo), 0.0, 1.0)


def _gamma32_hat_weights(grid: np.ndarray, beta: float) -> np.ndarray:
    """Weights b[l] = E[hat_l(xi)], xi ~ Gamma(3/2, beta), the bath law and the
    gamma initial law, on the grid's hat functions, normalized to unit mass."""
    def law(edges):
        x = beta * np.clip(edges, 0.0, None)
        q, p, g = _gamma32_sf_cdf_and_moment(x)
        upper = q < 0.5
        # Q(5/2, x) = Q(3/2, x) + x^{3/2} e^{-x} / Gamma(5/2)
        q52 = q + (2.0 / 3.0) * x * gamma32_density(x, 1.0)
        return upper, np.where(upper, -q, p), np.where(upper, -q52, g)

    b = _hat_weights(law, 1.5 / beta, grid)
    return b / b.sum()


def _uniform_hat_weights(grid: np.ndarray, low: float, high: float) -> np.ndarray:
    """Weights E[hat_l(X)], X ~ Uniform[low, high] inside the grid, and for
    low == high the limit law, the point mass at low."""
    def law(edges):
        # F(y) = (c - low) / (high - low) with c = clip(y, low, high), whose
        # limit is the step y > low, and G(y) = F(y) (low + c) / 2
        c = np.clip(edges, low, high)
        F = (c - low) / (high - low) if high > low else (edges > low).astype(float)
        return np.zeros(edges.shape, bool), F, F * (low + c) / 2.0

    return _hat_weights(law, 1.0, grid)


# -- the four-channel integrator --------------------------------------------------


class BoltzmannIntegrator:
    """Conservative RK4 integrator for the discretized kinetic equation.

    Operates on the masses rho[j, k] of ``DensityField.values``.  A unary
    change j -> j1 needs kinetic energy T >= K_j1 - K_j: its rate at node k
    is weighted by the fraction of the cell [T_k - h/2, T_k + h/2] above
    that threshold (``_cell_fraction_above``), 1/2 at a node on it, and the
    node's moved mass lands at T_k + K_j - K_j1 on the bracketing nodes.  On
    a grid aligned to the chemical energies every threshold is a node, so no
    node below it moves and the channel conserves energy; off the lattice
    the node just below a threshold moves part of its cell, and that mass,
    which would land below 0, lands on T_0.  Every pair collision is one
    term (j, jp, j1, j1p, coef, dK, s_min) of ``binary_terms``: type j meets
    type jp at rate coef per unit mass of jp, its slot becomes type j1 (the
    partner's new type j1p is carried by the term of the swapped pair), and
    the pair total less the chemical energy -dK the outcome takes up is
    redrawn as a Beta(3/2, 3/2) split.  A pair
    can react only from pair-total index s_min on, where the total clears
    that energy; a term with s_min > 2M never fires and only counts toward
    ``max_out_rate``.  Fast (Kac) collisions come first, built by the same loop
    as slow reactions under the identity kernel: they keep both types, shift
    no chemical energy and have threshold 0.

    The one list gives every binary part of ``rhs`` and ``max_out_rate``.
    Gains go through the pair-total convolution conv[s] = sum_{k+l=s}
    rho_j[k] rho_jp[l], deposited by one split matrix per row lattice: a
    shift dK within rounding of n grid steps moves the pair total s h to row
    s + n of the matrix whose row r splits the total r h, rows below 0
    dropped, so on a grid that ``energy_grid`` aligns to the chemical
    energies every term reads that one matrix; a shift off the lattice keeps
    its own matrix, whose rows below s_min are zero.  Losses read the mass of
    jp above the threshold, nodes l >= s_min - k.  Bath contact is one more
    pair collision, with a partner drawn from the bath law: carried onto the
    grid's hat functions by the projection (``_hat_weights``) that also
    builds the split, the law is a row b of a pseudo-type J, each type's
    convolution with b is deposited by the zero-shift matrix at weight
    ``heat_eff``, and a spec with heat on always has that matrix.

    The set-up builds each split matrix a block of rows at a time, so its
    temporaries stay a few blocks, not whole matrices: each split matrix has
    the bits of a one-pass build (``beta_split_deposition``), and a shift off
    the lattice zeroes its rows below 0 in place.

    ``__init__`` turns the term lists into flat tables over (type, node), so
    ``rhs`` loops over no term.  The unary gains are one scatter table
    (source, destination, coefficient), applied by one ``np.bincount``.  Each
    node's unary rates plus the bath contact rate are one constant out-rate
    array.  Per split matrix, one scatter table places the weighted
    convolutions in W, rows by destination type (one bincount), deposited by
    one product W @ D.  The binary out-rates are one gather from the partner
    masses' suffix sums, an index row per (j, jp, s_min), weighed by a
    (type, row) coefficient matrix.  The grid obeys ``DensityField``'s rule.
    """

    def __init__(self, spec: EnsembleSpec, grid: np.ndarray, *,
                 enable_slow_binary: bool = True):
        self.grid = _uniform_grid(grid)
        self.h = float(self.grid[1] - self.grid[0])
        J = spec.n_types
        M = self.grid.size - 1
        K = spec.chem_energies()
        r = spec.rates

        # unary: rate vectors and shift depositions per ordered (j, j1)
        self.unary_terms = []
        for j in range(J):
            for j1 in range(J):
                if j1 == j:
                    continue
                cut = _cell_fraction_above(self.grid, K[j1] - K[j])
                if r.unary_fn is None:
                    rate = r.unary[j][j1] * cut
                else:
                    rate = np.array([r.unary_fn(j + 1, j1 + 1, float(T)) * c
                                     if c > 0.0 else 0.0
                                     for T, c in zip(self.grid, cut)])
                if not rate.any():
                    continue
                idx, frac = shift_deposition(self.grid, K[j] - K[j1])
                self.unary_terms.append((j, j1, rate, idx, frac))

        # a shift dK within the rounding of the chemical energies of n steps
        # moves the pair total by n rows; any other shift is off the lattice,
        # and so is a gain of more than 2M rows, which would lengthen the one
        # matrix by rows that no other shift reads
        pair_totals = np.arange(2 * M + 1) * self.h
        tol = _rounding(K)

        def row_shift(dK):
            n = round(dK / self.h)
            return n if abs(dK - n * self.h) <= tol and n <= 2 * M else None

        self.f_eff = spec.scale_fast * np.array(r.fast_binary, dtype=float) \
            if J else np.zeros((0, 0))
        if enable_slow_binary and r.slow_fn is not None:
            raise ValueError("mean-field slow binary supports constant rates only")
        bmat = np.array(r.slow_binary, dtype=float) if enable_slow_binary else np.zeros((J, J))
        self.binary_terms = []
        shifts = {}
        for mat, kernel in ((self.f_eff, TypeKernel()), (bmat, r.binary_kernel)):
            for j, jp in np.argwhere(mat).tolist():
                # engine picks the ordered pair uniformly, so the effective
                # first-slot kernel is the swap-symmetrized one
                eff = {}
                for (a, bb), prob in kernel.outcomes(j + 1, jp + 1):
                    eff[(a - 1, bb - 1)] = eff.get((a - 1, bb - 1), 0.0) + 0.5 * prob
                for (a, bb), prob in kernel.outcomes(jp + 1, j + 1):
                    eff[(bb - 1, a - 1)] = eff.get((bb - 1, a - 1), 0.0) + 0.5 * prob
                for (j1, j1p), prob in eff.items():
                    dK = (K[j] + K[jp]) - (K[j1] + K[j1p])
                    n = shifts.setdefault(dK, row_shift(dK))
                    s_min = (max(0, -n) if n is not None
                             else int(np.count_nonzero(pair_totals + dK < 0.0)))
                    self.binary_terms.append(
                        (j, jp, j1, j1p, 2.0 * mat[j, jp] * prob, dK, s_min))

        # one split deposition per row lattice, rows 0 .. 2M + the largest
        # shift; one per shift off the lattice, its rows below s_min zero.  A
        # shift no pair total can pay (s_min > 2M) never fires and is left
        # out of the gains and losses.  Bath contact is a collision with a
        # partner drawn from the bath law, whose hat weights are the row of
        # pseudo-type J: it needs the zero-shift matrix.
        self.heat_eff = spec.scale_heat * r.heat_rate
        heat = self.heat_eff > 0.0
        self._bath = _gamma32_hat_weights(self.grid, r.bath_beta) if heat else None
        live = {dK for *_, dK, s_min in self.binary_terms if s_min <= 2 * M}
        lattice = [n for dK, n in shifts.items() if dK in live and n is not None]
        matrices = {}
        if lattice or heat:
            totals = np.arange(2 * M + 1 + max([0, *lattice])) * self.h
            matrices[None] = beta_split_deposition(totals, self.grid)
        for dK, n in shifts.items():
            if dK in live and n is None:
                totals = pair_totals + dK
                matrices[dK] = D = beta_split_deposition(np.maximum(totals, 0.0), self.grid)
                D[totals < 0.0] *= 0.0

        # gains, by linearity: per split matrix, each destination type sums
        # its weighted pair convolutions at their row shifts, deposited by
        # one product per rhs call; conv(j, jp) == conv(jp, j), so each
        # unordered type pair is convolved once per call.  Losses: node k of
        # type j meets jp only at nodes l >= s_min - k, and terms with the
        # same pair and threshold share one coefficient.  Bath contact
        # convolves each type with the bath row J and deposits it unshifted.
        self.conv_pairs = sorted({tuple(sorted(t[:2])) for t in self.binary_terms
                                  if t[5] in live} | {(j, J) for j in range(J) if heat})
        groups, loss = {}, {}
        for j, jp, j1, j1p, coef, dK, s_min in self.binary_terms:
            if dK not in live:
                continue
            n = shifts[dK]
            weights = groups.setdefault(dK if n is None else None, {})
            key = (n or 0, j1, self.conv_pairs.index(tuple(sorted((j, jp)))))
            weights[key] = weights.get(key, 0.0) + coef
            loss[j, jp, s_min] = loss.get((j, jp, s_min), 0.0) + coef
        for j in range(J if heat else 0):
            groups.setdefault(None, {})[0, j, self.conv_pairs.index((j, J))] = self.heat_eff
        self.gain_groups = [(matrices[g], [(n, dest, p, w) for (n, dest, p), w in weights.items()])
                            for g, weights in groups.items()]
        self.binary_loss = [(j, jp, coef, s_min) for (j, jp, s_min), coef in loss.items()]

        # max_out_rate's constant part: per type the largest node of its
        # unary outflow
        unary_out = np.zeros((J, M + 1))
        for j, j1, rate, idx, frac in self.unary_terms:
            unary_out[j] += rate
        self.unary_out_max = [float(row.max()) for row in unary_out]

        # rhs tables, flat over (type, node).  Unary gains: each term moves
        # rate (1 - frac) of node k's mass to node idx[k] of type j1 and
        # rate frac to idx[k] + 1.  Every node loses mass at its unary rates
        # and at the bath contact rate, a constant per (type, node).
        n_nodes, S = M + 1, 2 * M + 1
        unary = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
        for j, j1, rate, idx, frac in self.unary_terms:
            for at, coef in ((idx, rate * (1.0 - frac)), (idx + 1, rate * frac)):
                k = np.flatnonzero(coef)
                unary.append((j * n_nodes + k, j1 * n_nodes + at[k], coef[k]))
        self._unary_gain = [np.concatenate(part) for part in zip(*unary)]
        self._out_rate = unary_out + self.heat_eff
        # binary gains: per matrix, the flat convolutions' entries (src)
        # weighted into W, of shape (J, rows), at (dst): pair total s of
        # conv_pairs[p] lands on row s + n of type dest, rows below 0 dropped
        self._gain_tables = []
        for D, entries in self.gain_groups:
            rows, src, dst, coef = D.shape[0], [], [], []
            for n, dest, p, w in entries:
                cols = np.arange(max(n, 0), n + S)
                src.append(p * S + cols - n)
                dst.append(dest * rows + cols)
                coef.append(np.full(cols.size, w))
            self._gain_tables.append((D, *map(np.concatenate, (src, dst, coef))))
        # binary losses: node k of type j meets jp at nodes l >= s_min - k,
        # whose mass is entry n_nodes - l of row jp of the cumulative sums
        # from the last node, 0 prepended; (J, terms) coefficients weigh them
        self._loss_at = np.zeros((len(self.binary_loss), n_nodes), dtype=int)
        self._loss_coef = np.zeros((J, len(self.binary_loss)))
        for i, (j, jp, coef, s_min) in enumerate(self.binary_loss):
            l_min = np.clip(s_min - np.arange(n_nodes), 0, n_nodes)
            self._loss_at[i] = jp * (n_nodes + 1) + n_nodes - l_min
            self._loss_coef[j, i] = coef

    # -- right-hand side ---------------------------------------------------------

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        J, n_nodes = rho.shape
        src, dst, coef = self._unary_gain
        out = np.bincount(dst, rho.ravel()[src] * coef, minlength=rho.size)
        out = out.astype(float, copy=False).reshape(J, n_nodes)   # empty bincounts are int
        rate = self._out_rate
        if self._gain_tables:
            rows = [*rho, self._bath]
            conv = np.concatenate([np.convolve(rows[j], rows[jp]) for j, jp in self.conv_pairs])
            for D, src, dst, coef in self._gain_tables:
                W = np.bincount(dst, conv[src] * coef, minlength=J * D.shape[0])
                out += W.reshape(J, -1) @ D
            tail = np.zeros((J, n_nodes + 1))     # tail[j, i]: mass on j's last i nodes
            np.cumsum(rho[:, ::-1], axis=1, out=tail[:, 1:])
            rate = rate + self._loss_coef @ tail.ravel()[self._loss_at]
        out -= rate * rho
        return out

    def max_out_rate(self, rho: np.ndarray) -> float:
        """Upper bound on the total per-node outflow rate, for the step size:
        per type, its largest unary node, each binary term's coefficient times
        the partner's whole mass, as if every node cleared the threshold (a
        term that never fires on the grid, s_min > 2M, counts too), and bath
        contact's ``heat_eff``.  Rounding is monotone, so no node exceeds it."""
        type_mass = rho.sum(axis=1)
        out = list(self.unary_out_max)
        for j, jp, j1, j1p, coef, dK, s_min in self.binary_terms:
            out[j] += coef * type_mass[jp]
        return float(max((r + self.heat_eff for r in out), default=0.0))

    def step(self, rho: np.ndarray, dt: float) -> np.ndarray:
        return rk4_step(self.rhs, rho, dt)


@dataclass
class MeanFieldTrajectory:
    times: np.ndarray
    fields: list                 # DensityField snapshots at sample times
    max_step_drift: float        # largest pre-renormalization mass drift
    clipped_mass: float          # negative mass clipped, summed over steps

    def concentrations(self) -> np.ndarray:
        return np.array([f.masses() for f in self.fields])

    def final(self) -> DensityField:
        return self.fields[-1]


# the most RK4 steps integrate_boltzmann takes on; its docstring says why
MAX_RK4_STEPS = 10 ** 6


def integrate_boltzmann(field: DensityField, spec: EnsembleSpec, t_end: float,
                        dt: Optional[float] = None, *,
                        sample_every: Optional[float] = None,
                        enable_slow_binary: bool = True) -> MeanFieldTrajectory:
    """March the field to t_end with fixed-step RK4.

    Every channel the spec sets runs, slow binary included unless
    ``enable_slow_binary`` is False; a ``slow_fn`` plug-in raises ValueError.

    The step must satisfy dt * (max total outflow rate) <= 0.5; a violating
    request raises ValueError.  The field is clipped to nonnegative values and
    renormalized after every step; the worst pre-renormalization drift and the
    total clipped negative mass are reported on the trajectory.

    Snapshots are taken exactly at the instants of
    ``model.sample_times(0, t_end, sample_every)``: each interval [a, b] of
    that clock is marched in ceil((b - a) / dt) equal steps and its snapshot
    is stamped b.  A dt that is not positive and finite, a negative or
    non-finite ``t_end``, or a bad ``sample_every`` raises ValueError.

    The steps are counted before the first is taken, and more than
    ``MAX_RK4_STEPS`` = 10**6 raise ValueError naming the count: at the
    rates a valid spec allows, dt * rate <= 0.5 can ask for 1e300 steps.
    The most any test takes is 570, the ``meanfield`` benchmark workload 150
    and README's ``sim --engine meanfield`` example 50; no scenario calls this.
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end!r}")
    if dt is not None and not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    clock = sample_times(0.0, t_end, sample_every)
    integ = BoltzmannIntegrator(spec, field.grid, enable_slow_binary=enable_slow_binary)
    rho = field.values / field.values.sum()
    rate = integ.max_out_rate(rho)
    if dt is None:
        dt = 0.4 / rate if rate > 0.0 else math.inf
        if dt == math.inf:      # rate 0, or below 0.4 / DBL_MAX
            # any dt at least as long as a sample interval takes the same steps
            dt = t_end or 1.0
    if rate * dt > 0.5:
        raise ValueError(
            f"step size violates stability bound: dt*rate = {rate * dt:.3g} > 0.5")

    # a loop once started runs all its steps: count them first
    times, steps, counted = [next(clock)], [], 0
    for b in clock:
        n = (b - times[-1]) / dt
        if counted + n > MAX_RK4_STEPS:
            need = counted + (t_end - times[-1]) / dt
            raise ValueError(f"t_end = {t_end!r} needs at least {need:.7g} RK4 steps of "
                             f"dt = {dt:.3g}, more than MAX_RK4_STEPS = {MAX_RK4_STEPS}")
        steps.append(math.ceil(n))
        counted += steps[-1]
        times.append(b)
    # each snapshot holds the step's own array: rk4_step returns a new one,
    # and the clip and the renormalization act in place only on that one
    fields = [DensityField(field.grid, rho)]
    drift = 0.0
    clipped = 0.0
    a = times[0]
    for b, n in zip(times[1:], steps):
        h = (b - a) / n
        for k in range(1, n + 1):
            rho = integ.step(rho, h)
            clipped -= float(np.minimum(rho, 0.0).sum())
            np.clip(rho, 0.0, None, out=rho)
            total = rho.sum()
            drift = max(drift, abs(total - 1.0))
            rho /= total
            rate = integ.max_out_rate(rho)
            if rate * h > 0.5:
                raise ValueError(
                    f"step size violates stability bound at t={a + k * h:.3g}: "
                    f"dt*rate = {rate * h:.3g} > 0.5")
        fields.append(DensityField(field.grid, rho))
        a = b
    return MeanFieldTrajectory(np.asarray(times), fields, drift, clipped)
