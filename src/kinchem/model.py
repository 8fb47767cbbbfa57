"""Model configuration: species constants, rate tables, ensemble setup.

All objects here are plain immutable data, a spec validated when it is made,
then shared read-only by the particle and mean-field engines.  Units follow
k_B = 1: inverse temperature beta and every energy (kinetic T, chemical K_j)
share one unit, lengths are arbitrary.  The engines also share two tools
from here: the observation clock ``sample_times`` and ``propagate``, the
exponential of a linear system with nonnegative off-diagonal entries, which
serves the reduced ODE and the oracle's exact laws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, count, takewhile
from typing import Callable, Iterator, Optional

import numpy as np

__all__ = [
    "SpeciesSpec",
    "EnergyLaw",
    "InitialDistribution",
    "TypeKernel",
    "RateTable",
    "EnsembleSpec",
    "Violation",
    "ValidationReport",
    "ConfigError",
    "validate_spec",
    "channel_bounds",
    "load_config",
    "save_config",
    "spec_to_dict",
    "spec_from_dict",
    "sample_times",
    "propagate",
]


def _matrix(rows) -> tuple:
    return tuple(tuple(float(x) for x in row) for row in rows)


@dataclass(frozen=True)
class SpeciesSpec:
    """Per-type constants: mass m_j, degrees of freedom d_j, chemical energy K_j.

    ``dof`` counts all degrees of freedom; the first three are translational,
    the remaining ``dof - 3`` are internal oscillators with the given masses.
    The simulator carries no internal coordinates, they enter only through
    the thermodynamic functions.
    """

    type_id: int
    mass: float
    dof: int = 3
    chem_energy: float = 0.0
    internal_masses: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "internal_masses",
                           tuple(float(m) for m in self.internal_masses))


# each energy law and the parameters a config gives for it, no more, no fewer
_LAW_PARAMS = {"uniform": ("low", "high"), "gamma": ("beta",), "point": ("value",)}


@dataclass(frozen=True)
class EnergyLaw:
    """Per-type initial kinetic-energy law: uniform(low, high), gamma(3/2, beta), or point(value)."""

    law: str
    low: float = 0.0
    high: float = 1.0
    beta: float = 1.0
    value: float = 0.0

    def sample(self, rng) -> float:
        if self.law == "uniform":
            return rng.uniform(self.low, self.high)
        if self.law == "gamma":
            return rng.gammavariate(1.5, 1.0 / self.beta)
        if self.law == "point":
            return self.value
        raise ValueError(f"unknown energy law {self.law!r}")

    def to_dict(self) -> dict:
        return {"law": self.law, **{k: getattr(self, k) for k in _LAW_PARAMS[self.law]}}

    @staticmethod
    def from_dict(d: dict, section: str = "energy_law") -> "EnergyLaw":
        """Read a law from a mapping that gives exactly its own parameters."""
        law = _require(d, "law", section)
        if law not in _LAW_PARAMS:
            raise ConfigError(f"{section}: unknown value {law!r} of field 'law' "
                              f"(expected one of {sorted(_LAW_PARAMS)})")
        params = _LAW_PARAMS[law]
        unknown = _unknown_fields(d, ("law", *params), section)
        if unknown:
            raise ConfigError("unknown field(s): " + ", ".join(unknown))
        return EnergyLaw(law, **{k: _real(_require(d, k, section), f"{section}.{k}")
                                 for k in params})


@dataclass(frozen=True)
class InitialDistribution:
    """Type weights (summing to one) plus one kinetic-energy law per type."""

    type_weights: tuple
    energy_laws: tuple

    def __post_init__(self):
        object.__setattr__(self, "type_weights",
                           tuple(float(w) for w in self.type_weights))
        object.__setattr__(self, "energy_laws", tuple(self.energy_laws))


@dataclass(frozen=True)
class TypeKernel:
    """Type-transition kernel for slow binary reactions.

    ``identity`` keeps both types unchanged.  A ``table`` kernel maps an
    ordered type pair (j, j') to a distribution over outcome pairs; entries
    are ((j, j'), (((j1, j1p), prob), ...)) with 1-based type ids.  Pairs
    absent from the table fall back to the identity outcome.
    """

    kind: str = "identity"
    table: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "table", tuple((tuple(ab), tuple((tuple(o), p) for o, p in outs))
                                                for ab, outs in self.table))

    def outcomes(self, j: int, jp: int) -> tuple:
        """Outcome distribution for an ordered (1-based) type pair."""
        if self.kind == "identity":
            return (((j, jp), 1.0),)
        for (a, b), outs in self.table:
            if (a, b) == (j, jp):
                return outs
        return (((j, jp), 1.0),)

    def to_dict(self) -> dict:
        if self.kind == "identity":
            return {"kind": "identity"}
        entries = {}
        for (a, b), outs in self.table:
            entries[f"{a},{b}"] = [[j1, j1p, p] for (j1, j1p), p in outs]
        return {"kind": "table", "entries": entries}

    @staticmethod
    def from_dict(d: dict) -> "TypeKernel":
        kind = d.get("kind", "identity")
        if kind not in ("identity", "table"):
            raise ConfigError(f"binary_kernel: unknown value {kind!r} of field 'kind' "
                              f"(expected 'identity' or 'table')")
        if kind == "identity":
            if "entries" in d:
                raise ConfigError("binary_kernel: field 'entries' is not allowed "
                                  "with kind 'identity'")
            return TypeKernel()
        table = []
        for key, outs in d.get("entries", {}).items():
            a, b = (int(s) for s in key.split(","))
            table.append(((a, b), tuple(((j1, j1p), _real(p, f"rates.binary_kernel[{key}]"))
                                        for j1, j1p, p in outs)))
        return TypeKernel(kind="table", table=tuple(table))


@dataclass(frozen=True)
class RateTable:
    """Reaction rates shared by all engines.

    ``unary`` holds the bounds ū_jj' that thin the unary channel.  Without
    a plug-in they are also the threshold-family base rates: the effective
    rate is w_jj' when T + K_j - K_j' >= 0 and zero otherwise.  A general
    bounded rate function can be plugged in through ``unary_fn`` (signature
    ``(j, j1, T) -> rate`` with 1-based ids), which the particle engine thins
    against ``unary`` and stops on if it exceeds it.  Likewise
    ``slow_binary`` holds the bounds b̄_jj' (also the constant rates when
    ``slow_fn`` is absent), ``fast_binary`` the constants f_jj'.  Plug-ins
    are not serialized to config files.
    """

    unary: tuple
    slow_binary: tuple
    fast_binary: tuple
    heat_rate: float
    bath_beta: float
    binary_kernel: TypeKernel = TypeKernel()
    unary_fn: Optional[Callable] = field(default=None, compare=False)
    slow_fn: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "unary", _matrix(self.unary))
        object.__setattr__(self, "slow_binary", _matrix(self.slow_binary))
        object.__setattr__(self, "fast_binary", _matrix(self.fast_binary))


@dataclass(frozen=True)
class EnsembleSpec:
    """Full configuration of one finite-N ensemble on the periodic box, checked when made."""

    n_particles: int
    box_side: float
    species: tuple
    rates: RateTable
    initial_distribution: InitialDistribution
    scale_fast: float = 1.0
    scale_heat: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))
        if not (report := validate_spec(self)).ok:
            raise ValueError(f"invalid spec:\n{report}")

    @property
    def n_types(self) -> int:
        return len(self.species)

    def chem_energies(self) -> tuple:
        return tuple(sp.chem_energy for sp in self.species)

    def masses(self) -> tuple:
        return tuple(sp.mass for sp in self.species)

    def with_overrides(self, **kw) -> "EnsembleSpec":
        return replace(self, **kw)


@dataclass(frozen=True)
class Violation:
    field: str
    message: str

    def __str__(self):
        return f"{self.field}: {self.message}"


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


class ConfigError(ValueError):
    """Raised on malformed or invalid configuration files."""


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def sample_times(t0: float, t_end: float, every: Optional[float] = None) -> Iterator[float]:
    """The observation clock of every engine, lazily: t0 + k*every while that
    is below t_end - 1e-9*every, then t_end; t0 and t_end if ``every`` is None.

    Instants are computed from k, never accumulated, so engines given the same
    arguments sample at the same floats and ``t_end`` may be infinite.  An
    ``every`` that is not positive and finite raises ValueError.
    """
    if every is None:
        head, stop = (t0,), t_end
    elif not 0.0 < every < math.inf:
        raise ValueError(f"sample_every must be positive and finite, got {every!r}")
    else:
        head, stop = (t0 + k * every for k in count()), t_end - 1e-9 * every
    return chain(takewhile(lambda t: t < stop, head), (t_end,))


# the terms of ``propagate`` past its last one sum to at most this times |p0|_1
TAIL_TOL = 2.0 ** -56
# a matrix whose rows sum to 0 within this fraction of q is a generator: room
# for the rounding of its entries and for PairModel's 1e-12 on kernel rows
_GENERATOR_TOL = 1e-10
# ``propagate`` folds this many powers p0 P^k into its rows at a time, and
# keeps only these when its times are one group
_POWER_BLOCK = 32


def _poisson_terms(qt: float, lam: float) -> int:
    """Least K >= floor(lam) with e^{-qt} lam^{K+1} / (K+1)! (K+2) / (K+2-lam)
    <= TAIL_TOL.  That expression bounds e^{-qt} sum_{k>K} lam^k / k!: past
    k = K + 1 each term is at most lam / (K + 2) times the one before."""
    if lam == 0.0:
        return 0
    log_lam, log_tol = math.log(lam), math.log(TAIL_TOL)
    K = math.floor(lam)
    log_term = (K + 1) * log_lam - qt - math.lgamma(K + 2.0)
    # the factor (K+2) / (K+2-lam) is at least 1: look at it only at the end
    while log_term > log_tol or log_term - math.log1p(-lam / (K + 2)) > log_tol:
        K += 1
        log_term += log_lam - math.log(K + 1)
    return K


def _poisson_weights(lam: np.ndarray, K: int) -> np.ndarray:
    """Rows Pois(k; lam_i), k = 0..K, each normalized to sum 1.  Each row is
    built outward from its mode by the ratios of neighbouring terms: above
    it Pois(k) / Pois(k-1) = lam / k < 1, below it Pois(k-1) / Pois(k) =
    k / lam <= 1.  So no weight near the mode underflows, and none needs a
    factorial."""
    lam = lam[:, None]
    k = np.arange(1.0, K + 1.0)
    w = np.ones((len(lam), K + 1))
    np.cumprod(np.minimum(lam / k, 1.0), axis=1, out=w[:, 1:])
    # below the mode; a row with lam < 1 has its mode at 0 and no such ratio
    w[:, :-1] *= np.cumprod(np.minimum(k / np.maximum(lam, 1.0), 1.0)[:, ::-1], axis=1)[:, ::-1]
    return w / w.sum(axis=1, keepdims=True)


def propagate(p0, A, times) -> np.ndarray:
    """The row vectors p0 exp(A t), one row per t in ``times``, by
    uniformization (Jensen 1953; Moler & Van Loan 2003).

    ``A`` is square with nonnegative off-diagonal entries, given as an array
    or as a triple (src, dst, rate) of equal-length arrays that lists its
    entries, repeated ones adding up: A[src[i], dst[i]] += rate[i].  With q
    the largest |A_ii| (1 if there is none) and P = I + A / q, a nonnegative
    matrix,

        p0 exp(A t) = sum_k Pois(k; q t) p0 P^k,

    and for a nonnegative p0 every term is nonnegative, so nothing cancels.
    Each power p0 P^k comes from the one before by a ``np.bincount`` over the
    entries of P, once for all times, and the powers are folded into the
    rows 32 at a time, by one product with their columns of Poisson weights.
    The weights are made for at most 2^16 (time, term) pairs at a time.
    When that is one group of times, memory holds one block of 32 powers
    rather than all K + 1 of them; with more groups, every group needs
    every power, so memory holds all of them and each group's weights are
    made once.

    Tail bound: with rho = max(1, largest row sum of P), |p0 P^k|_1 <=
    rho^k |p0|_1, so the terms past k = K sum to at most |p0|_1 e^{-qt}
    sum_{k>K} (q t rho)^k / k!.  K is the least count that makes this at most
    ``TAIL_TOL`` |p0|_1 at the largest time (``_poisson_terms``).  Each row of
    Poisson weights is normalized to sum 1, which scales it by less than
    1 + TAIL_TOL.  When A's rows sum to 0 (within 1e-10 q), A is a Markov
    generator: rho = 1, P is stochastic, and each power is also rescaled to
    the mass of p0, so rounding cannot drift the mass.  A negative
    off-diagonal entry, a time that is negative or not finite, a dense A
    that is not len(p0) x len(p0) or an entry index outside 0..len(p0) - 1
    raises ValueError.
    """
    p0 = np.asarray(p0, dtype=float)
    times = np.asarray(times, dtype=float)
    n = len(p0)
    if isinstance(A, tuple):
        src, dst, rate = (np.asarray(x) for x in A)
        if src.size and not 0 <= min(src.min(), dst.min()) <= max(src.max(), dst.max()) < n:
            raise ValueError(f"entry indices of A must lie in 0..{n - 1}")
    else:
        A = np.asarray(A, dtype=float)
        if A.shape != (n, n):
            raise ValueError(f"A must be {n} x {n} for a p0 of {n} entries, got shape {A.shape}")
        src, dst = np.nonzero(A)
        rate = A[src, dst]
    off = src != dst
    diag = np.bincount(src[~off], rate[~off], minlength=n)
    rows = np.bincount(src, rate, minlength=n)
    q = max(-diag.min(initial=0.0), diag.max(initial=0.0)) or 1.0
    generator = np.abs(rows).max(initial=0.0) <= _GENERATOR_TOL * q
    rho = 1.0 if generator else max(1.0, 1.0 + rows.max() / q)
    # the entries of P: A's off the diagonal over q, then the diagonal
    src, dst = (np.concatenate((x[off], np.arange(n))) for x in (src, dst))
    P = np.concatenate((rate[off] / q, 1.0 + diag / q))
    if P.min(initial=0.0) < 0.0:
        raise ValueError("A must have nonnegative off-diagonal entries")
    t_max = times.max()
    if not 0.0 <= times.min() <= t_max < math.inf:
        raise ValueError(f"times must be finite and nonnegative, got {times!r}")
    K = _poisson_terms(float(q * t_max), float(q * t_max * rho))
    mass = p0.sum()
    # the weights of at most 2^16 (time, term) pairs at a time, so that a long
    # horizon's many terms do not take memory for every time at once
    rows = max(1, 2 ** 16 // (K + 1))
    groups = range(0, len(times), rows)
    weights = _poisson_weights(q * times, K) if len(groups) == 1 else None
    block = np.empty((K + 1 if weights is None else min(_POWER_BLOCK, K + 1), n))
    out = np.zeros((len(times), n))
    power = p0
    for k in range(0, K + 1, len(block)):
        powers = block[:K + 1 - k]
        for j, row in enumerate(powers):
            if k + j:
                power = np.bincount(dst, power[src] * P, minlength=n)
            row[:] = power
        if generator and mass > 0.0:
            # scaling commutes with P, so this is each power rescaled in turn
            powers *= mass / powers.sum(axis=1, keepdims=True)
        for i in groups:
            w = _poisson_weights(q * times[i:i + rows], K) if weights is None else weights
            for j in range(k, k + len(powers), _POWER_BLOCK):
                out[i:i + rows] += w[:, j:j + _POWER_BLOCK] @ powers[j - k:j - k + _POWER_BLOCK]
    return out


def _row_sum(row) -> float:
    """``math.fsum`` of nonnegative numbers, inf where it overflows."""
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf


def channel_bounds(spec: EnsembleSpec, n: int) -> tuple:
    """(usup, ubar, bmax, fmax, rates): each type's unary row sum, the largest
    of them, the largest slow and fast rates, and the channels' proposal
    rates at n particles, n ubar, (n - 1) bmax, ((n - 1) scale_fast) fmax and
    (n scale_heat) heat_rate.  ``validate_spec`` and ``kinetics.run`` share it."""
    r, J = spec.rates, len(spec.species)
    usup = tuple(_row_sum(r.unary[j][j1] for j1 in range(J) if j1 != j) for j in range(J))
    ubar = max(usup, default=0.0)
    bmax = max((r.slow_binary[a][b] for a in range(J) for b in range(J)), default=0.0)
    fmax = max((r.fast_binary[a][b] for a in range(J) for b in range(J)), default=0.0)
    return usup, ubar, bmax, fmax, (n * ubar, (n - 1) * bmax, (n - 1) * spec.scale_fast * fmax,
                                    n * spec.scale_heat * r.heat_rate)


def validate_spec(spec: EnsembleSpec) -> ValidationReport:
    """Every violation of the spec's invariants; ``EnsembleSpec`` raises on any when made."""
    r, dist = spec.rates, spec.initial_distribution
    parts = [("rates", r, RateTable), ("ensemble.initial_distribution", dist, InitialDistribution),
             ("rates.binary_kernel", getattr(r, "binary_kernel", None), TypeKernel),
             *((f"species[{k}]", sp, SpeciesSpec) for k, sp in enumerate(spec.species, 1)),
             *((f"ensemble.initial_distribution.energy_laws[{k}]", law, EnergyLaw)
               for k, law in enumerate(getattr(dist, "energy_laws", ()), 1))]
    bad = [Violation(name, f"must be a {kind.__name__}, got {type(part).__name__}")
           for name, part, kind in parts if not isinstance(part, kind)]
    if bad:
        return ValidationReport(bad)

    def flag(fieldname, msg):
        bad.append(Violation(fieldname, msg))

    J = len(spec.species)
    if J == 0:
        flag("species", "at least one species required")
    for pos, sp in enumerate(spec.species, start=1):
        tag = f"species[{pos}]"
        if not _integer(sp.type_id) or sp.type_id != pos:
            flag(f"{tag}.type_id", f"expected consecutive integer id {pos}, got {sp.type_id!r}")
        if not _finite(sp.mass) or sp.mass <= 0.0:
            flag(f"{tag}.mass", f"must be positive and finite, got {sp.mass!r}")
        if not _integer(sp.dof) or sp.dof < 3:
            flag(f"{tag}.dof", f"must be an integer >= 3, got {sp.dof!r}")
        if not _finite(sp.chem_energy) or sp.chem_energy < 0.0:
            flag(f"{tag}.chem_energy", f"must be finite and >= 0, got {sp.chem_energy!r}")
        if _integer(sp.dof) and sp.dof >= 3 and len(sp.internal_masses) != sp.dof - 3:
            flag(f"{tag}.internal_masses",
                 f"count {len(sp.internal_masses)} != dof - 3 = {sp.dof - 3}")
        if not all(_finite(m) and m > 0.0 for m in sp.internal_masses):
            flag(f"{tag}.internal_masses", "all oscillator masses must be positive and finite")

    def check_matrix(name, mat, symmetric):
        """Flag every bad entry; False when the shape itself is wrong."""
        if len(mat) != J or any(len(row) != J for row in mat):
            flag(f"rates.{name}", f"must be a {J}x{J} matrix")
            return False
        for a in range(J):
            for b in range(J):
                x = mat[a][b]
                if not _finite(x) or x < 0.0:
                    flag(f"rates.{name}[{a + 1}][{b + 1}]",
                         f"must be finite and >= 0, got {x!r}")
        if symmetric:
            for a in range(J):
                for b in range(a + 1, J):
                    if mat[a][b] != mat[b][a]:
                        flag(f"rates.{name}",
                             f"symmetry broken at ({a + 1},{b + 1}): "
                             f"{mat[a][b]!r} != {mat[b][a]!r}")
        return True

    unary_ok = check_matrix("unary", r.unary, symmetric=False)
    check_matrix("slow_binary", r.slow_binary, symmetric=True)
    check_matrix("fast_binary", r.fast_binary, symmetric=True)
    if unary_ok:
        for a in range(J):
            if r.unary[a][a] != 0.0:
                flag(f"rates.unary[{a + 1}][{a + 1}]", "diagonal entries must be 0")
    if not _finite(r.heat_rate) or r.heat_rate < 0.0:
        flag("rates.heat_rate", f"must be finite and >= 0, got {r.heat_rate!r}")
    if not _finite(r.bath_beta) or r.bath_beta <= 0.0:
        flag("rates.bath_beta", f"must be positive and finite, got {r.bath_beta!r}")
    if r.binary_kernel.kind not in ("identity", "table"):
        flag("rates.binary_kernel.kind", f"unknown kind {r.binary_kernel.kind!r}")
    elif r.binary_kernel.kind == "table":
        for (a, b), outs in r.binary_kernel.table:
            tag = f"rates.binary_kernel[{a},{b}]"
            if not all(_integer(j) and 1 <= j <= J for j in (a, b)):
                flag(tag, f"type ids must be integers in 1..{J}")
                continue
            total = 0.0
            for (j1, j1p), p in outs:
                if not all(_integer(j) and 1 <= j <= J for j in (j1, j1p)):
                    flag(tag, f"outcome ({j1!r},{j1p!r}) needs integer type ids in 1..{J}")
                if not _finite(p) or p < 0.0:
                    flag(tag, f"probability must be finite and >= 0, got {p!r}")
                # a NaN total skips the sum check of an entry flagged above
                total += p if _finite(p) else math.nan
            if abs(total - 1.0) > 1e-9:
                flag(tag, f"outcome probabilities sum to {total!r}, expected 1")

    if not _integer(spec.n_particles) or spec.n_particles < 1:
        flag("ensemble.n_particles", f"must be an integer >= 1, got {spec.n_particles!r}")
    elif all(_finite(sp.chem_energy) for sp in spec.species) and J:
        # neither a pair's chemical energy K[a] + K[b] nor the ensemble's total
        # may overflow: an inf - inf shift would make energies NaN.  The
        # kernel counts particles in int64, so the product needs no more.
        k_max = max(sp.chem_energy for sp in spec.species)
        if not math.isfinite(min(max(spec.n_particles, 2), 2 ** 63) * k_max):
            flag("species", f"chemical energies up to {k_max!r} overflow the total of "
                            f"{spec.n_particles} particles")
    if not _finite(spec.box_side) or spec.box_side <= 0.0:
        flag("ensemble.box_side", f"must be positive and finite, got {spec.box_side!r}")
    if not _finite(spec.scale_fast) or spec.scale_fast < 1.0:
        flag("ensemble.scale_fast", f"must be finite and >= 1, got {spec.scale_fast!r}")
    if not _finite(spec.scale_heat) or spec.scale_heat < 0.0:
        flag("ensemble.scale_heat", f"must be finite and >= 0, got {spec.scale_heat!r}")
    if not _integer(spec.rng_seed) or not (0 <= spec.rng_seed < 2 ** 64):
        flag("ensemble.rng_seed", f"must be a 64-bit unsigned integer, got {spec.rng_seed!r}")
    if not bad:
        # the engines run on the effective rates, scale * rate, and the
        # particle engine proposes at the sum of the channels' thinning
        # bounds: an inf there makes a run that never ends, or a step of 0.
        # The kernel counts particles in int64, as for the energies above
        n = min(spec.n_particles, 2 ** 63)
        *_, fmax, rates = channel_bounds(spec, n)
        fields = ("rates.unary", "rates.slow_binary", "rates.fast_binary", "rates.heat_rate")
        products = (0.0, 0.0, spec.scale_fast * fmax, spec.scale_heat * r.heat_rate)
        notes = ("", "", " times scale_fast", " times scale_heat")
        for name, x, bound, note in zip(fields, products, rates, notes):
            if not math.isfinite(x):
                flag(name, f"its largest rate{note} is {x!r}")
            elif not math.isfinite(bound):
                flag(name, f"its proposal bound at n_particles = {n}{note} is {bound!r}")
        total = rates[0] + rates[1] + rates[2] + rates[3]
        if not bad and not math.isfinite(total):
            flag("rates", f"the channels' proposal bounds at n_particles = {n} sum to {total!r}")

    if len(dist.type_weights) != J:
        flag("ensemble.initial_distribution.type_weights", f"need {J} weights")
    else:
        if not all(_finite(w) and w >= 0.0 for w in dist.type_weights):
            flag("ensemble.initial_distribution.type_weights", "weights must be finite and >= 0")
        total = math.fsum(dist.type_weights)
        if abs(total - 1.0) > 1e-9:
            flag("ensemble.initial_distribution.type_weights",
                 f"weights sum to {total!r}, expected 1")
    if len(dist.energy_laws) != J:
        flag("ensemble.initial_distribution.energy_laws", f"need {J} laws")
    for pos, law in enumerate(dist.energy_laws, start=1):
        tag = f"ensemble.initial_distribution.energy_laws[{pos}]"
        if law.law not in _LAW_PARAMS:
            flag(tag, f"unknown law {law.law!r}")
        elif not all(_finite(getattr(law, k)) for k in _LAW_PARAMS[law.law]):
            flag(tag, f"parameters must be finite numbers, got {law.to_dict()!r}")
        elif law.law == "uniform" and not (0.0 <= law.low <= law.high):
            flag(tag, f"need 0 <= low <= high, got ({law.low!r}, {law.high!r})")
        elif law.law == "gamma" and law.beta <= 0.0:
            flag(tag, f"gamma law needs beta > 0, got {law.beta!r}")
        elif law.law == "point" and law.value < 0.0:
            flag(tag, f"point law needs value >= 0, got {law.value!r}")

    return ValidationReport(bad)


# -- config file round trip ---------------------------------------------------

def spec_to_dict(spec: EnsembleSpec) -> dict:
    """Plain nested-dict form of a spec, suitable for YAML serialization."""
    return {
        "ensemble": {
            "n_particles": spec.n_particles,
            "box_side": spec.box_side,
            "scale_fast": spec.scale_fast,
            "scale_heat": spec.scale_heat,
            "rng_seed": spec.rng_seed,
            "initial_distribution": {
                "type_weights": list(spec.initial_distribution.type_weights),
                "energy_laws": [law.to_dict() for law in spec.initial_distribution.energy_laws],
            },
        },
        "species": [
            {
                "type_id": sp.type_id,
                "mass": sp.mass,
                "dof": sp.dof,
                "chem_energy": sp.chem_energy,
                **({"internal_masses": list(sp.internal_masses)} if sp.internal_masses else {}),
            }
            for sp in spec.species
        ],
        "rates": {
            "unary": [list(row) for row in spec.rates.unary],
            "slow_binary": [list(row) for row in spec.rates.slow_binary],
            "fast_binary": [list(row) for row in spec.rates.fast_binary],
            "heat_rate": spec.rates.heat_rate,
            "bath_beta": spec.rates.bath_beta,
            "binary_kernel": spec.rates.binary_kernel.to_dict(),
        },
    }


def _require(d: dict, key: str, section: str):
    if key not in d:
        raise ConfigError(f"missing field {key!r} in section {section!r}")
    return d[key]


def _real(x, where: str) -> float:
    """``x`` as a float; a bool, which Python counts as a number, is refused."""
    if isinstance(x, bool):
        raise ConfigError(f"{where}: must be a number, got {x!r}")
    return float(x)


def _reals(values, where: str) -> tuple:
    """Every entry of ``values`` through ``_real``; a row of a matrix is ``where[k]``."""
    return tuple(_real(x, f"{where}[{k}]") if not isinstance(x, (list, tuple))
                 else _reals(x, f"{where}[{k}]")
                 for k, x in enumerate(values, start=1))


# accepted fields per section: what spec_to_dict writes plus the optional ones
_ROOT_KEYS = ("ensemble", "species", "rates")
_ENSEMBLE_KEYS = ("n_particles", "box_side", "scale_fast", "scale_heat",
                  "rng_seed", "initial_distribution")
_DISTRIBUTION_KEYS = ("type_weights", "energy_laws")
_SPECIES_KEYS = ("type_id", "mass", "dof", "chem_energy", "internal_masses")
_RATES_KEYS = ("unary", "slow_binary", "fast_binary", "heat_rate", "bath_beta",
               "binary_kernel")


def _unknown_fields(d: dict, known, section: str) -> list:
    if not isinstance(d, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    return [f"{key!r} in section {section!r}" for key in d if key not in known]


def spec_from_dict(data: dict) -> EnsembleSpec:
    """Build a spec from a nested dict, naming any missing or unknown field."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    ens = _require(data, "ensemble", "<root>")
    species_raw = _require(data, "species", "<root>")
    rates_raw = _require(data, "rates", "<root>")
    unknown = (_unknown_fields(data, _ROOT_KEYS, "<root>")
               + _unknown_fields(ens, _ENSEMBLE_KEYS, "ensemble")
               + _unknown_fields(ens.get("initial_distribution", {}),
                                 _DISTRIBUTION_KEYS, "initial_distribution"))
    for i, sd in enumerate(species_raw, start=1):
        unknown += _unknown_fields(sd, _SPECIES_KEYS, f"species[{i}]")
    unknown += _unknown_fields(rates_raw, _RATES_KEYS, "rates")
    unknown += _unknown_fields(rates_raw.get("binary_kernel", {}),
                               ("kind", "entries"), "binary_kernel")
    if unknown:
        raise ConfigError("unknown field(s): " + ", ".join(unknown))

    species = []
    for i, sd in enumerate(species_raw, start=1):
        tag = f"species[{i}]"
        species.append(SpeciesSpec(
            type_id=_require(sd, "type_id", tag),
            mass=_real(_require(sd, "mass", tag), f"{tag}.mass"),
            dof=sd.get("dof", 3),
            chem_energy=_real(sd.get("chem_energy", 0.0), f"{tag}.chem_energy"),
            internal_masses=_reals(sd.get("internal_masses", ()), f"{tag}.internal_masses"),
        ))

    rates = RateTable(
        **{name: _reals(_require(rates_raw, name, "rates"), f"rates.{name}")
           for name in ("unary", "slow_binary", "fast_binary")},
        heat_rate=_real(_require(rates_raw, "heat_rate", "rates"), "rates.heat_rate"),
        bath_beta=_real(_require(rates_raw, "bath_beta", "rates"), "rates.bath_beta"),
        binary_kernel=TypeKernel.from_dict(rates_raw.get("binary_kernel", {"kind": "identity"})),
    )

    dist_raw = _require(ens, "initial_distribution", "ensemble")
    dist = InitialDistribution(
        type_weights=_reals(_require(dist_raw, "type_weights", "initial_distribution"),
                            "ensemble.initial_distribution.type_weights"),
        energy_laws=tuple(EnergyLaw.from_dict(d, f"energy_laws[{i}]")
                          for i, d in enumerate(_require(dist_raw, "energy_laws",
                                                         "initial_distribution"),
                                                start=1)),
    )

    return EnsembleSpec(
        n_particles=_require(ens, "n_particles", "ensemble"),
        box_side=_real(_require(ens, "box_side", "ensemble"), "ensemble.box_side"),
        species=tuple(species),
        rates=rates,
        initial_distribution=dist,
        scale_fast=_real(ens.get("scale_fast", 1.0), "ensemble.scale_fast"),
        scale_heat=_real(ens.get("scale_heat", 0.0), "ensemble.scale_heat"),
        rng_seed=ens.get("rng_seed", 0),
    )


def load_config(path) -> EnsembleSpec:
    """Load a YAML config; any failure raises ConfigError naming the path and,
    for an invalid spec, every violation."""
    import yaml

    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    try:
        return spec_from_dict(data)
    except (TypeError, ValueError) as exc:      # a ConfigError included
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def save_config(spec: EnsembleSpec, path) -> None:
    """Write the spec as YAML; load_config(save_config(s)) == s for valid specs."""
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(spec_to_dict(spec), fh, sort_keys=False)
