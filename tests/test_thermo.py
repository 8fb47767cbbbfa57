import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from kinchem import meanfield as MF
from kinchem import thermo as TH
from kinchem.model import SpeciesSpec
from kinchem.scenarios import matched_two_species
from conftest import make_two_state

TWO = (SpeciesSpec(1, 1.0, 3, 0.0), SpeciesSpec(2, 1.0, 3, 1.0))


def random_species(rng, j):
    dof = int(rng.integers(3, 6))
    return SpeciesSpec(j, float(rng.uniform(0.5, 10.0)), dof,
                       float(rng.uniform(0.0, 3.0)),
                       tuple(rng.uniform(0.5, 5.0) for _ in range(dof - 3)))


# -- activity prefactors ----------------------------------------------------------


def test_lambda_unit_normalization():
    sp = (SpeciesSpec(1, 2.0 * math.pi, 3, 0.0),)
    B, lam = TH.lambda_B(sp, beta=1.0)
    assert abs(B[0] - 1.0) < 1e-15
    assert abs(lam[0] - 1.0) < 1e-15


def test_lambda_equals_B_at_unit_beta():
    rng = np.random.default_rng(1)
    sp = tuple(random_species(rng, j + 1) for j in range(3))
    B, lam = TH.lambda_B(sp, beta=1.0)
    assert np.allclose(B, lam, rtol=0, atol=0)


def test_lambda_beta_power_law():
    rng = np.random.default_rng(2)
    sp = tuple(random_species(rng, j + 1) for j in range(3))
    _, lam1 = TH.lambda_B(sp, beta=1.3)
    _, lam2 = TH.lambda_B(sp, beta=2.6)
    for s, a, b in zip(sp, lam1, lam2):
        assert abs(b / a - 2.0 ** (-0.5 * s.dof)) < 1e-12


# -- chemical potential -----------------------------------------------------------


def test_unit_concentration_gives_standard_potential_plus_K():
    pt = TH.ThermoPoint(1.7, (1.0, 1.0), TWO)
    mu = TH.chemical_potential(pt)
    mu0 = TH.standard_potential(pt)
    K = np.array([s.chem_energy for s in TWO])
    assert np.allclose(mu, mu0 + K, atol=1e-14)


def test_potential_concentration_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        sp = tuple(random_species(rng, j + 1) for j in range(2))
        beta = float(rng.uniform(0.2, 4.0))
        c = tuple(rng.uniform(1e-3, 8.0, size=2))
        pt = TH.ThermoPoint(beta, c, sp)
        back = TH.concentration_from_potential(sp, beta, TH.chemical_potential(pt))
        assert np.max(np.abs(back - np.array(c)) / np.array(c)) < 1e-12


def test_chem_energy_shift_moves_potential_affinely():
    delta = 0.37
    shifted = (SpeciesSpec(1, 1.0, 3, 0.0 + delta), SpeciesSpec(2, 1.0, 3, 1.0))
    mu_a = TH.chemical_potential(TH.ThermoPoint(1.0, (0.4, 0.6), TWO))
    mu_b = TH.chemical_potential(TH.ThermoPoint(1.0, (0.4, 0.6), shifted))
    assert abs((mu_b[0] - mu_a[0]) - delta) < 1e-14
    assert mu_b[1] == mu_a[1]


def test_zero_concentration_flagged():
    with pytest.raises(ValueError, match="zero concentration"):
        TH.chemical_potential(TH.ThermoPoint(1.0, (0.0, 1.0), TWO))


@pytest.mark.parametrize("c", [math.nan, math.inf, -0.1])
def test_thermo_point_refuses_non_finite_or_negative_concentrations(c):
    # a NaN concentration used to pass and drop out of S, G and g unseen
    with pytest.raises(ValueError, match="finite and >= 0"):
        TH.ThermoPoint(1.0, (c, 0.5), TWO)


# -- potentials --------------------------------------------------------------------


@pytest.mark.parametrize("volume", [math.nan, math.inf, 0.0, -1.0])
def test_potentials_refuse_a_volume_that_is_not_positive_and_finite(volume):
    # a NaN volume used to give NaN potentials, an infinite one H = inf
    with pytest.raises(ValueError, match="volume must be positive and finite"):
        TH.potentials(TH.ThermoPoint(1.0, (0.3, 0.7), TWO), volume)


def test_enthalpy_simple_case():
    sp = (SpeciesSpec(1, 1.0, 3, 0.0),)
    pots = TH.potentials(TH.ThermoPoint(1.0, (1.0,), sp), volume=1.0)
    assert abs(pots["H"] - 2.5) < 1e-15


def test_pressure_equation_of_state():
    pots = TH.potentials(TH.ThermoPoint(1.0, (1.0, 2.0), TWO), volume=1.0)
    assert abs(pots["P"] - 3.0) < 1e-15


def test_thermodynamic_identities_over_random_points():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        sp = tuple(random_species(rng, j + 1) for j in range(2))
        beta = float(rng.uniform(0.2, 4.0))
        c = tuple(rng.uniform(1e-2, 6.0, size=2))
        vol = float(rng.uniform(0.5, 20.0))
        p = TH.potentials(TH.ThermoPoint(beta, c, sp), vol)
        scale = max(1.0, abs(p["G"]), abs(p["H"]), abs(p["U"]))
        assert abs(p["G"] - (p["H"] - p["S"] / beta)) < 1e-12 * scale
        assert abs(p["F"] - (p["U"] - p["S"] / beta)) < 1e-12 * scale
        assert abs(p["H"] - (p["U"] + p["P"] * vol)) < 1e-12 * scale
        assert abs(p["G"] - (p["F"] + p["P"] * vol)) < 1e-12 * scale
        assert abs(p["Omega"] + p["P"] * vol) < 1e-12 * scale
        assert abs(p["g"] - p["G"] / vol) < 1e-12 * scale


def test_zero_concentration_species_contributes_nothing():
    sp1 = (TWO[0],)
    full = TH.potentials(TH.ThermoPoint(1.0, (0.7, 0.0), TWO), 2.0)
    only = TH.potentials(TH.ThermoPoint(1.0, (0.7,), sp1), 2.0)
    for key in ("U", "H", "S", "G", "F", "g", "P"):
        assert abs(full[key] - only[key]) < 1e-12


def _closed_form_potentials(beta, c, species, vol):
    """Each potential of ``potentials`` written out species by species, with
    the sum of its terms' magnitudes as the scale of its rounding."""
    sums = {key: [] for key in ("P", "U", "H", "S", "G", "g")}
    mu, mu_scale = [], []
    for sp, cj in zip(species, c):
        lam = beta ** (-sp.dof / 2.0) * (2.0 * math.pi / sp.mass) ** 1.5 * math.prod(
            math.sqrt(2.0 * math.pi / mk) for mk in sp.internal_masses)
        n, K, d = cj * vol, sp.chem_energy, sp.dof
        sums["P"].append(cj / beta)
        sums["U"].append(n * (d / (2.0 * beta) + K))
        sums["H"].append(n * (d / 2.0 + 1.0 + beta * K) / beta)
        if cj == 0.0:
            mu.append(-math.inf)
            mu_scale.append(0.0)
            continue
        parts = (-math.log(lam) / beta, math.log(cj) / beta, K)
        mu.append(math.fsum(parts))
        mu_scale.append(math.fsum(map(abs, parts)))
        sums["S"].append(n * (d / 2.0 + 1.0 + beta * K - beta * mu[-1]))
        sums["G"].append(mu[-1] * n)
        sums["g"].append(mu[-1] * cj)
    want = {key: math.fsum(terms) for key, terms in sums.items()}
    scale = {key: math.fsum(map(abs, terms)) for key, terms in sums.items()}
    live = [(cj * vol, cj, s) for cj, s in zip(c, mu_scale) if cj > 0.0]
    # the error of each mu_j carries into S, G and g with its weight
    scale["S"] += beta * math.fsum(n * s for n, _, s in live)
    scale["G"] += math.fsum(n * s for n, _, s in live)
    scale["g"] += math.fsum(cj * s for _, cj, s in live)
    want["F"], scale["F"] = want["U"] - want["S"] / beta, scale["U"] + scale["S"] / beta
    want["Omega"], scale["Omega"] = -want["P"] * vol, scale["P"] * vol
    return want, scale, mu, mu_scale


@pytest.mark.parametrize("J", (1, 2, 3, 4))
def test_potentials_match_the_closed_form_sums(J):
    rng = np.random.default_rng(40 + J)
    for _ in range(300):
        sp = tuple(random_species(rng, j + 1) for j in range(J))
        beta = float(rng.uniform(0.2, 4.0))
        c = tuple(0.0 if rng.random() < 0.25 else float(rng.uniform(1e-3, 6.0))
                  for _ in range(J))
        vol = float(rng.uniform(0.5, 20.0))
        got = TH.potentials(TH.ThermoPoint(beta, c, sp), vol)
        want, scale, mu, mu_scale = _closed_form_potentials(beta, c, sp, vol)
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-14 * scale[key], key
        assert isinstance(got["mu"], np.ndarray) and isinstance(got["n"], np.ndarray)
        assert got["mu"].shape == got["n"].shape == (J,)
        assert got["n"].tolist() == [cj * vol for cj in c]
        for m_got, m_want, s in zip(got["mu"], mu, mu_scale):
            assert m_got == m_want if s == 0.0 else abs(m_got - m_want) <= 1e-14 * s


# -- two-state reaction quantities ----------------------------------------------------


def test_kappa_is_one_when_reaction_free_energy_vanishes():
    sp = (SpeciesSpec(1, 1.0, 3, 0.5), SpeciesSpec(2, 1.0, 3, 0.5))
    aff = TH.affinity_and_kappa(TH.ThermoPoint(1.0, (0.5, 0.5), sp))
    assert abs(aff["delta_G0"]) < 1e-14
    assert abs(aff["kappa"] - 1.0) < 1e-14


def test_affinity_vanishes_at_equilibrium_ratio():
    pt = TH.ThermoPoint(1.3, (0.4, 0.6), TWO)
    kappa = TH.affinity_and_kappa(pt)["kappa"]
    c2 = 1.0 / (1.0 + kappa)
    eq = TH.ThermoPoint(1.3, (kappa * c2, c2), TWO)
    assert abs(TH.affinity_and_kappa(eq)["A"]) < 1e-12


def test_affinity_inversion_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(300):
        sp = tuple(random_species(rng, j + 1) for j in range(2))
        beta = float(rng.uniform(0.3, 3.0))
        c = tuple(rng.uniform(0.05, 4.0, size=2))
        pt = TH.ThermoPoint(beta, c, sp)
        aff = TH.affinity_and_kappa(pt)
        assert abs(aff["c1_of_A"](aff["A"]) - c[0]) < 1e-12 * max(1.0, c[0])


def test_affinity_requires_two_live_species():
    with pytest.raises(ValueError):
        TH.affinity_and_kappa(TH.ThermoPoint(1.0, (1.0,), (TWO[0],)))
    with pytest.raises(ValueError):
        TH.affinity_and_kappa(TH.ThermoPoint(1.0, (0.0, 1.0), TWO))


# -- relative entropy and the free-energy identity -------------------------------------


def test_markov_entropy_zero_iff_stationary():
    pi = np.array([0.3, 0.7])
    assert TH.markov_entropy(pi, pi) == 0.0
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = rng.dirichlet((1.0, 1.0))
        s = TH.markov_entropy(p, pi)
        assert s >= 0.0
        if np.max(np.abs(p - pi)) > 1e-3:
            assert s > 0.0


def test_markov_entropy_rejects_support_mismatch():
    with pytest.raises(ValueError):
        TH.markov_entropy([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError):
        TH.markov_entropy([0.5, 0.5], [0.3, 0.3, 0.4])


def test_markov_entropy_takes_lists_and_arrays_alike():
    rng = np.random.default_rng(12)
    for J in (1, 2, 3, 4):
        for _ in range(50):
            pi = rng.dirichlet(np.ones(J))
            p = rng.dirichlet(np.ones(J)) * (rng.random(J) < 0.7)
            s = TH.markov_entropy(p, pi)
            assert isinstance(s, float)
            assert TH.markov_entropy(p.tolist(), pi.tolist()) == s
            assert TH.markov_entropy(tuple(p), pi) == s
            # numpy's log and the order of the sum differ by an ulp per term
            live = p > 0.0
            terms = p[live] * np.log(p[live] / pi[live])
            tol = 4.0 * J * np.finfo(float).eps * (1.0 + math.fsum(np.abs(terms)))
            assert abs(s - math.fsum(terms)) <= tol
    for p, pi in (([0.5, 0.5], [0.2, 0.3, 0.5]), (np.ones(3) / 3, np.ones(2) / 2)):
        with pytest.raises(ValueError, match="equal length"):
            TH.markov_entropy(p, pi)
    for p, pi in (([0.5, 0.5], [1.0, 0.0]), (np.array([0.2, 0.8]), np.array([0.0, 1.0]))):
        with pytest.raises(ValueError, match="support"):
            TH.markov_entropy(p, pi)
    assert TH.markov_entropy([0.0, 1.0], [0.0, 1.0]) == 0.0


def test_gibbs_identity_and_monotonicity_along_reduced_ode():
    beta = 1.0
    species, rho = matched_two_species(beta)
    spec = make_two_state(k2=1.0).with_overrides(species=species)
    traj = MF.reduced_macro_ode(MF.MacroState(beta, (0.15, 0.85)), spec, 8.0,
                                sample_every=8.0 / 300)
    c_eq = traj.equilibrium()
    chk = TH.gibbs_identity_check(traj.times, traj.concentrations, species,
                                  beta, c_eq)
    assert chk["max_residual"] < 1e-10
    assert chk["g_monotone_defect"] <= 1e-14
    assert chk["S_M_monotone_defect"] <= 1e-14
    assert chk["mu_equilibrium_spread"] < 1e-12



def _float_bits(value):
    """``value`` with every float as its hex and every array as its bytes;
    callables dropped."""
    if isinstance(value, dict):
        return {k: _float_bits(v) for k, v in value.items() if not callable(v)}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [_float_bits(v) for v in value]
    return type(value).__name__, float(value).hex()


def test_standard_potentials_once_per_species_and_beta_keep_their_floats(monkeypatch):
    # the standard potentials are computed once per (species, beta) and
    # kept; every function that reads them returns the floats of the
    # per-point computation they replace, from a cold cache and a warm one
    def per_point(species, beta):
        return [-math.log(lam) / beta for lam in TH._prefactors(species, beta)[1]]

    rng = np.random.default_rng(7)
    species, _ = matched_two_species(1.0)
    sets = [TWO, species, tuple(random_species(rng, j) for j in (1, 2))]
    times = np.linspace(0.0, 1.0, 6)
    conc = [(0.15 + 0.1 * k, 0.85 - 0.1 * k) for k in range(6)]

    def outputs():
        out = []
        for sp in sets:
            for beta in (0.7, 1.0, np.float64(1.3)):
                for c in ((0.4, 0.6), (0.25, 0.0), (1e-300, 2.0)):
                    out.append(TH.potentials(TH.ThermoPoint(beta, c, sp), 1.7))
                    out.append(TH.standard_potential(TH.ThermoPoint(beta, c, sp)))
                aff = TH.affinity_and_kappa(TH.ThermoPoint(beta, (0.4, 0.6), sp))
                out += [aff, aff["c1_of_A"](0.3)]
                out.append(TH.gibbs_identity_check(times, conc, sp, beta, (0.5, 0.5)))
        return _float_bits(out)

    TH._standard_potentials.cache_clear()
    cold, warm = outputs(), outputs()
    assert TH._standard_potentials.cache_info().misses == 9
    monkeypatch.setattr(TH, "_standard_potentials", per_point)
    assert cold == warm == outputs()


# -- enthalpy as a state function --------------------------------------------------------


def test_hess_zero_for_equal_endpoints():
    a = TH.ThermoPoint(1.0, (0.4, 0.6), TWO)
    assert TH.hess_delta_H(a, a, 3.0) == 0.0


def test_hess_rejects_mismatched_beta():
    a = TH.ThermoPoint(1.0, (0.4, 0.6), TWO)
    b = TH.ThermoPoint(2.0, (0.4, 0.6), TWO)
    with pytest.raises(ValueError):
        TH.hess_delta_H(a, b, 1.0)


def test_hess_sign_classifies_reaction_direction():
    a = TH.ThermoPoint(1.0, (0.0, 1.0), TWO)      # all high chemical energy
    b = TH.ThermoPoint(1.0, (1.0, 0.0), TWO)
    assert TH.hess_delta_H(a, b, 1.0) < 0.0       # releases chemical energy
    assert TH.hess_delta_H(b, a, 1.0) > 0.0


# -- variational principle -----------------------------------------------------------------


def _gibbs_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    z = np.exp(-beta * (energies - energies.min()))
    return z / z.sum()


def variational_check(energies, beta=None, mean_energy=None, tol: float = 1e-8) -> dict:
    """Maximize -sum p ln p under fixed mean energy and normalization, and
    compare the numerical maximizer with the closed-form exponential weights.

    Exactly one of ``beta`` (taking U from the exponential family) or
    ``mean_energy`` (solving for the matching beta first) must be given.
    A target energy outside [min e_k, max e_k] is infeasible.
    """
    e = np.asarray(energies, dtype=float)
    if e.size < 2:
        raise ValueError("need at least two levels")
    if (beta is None) == (mean_energy is None):
        raise ValueError("give exactly one of beta or mean_energy")

    if mean_energy is not None:
        if not (e.min() <= mean_energy <= e.max()):
            raise ValueError(f"mean energy {mean_energy!r} outside "
                             f"[{e.min()!r}, {e.max()!r}]")
        uniform_u = e.mean()
        if math.isclose(mean_energy, uniform_u, rel_tol=0.0, abs_tol=1e-15):
            beta = 0.0
        else:
            def umean(b):
                return float(_gibbs_weights(e, b) @ e) - mean_energy
            lo, hi = -1.0, 1.0
            while umean(lo) < 0.0:
                lo *= 2.0
                if lo < -1e8:
                    raise ValueError("mean energy too close to the boundary")
            while umean(hi) > 0.0:
                hi *= 2.0
                if hi > 1e8:
                    raise ValueError("mean energy too close to the boundary")
            beta = float(optimize.brentq(umean, lo, hi, xtol=1e-14))
    gibbs = _gibbs_weights(e, beta)
    target_u = float(gibbs @ e)

    def neg_entropy(p):
        p = np.clip(p, 1e-300, None)
        return float(np.sum(p * np.log(p)))

    def grad(p):
        return np.log(np.clip(p, 1e-300, None)) + 1.0

    x0 = np.full(e.size, 1.0 / e.size)
    # feasible start: blend toward the extreme level if needed
    if abs(float(x0 @ e) - target_u) > 1e-12:
        corner = np.zeros(e.size)
        corner[int(np.argmax(e)) if target_u > x0 @ e else int(np.argmin(e))] = 1.0
        lam = (target_u - float(x0 @ e)) / (float(corner @ e) - float(x0 @ e))
        x0 = (1.0 - lam) * x0 + lam * corner
        x0 = np.clip(x0, 1e-9, None)
        x0 /= x0.sum()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Values in x were outside bounds")
        res = optimize.minimize(
            neg_entropy, x0, jac=grad, method="SLSQP",
            bounds=[(1e-12, 1.0)] * e.size,
            constraints=[
                {"type": "eq", "fun": lambda p: p.sum() - 1.0, "jac": lambda p: np.ones(e.size)},
                {"type": "eq", "fun": lambda p: p @ e - target_u, "jac": lambda p: e},
            ],
            options={"maxiter": 500, "ftol": 1e-16})
    maximizer = res.x / res.x.sum()
    diff = float(np.max(np.abs(maximizer - gibbs)))
    return {
        "passed": bool(res.success) and diff <= tol,
        "max_abs_diff": diff,
        "maximizer": maximizer,
        "gibbs": gibbs,
        "beta": float(beta),
        "mean_energy": target_u,
        "entropy": -neg_entropy(gibbs),
    }


def test_variational_two_levels_midpoint_is_uniform():
    res = variational_check((0.0, 1.0), mean_energy=0.5)
    assert res["passed"]
    assert np.allclose(res["maximizer"], [0.5, 0.5], atol=1e-8)


def _dual_bisection_oracle(energies, target_u):
    # independent constrained-maximizer: solve the one-dimensional dual
    e = np.asarray(energies, dtype=float)

    def weights(b):
        z = np.exp(-b * (e - e.min()))
        return z / z.sum()

    lo, hi = -200.0, 200.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if weights(mid) @ e > target_u:
            lo = mid
        else:
            hi = mid
    return weights(0.5 * (lo + hi))


def test_variational_matches_gibbs_and_dual_oracle():
    energies = (0.0, 1.0, 2.0)
    res = variational_check(energies, beta=1.0)
    assert res["passed"] and res["max_abs_diff"] < 1e-8
    oracle = _dual_bisection_oracle(energies, res["mean_energy"])
    assert np.max(np.abs(res["maximizer"] - oracle)) < 1e-8


def test_variational_maximizer_beats_random_feasible_points():
    energies = np.array([0.0, 0.7, 1.1, 2.5])
    res = variational_check(energies, beta=0.8)
    gibbs_entropy = res["entropy"]
    target_u = res["mean_energy"]
    rng = np.random.default_rng(13)
    found = 0
    for _ in range(500):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        up, uq = p @ energies, q @ energies
        if (up - target_u) * (uq - target_u) >= 0:
            continue
        lam = (target_u - uq) / (up - uq)   # blend hits the energy constraint
        r = lam * p + (1.0 - lam) * q
        found += 1
        ent = -np.sum(r * np.log(np.clip(r, 1e-300, None)))
        assert ent <= gibbs_entropy + 1e-9
    assert found > 50


def test_variational_rejects_infeasible_target():
    with pytest.raises(ValueError, match="outside"):
        variational_check((0.0, 1.0), mean_energy=1.5)
    with pytest.raises(ValueError):
        variational_check((0.0, 1.0))
    with pytest.raises(ValueError):
        variational_check((0.0, 1.0), beta=1.0, mean_energy=0.5)
