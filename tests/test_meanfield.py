import json
import math
import re
import signal
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as sintegrate
from scipy.special import betainc, gammainc, gammaincc

from kinchem import meanfield as MF
from kinchem.model import (EnergyLaw, InitialDistribution, RateTable, SpeciesSpec, TypeKernel,
                           load_config, sample_times)
from kinchem.scenarios import two_state_spec
from conftest import make_two_state, traced


# -- survival function --------------------------------------------------------------


def test_survival_trivial_values():
    assert MF.survival_gbeta(0.0, 1.0) == 1.0
    rs = np.linspace(0.0, 20.0, 50)
    vals = [MF.survival_gbeta(r, 0.7) for r in rs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_survival_matches_quadrature_oracle():
    # integral of the normalized density c sqrt(x) exp(-beta x) over (r, inf)
    for beta, r in [(1.0, 1.0), (0.5, 2.3), (3.0, 0.2)]:
        c = 2.0 * beta ** 1.5 / math.sqrt(math.pi)
        val, err = sintegrate.quad(
            lambda x: c * math.sqrt(x) * math.exp(-beta * x), r, np.inf)
        assert abs(MF.survival_gbeta(r, beta) - val) < 1e-10


def test_survival_rejects_bad_arguments():
    with pytest.raises(ValueError):
        MF.survival_gbeta(-0.1, 1.0)
    with pytest.raises(ValueError):
        MF.survival_gbeta(1.0, 0.0)


# (x, Q(3/2, x), P(3/2, x), P(5/2, x)), each the double nearest to a
# 40-digit mpmath value of the regularized incomplete gamma function
GAMMA32_REFERENCE = (
    (1e-10, 0.9999999999999992, 7.522527780185399e-16, 3.009011112039771e-26),
    (1e-6, 0.9999999992477476, 7.522523267121693e-10, 3.009008962961884e-16),
    (0.001, 0.999976225946348, 2.3774053651950565e-05, 9.50853459860795e-09),
    (0.1, 0.9775892977616494, 0.0224107022383506, 0.0008861387888124426),
    (0.5, 0.8012519569012008, 0.1987480430987992, 0.03743422675270363),
    (1.0, 0.5724067044708798, 0.4275932955291202, 0.15085496391539036),
    (2.75, 0.1386386173824151, 0.8613613826175849, 0.6420541191490415),
    (3.0, 0.11161022509471256, 0.8883897749052875, 0.6937810815867216),
    (3.25, 0.08966250398816791, 0.9103374960118321, 0.739441544089254),
    (10.0, 0.00016974243555282643, 0.9998302575644472, 0.9987502694369687),
    (50.0, 1.554159431389605e-21, 1.0, 1.0),
    (300.0, 1.0078435921645642e-129, 1.0, 1.0),
    (700.0, 2.945619361016309e-303, 1.0, 1.0),
)


def test_gamma32_closed_form_matches_high_precision_values():
    x, *want = np.array(GAMMA32_REFERENCE).T
    for got, ref in zip(MF._gamma32_sf_cdf_and_moment(x), want):
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)
    for xi, *ref in GAMMA32_REFERENCE:      # scalar input, as survival_gbeta uses
        np.testing.assert_allclose(MF._gamma32_sf_cdf_and_moment(xi), ref,
                                   rtol=1e-15, atol=0.0)


def test_gamma32_closed_form_matches_scipy():
    x = np.geomspace(1e-10, 700.0, 2000)
    q, p, g = MF._gamma32_sf_cdf_and_moment(x)
    np.testing.assert_allclose(q, gammaincc(1.5, x), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(p, gammainc(1.5, x), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(g, gammainc(2.5, x), rtol=1e-13, atol=0.0)
    # the benchmark's specs take the tail at x = 1.0
    assert MF.survival_gbeta(1.0, 1.0) == gammaincc(1.5, 1.0)


def _gammainc_bath_hat_projection(grid, beta):
    """The bath projection as computed before the closed form, from scipy."""
    def law(edges):
        x = beta * np.clip(edges, 0.0, None)
        upper = gammaincc(1.5, x) < 0.5
        return (upper, np.where(upper, -gammaincc(1.5, x), gammainc(1.5, x)),
                np.where(upper, -gammaincc(2.5, x), gammainc(2.5, x)))

    b = MF._hat_weights(law, 1.5 / beta, grid)
    return b / b.sum()


@pytest.mark.parametrize("m", (64, 256))
@pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
def test_bath_hat_projection_matches_gammainc_version(m, beta):
    grid = MF.energy_grid(beta, (0.0, 1.0), m=m)
    h = grid[1] - grid[0]
    # Each wing of a hat weight takes the difference of two values of F and
    # of G (scaled by 1.5 / beta), multiplies F's by up to T_M + h and
    # divides by h.  With F and G off by at most 2 eps in either evaluation,
    # two evaluations differ by at most this much at any node.
    eps = np.finfo(float).eps
    tol = 8.0 * eps * (2.0 * 1.5 / beta + 2.0 * grid[-1] + h) / h
    diff = MF._gamma32_hat_weights(grid, beta) - _gammainc_bath_hat_projection(grid, beta)
    assert np.max(np.abs(diff)) <= tol


# Hat weights evaluated at 50 digits on the same float grids, each row
# normalized; `PYTHONPATH=src python tests/hat_weights_reference.py` wrote
# them with mpmath 1.3.
HAT_REFERENCE = json.loads(Path(__file__).with_name("hat_weights_reference.json").read_text())


@pytest.mark.parametrize("m", (256, 512))
def test_bath_hat_projection_keeps_the_tail_digits(m):
    # the tail weights come from differences of Q, not of F near 1
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=m, t_max=31.0)
    np.testing.assert_allclose(MF._gamma32_hat_weights(grid, 1.0),
                               HAT_REFERENCE["bath"][str(m)], rtol=1e-11, atol=0.0)


def test_split_deposition_keeps_the_tail_digits():
    # Each interval's mass and moment are differences of tail values off by
    # a few ulp and at most S/h times the interval's mass; each wing
    # multiplies them by T_l/h.  Weights the split cannot reach stay 0.
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=256, t_max=31.0)
    h = grid[1] - grid[0]
    totals = np.array(HAT_REFERENCE["split_totals"])
    D = MF.beta_split_deposition(totals, grid)
    eps = np.finfo(float).eps
    for S, row, want in zip(totals, D, HAT_REFERENCE["split"]):
        rtol = 4.0 * eps * (1.0 + grid / h) * (1.0 + S / h)
        assert np.all(np.abs(row - want) <= rtol * np.abs(want)), S


# -- reduced chain -------------------------------------------------------------------


def test_reduced_two_state_no_threshold():
    spec = make_two_state(k2=0.0, w12=0.7, w21=0.3)
    v12, v21 = MF.reduced_two_state(spec)
    assert v12 == 0.7 and v21 == 0.3


def test_reduced_two_state_threshold_value():
    spec = make_two_state(k2=1.0, w12=1.0, w21=1.0)
    v12, v21 = MF.reduced_two_state(spec)
    assert v21 == 1.0
    c = 2.0 / math.sqrt(math.pi)
    oracle, _ = sintegrate.quad(lambda x: c * math.sqrt(x) * math.exp(-x),
                                1.0, np.inf)
    assert abs(v12 - oracle) < 1e-10


def test_reduced_two_state_absorbing():
    spec = make_two_state(w12=0.0, w21=1.0)
    v12, v21 = MF.reduced_two_state(spec)
    assert v12 == 0.0


def test_reduced_two_state_requires_two_species():
    spec = make_two_state()
    three = spec.species + (spec.species[1].__class__(3, 1.0, 3, 2.0),)
    with pytest.raises(ValueError):
        MF.reduced_two_state(spec.with_overrides(
            species=three,
            rates=RateTable(unary=np.zeros((3, 3)), slow_binary=np.zeros((3, 3)),
                            fast_binary=np.zeros((3, 3)), heat_rate=0.0,
                            bath_beta=1.0)))


def test_reduced_ode_fixed_point_is_constant():
    spec = make_two_state(k2=1.0)
    v12, v21 = MF.reduced_two_state(spec)
    ratio = v21 / v12
    c1 = ratio / (1.0 + ratio)
    traj = MF.reduced_macro_ode(MF.MacroState(1.0, (c1, 1.0 - c1)), spec, 5.0)
    assert np.max(np.abs(traj.concentrations - traj.concentrations[0])) < 1e-12


def test_reduced_ode_converges_to_rate_ratio():
    spec = make_two_state(k2=1.0)
    v12, v21 = MF.reduced_two_state(spec)
    traj = MF.reduced_macro_ode(MF.MacroState(1.0, (0.9, 0.1)), spec, 40.0)
    c1, c2 = traj.concentrations[-1]
    assert abs(c1 / c2 - v21 / v12) < 1e-9


def test_reduced_ode_conserves_total():
    spec = make_two_state(k2=1.0)
    traj = MF.reduced_macro_ode(MF.MacroState(1.0, (0.3, 1.7)), spec, 20.0)
    totals = traj.concentrations.sum(axis=1)
    assert np.max(np.abs(totals - 2.0)) < 1e-12


def test_reduced_ode_at_zero_horizon_is_initial_row():
    spec = make_two_state(k2=1.0)
    traj = MF.reduced_macro_ode(MF.MacroState(1.0, (0.3, 1.7)), spec, 0.0)
    assert traj.times.tolist() == [0.0]
    assert traj.concentrations.tolist() == [[0.3, 1.7]]


def test_reduced_ode_default_clock_is_201_equal_instants():
    # the default clock is model.sample_times at t_end / 200, which replaced
    # np.linspace(0, t_end, 201) and must give the same floats
    horizons = ([k / 10 for k in range(1, 1001)] + [k / 7 for k in range(1, 1001)]
                + [10.0 ** e for e in range(-8, 9)])
    for t_end in horizons:
        clock = np.fromiter(sample_times(0.0, t_end, t_end / 200.0), float)
        assert clock.tobytes() == np.linspace(0.0, t_end, 201).tobytes(), t_end
    spec = make_two_state(k2=1.0)
    for t_end in (2.0, 0.3, 1.7, 40.0):
        traj = MF.reduced_macro_ode(MF.MacroState(1.0, (0.3, 0.7)), spec, t_end)
        assert traj.times.tobytes() == np.linspace(0.0, t_end, 201).tobytes()
        assert traj.concentrations.shape == (201, 2)


@pytest.mark.parametrize("t_end", [-1.0, math.inf, math.nan])
def test_reduced_ode_rejects_bad_horizon(t_end):
    # -1 integrated backwards to c = (-0.98, 1.98); NaN and inf never
    # returned, so an alarm turns a lost guard into a failure, not a hang
    def expire(signum, frame):
        raise TimeoutError("reduced_macro_ode did not return")

    spec = make_two_state(k2=1.0)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="t_end must be nonnegative and finite"):
            MF.reduced_macro_ode(MF.MacroState(1.0, (0.3, 1.7)), spec, t_end,
                                 sample_every=1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("beta, concentrations, match", [
    (1.0, (math.nan, 1.0), "concentrations must be finite and >= 0"),      # a NaN trajectory
    (1.0, (-0.5, 1.5), "concentrations must be finite and >= 0"),          # a plausible one
    (1.0, (math.inf, 0.0), "concentrations must be finite and >= 0"),      # a RuntimeWarning
    (math.nan, (0.5, 0.5), "beta must be positive and finite"),
    (math.inf, (0.5, 0.5), "beta must be positive and finite"),
    (0.0, (0.5, 0.5), "beta must be positive and finite"),
    (-1.0, (0.5, 0.5), "beta must be positive and finite"),
])
def test_macro_state_refuses_bad_beta_and_concentrations(beta, concentrations, match):
    with pytest.raises(ValueError, match=match):
        MF.MacroState(beta, concentrations)


@pytest.mark.parametrize("concentrations", [(0.3, 0.2, 0.5), (0.5,)])
def test_reduced_ode_refuses_a_concentration_per_species_missing_or_extra(concentrations):
    # three gave a three-entry trajectory, the third state absorbing; one an IndexError
    with pytest.raises(ValueError, match=f"{len(concentrations)} concentrations for a spec of 2"):
        MF.reduced_macro_ode(MF.MacroState(1.0, concentrations), two_state_spec(10), 1.0)


# -- affinity flux --------------------------------------------------------------------


def test_onsager_flux_zero_at_equilibrium():
    assert MF.onsager_flux(0.0, 0.6, 1.1, 2.0) == 0.0


def test_onsager_flux_sign_and_saturation():
    for A in (0.01, 0.5, 3.0, 1e4):
        assert MF.onsager_flux(A, 0.6, 1.1, 1.0) > 0.0
        assert MF.onsager_flux(-A, 0.6, 1.1, 1.0) < 0.0
    assert abs(MF.onsager_flux(1e6, 0.6, 1.1, 1.0) - 1.1) < 1e-9
    assert abs(MF.onsager_flux(-1e6, 0.6, 1.1, 1.0) + 0.6) < 1e-9


def test_onsager_linear_response():
    u12, u21, beta = 0.6, 1.1, 1.3
    L = beta / (1.0 / u21 + 1.0 / u12)
    h = 1e-6
    fd = (MF.onsager_flux(h, u12, u21, beta) -
          MF.onsager_flux(-h, u12, u21, beta)) / (2 * h)
    assert abs(fd - L) < 1e-6 * L


def test_onsager_rejects_nonpositive_rates():
    with pytest.raises(ValueError):
        MF.onsager_flux(1.0, 0.0, 1.0, 1.0)


# -- kinetic-equation integrator ---------------------------------------------------------


def stretched_grid():
    """linspace(0, 20, 65) with its upper half stretched by 1.3."""
    grid = np.linspace(0.0, 20.0, 65)
    grid[32:] = grid[32] + 1.3 * (grid[32:] - grid[32])
    return grid


@pytest.mark.parametrize("grid", [stretched_grid(), np.linspace(20.0, 0.0, 65), np.zeros(65),
                                  np.array([0.0]), np.array([0.0, 1e-9, 5e-9, 6e-9])],
                         ids=["stretched", "decreasing", "flat", "one-node", "tiny-steps"])
def test_the_integrator_refuses_the_grids_a_density_field_refuses(grid):
    # the integrator built its tables and ran rhs on the stretched grid, with
    # the uniform step h of its first cell; steps of 1e-9, 4e-9 and 1e-9
    # passed np.allclose's absolute tolerance of 1e-8
    spec = two_state_spec(50, heat=1.0, scale_heat=1.0)
    with pytest.raises(ValueError, match="grid must be uniform and strictly increasing"):
        MF.DensityField(grid, np.ones((2, grid.size)))
    with pytest.raises(ValueError, match="grid must be uniform and strictly increasing"):
        MF.BoltzmannIntegrator(spec, grid)


def test_a_grid_that_does_not_start_at_0_is_refused():
    # the pair totals k h assumed T_0 = 0: on this grid rhs returned NaN on
    # all 82 entries
    grid = np.linspace(5.0, 15.0, 41)
    spec = two_state_spec(100, heat=1.0, scale_heat=1.0)
    with pytest.raises(ValueError, match=re.escape("grid must start at 0, got grid[0] = 5.0")):
        MF.DensityField(grid, np.ones((2, grid.size)))
    with pytest.raises(ValueError, match=re.escape("grid must start at 0, got grid[0] = 5.0")):
        MF.BoltzmannIntegrator(spec, grid)


def test_zero_rates_keep_field_constant():
    spec = make_two_state(w12=0.0, w21=0.0, fast=0.0)
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=64, t_max=12.0)
    field = MF.field_from_spec(spec, grid)
    before = field.values.copy()
    traj = MF.integrate_boltzmann(field, spec, t_end=2.0, dt=0.1)
    # the values are masses, h times the densities: compare densities, which
    # the tolerance was set for
    w = MF._trapezoid_weights(grid)
    assert np.allclose(traj.final().values / w, before / w, atol=1e-14)


def test_snapshots_hold_their_own_arrays():
    # the integrator keeps each step's array as that step's snapshot, which
    # is safe only while no later step writes into an earlier one
    spec = make_two_state(k2=0.5, fast=1.0, heat=1.0, scale_heat=1.0, weights=(0.3, 0.7))
    grid = MF.energy_grid(1.0, spec.chem_energies(), m=32)
    field = MF.field_from_spec(spec, grid)
    field.values *= 2.0
    start = field.values / field.values.sum()
    traj = MF.integrate_boltzmann(field, spec, t_end=1.0, sample_every=0.25)
    fields = traj.fields
    assert len(fields) == 5
    for i, a in enumerate(fields):
        for b in fields[i + 1:]:
            assert not np.shares_memory(a.values, b.values)
        assert not np.shares_memory(a.values, field.values)
    assert fields[0].values.tobytes() == start.tobytes()


def test_cfl_violation_rejected():
    spec = make_two_state(fast=1.0, scale_fast=10.0)
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=64, t_max=12.0)
    field = MF.field_from_spec(spec, grid)
    with pytest.raises(ValueError, match="stability"):
        MF.integrate_boltzmann(field, spec, t_end=1.0, dt=1.0)


@pytest.mark.parametrize("every", [0.0, -1.0, math.inf, math.nan])
def test_integrate_boltzmann_rejects_bad_sample_interval(every):
    spec = make_two_state()
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=48, t_max=12.0)
    field = MF.field_from_spec(spec, grid)
    with pytest.raises(ValueError, match="sample_every"):
        MF.integrate_boltzmann(field, spec, t_end=1.0, sample_every=every)


@pytest.mark.parametrize("dt, m, name", [
    (0.0, 48, "dt"), (-0.1, 48, "dt"), (math.inf, 48, "dt"), (math.nan, 48, "dt"),
    (None, 0, "m"), (None, -4, "m"),
])
def test_integrate_boltzmann_rejects_bad_step_or_grid(dt, m, name):
    # dt 0 divided by zero, dt -0.1 took one step over the whole horizon, and
    # m 0 failed with an IndexError
    spec = make_two_state()
    with pytest.raises(ValueError, match=f"^{name} must be "):
        grid = MF.energy_grid(1.0, (0.0, 1.0), m=m, t_max=12.0)
        MF.integrate_boltzmann(MF.field_from_spec(spec, grid), spec, t_end=1.0,
                               dt=dt)


@pytest.mark.parametrize("t_end", [-1.0, math.inf, math.nan])
def test_integrate_boltzmann_rejects_bad_horizon(t_end):
    # -1 returned a snapshot labelled t = -1
    spec = make_two_state()
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=16, t_max=12.0)
    field = MF.field_from_spec(spec, grid)
    with pytest.raises(ValueError, match="t_end must be nonnegative and finite"):
        MF.integrate_boltzmann(field, spec, t_end=t_end)


def test_gamma_stationarity_residual_halves_under_refinement():
    spec = make_two_state(w12=0.0, w21=0.0, fast=1.0)
    residuals = []
    for m in (64, 128, 256):
        grid = MF.energy_grid(1.0, (0.0, 1.0), m=m, t_max=15.0)
        field = MF.field_from_laws(grid, (0.5, 0.5),
                                   (EnergyLaw("gamma", beta=1.0),) * 2)
        integ = MF.BoltzmannIntegrator(spec, grid)
        rho = field.values / field.values.sum()
        residuals.append(float(np.abs(integ.rhs(rho)).sum()))
    assert residuals[1] < 0.7 * residuals[0]
    assert residuals[2] < 0.7 * residuals[1]


def test_fast_only_relaxes_to_equilibrium_shape():
    spec = make_two_state(w12=0.0, w21=0.0, fast=1.0, weights=(1.0, 0.0))
    grid = MF.energy_grid(1.0, (0.0,), m=256, t_max=15.0)
    field = MF.field_from_laws(grid, (1.0, 0.0),
                               (EnergyLaw("uniform", low=0.0, high=2.0),) * 2)
    traj = MF.integrate_boltzmann(field, spec, t_end=25.0)
    final = traj.final()
    beta_imp = 1.5 / final.mean_energy()
    target = MF.gamma32_density(grid, beta_imp)
    l1 = float(np.abs(final.marginal(1) - target) @ MF._trapezoid_weights(grid))
    assert l1 < 0.01
    assert traj.max_step_drift < 1e-6


def test_heat_operator_fixes_bath_law():
    spec = make_two_state(w12=0.0, w21=0.0, fast=0.0, heat=1.0, scale_heat=1.0)
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=256, t_max=15.0)
    field = MF.field_from_laws(grid, (1.0, 0.0),
                               (EnergyLaw("gamma", beta=1.0),) * 2)
    integ = MF.BoltzmannIntegrator(spec, grid)
    rho = field.values / field.values.sum()
    assert float(np.abs(integ.rhs(rho)).sum()) < 0.02


@pytest.mark.parametrize("m", (64, 128))
@pytest.mark.parametrize("beta", (1.0, 0.5))
def test_heat_operator_is_stochastic_and_halves_pair_energy(m, beta):
    # bath contact splits T_k + xi, xi ~ Gamma(3/2, beta), so the mean
    # outgoing energy is (T_k + 3/(2 beta))/2 wherever the grid edge is far
    spec = make_two_state(beta=beta, w12=0.0, w21=0.0, fast=0.0, heat=1.0,
                          scale_heat=1.0)
    grid = MF.energy_grid(beta, (0.0, 1.0), m=m)
    integ = MF.BoltzmannIntegrator(spec, grid)
    # rhs of a unit mass at node k is heat_eff (H[k] - e_k), H the operator's
    # row-stochastic matrix
    unit = np.zeros((2, grid.size))
    H = np.eye(grid.size)
    for k in range(grid.size):
        unit[0, k] = 1.0
        H[k] += integ.rhs(unit)[0] / integ.heat_eff
        unit[0, k] = 0.0
    assert H.min() >= 0.0
    assert np.max(np.abs(H.sum(axis=1) - 1.0)) < 1e-12
    inner = grid <= grid[-1] / 3.0
    assert np.max(np.abs((H @ grid)[inner] - (grid[inner] + 1.5 / beta) / 2.0)) < 1e-8


@pytest.mark.parametrize("t_max, n_calls", [(None, 1), (12.0, 3)])
def test_zero_shift_slow_outcomes_share_the_split_deposition(monkeypatch, t_max, n_calls):
    from kinchem.model import TypeKernel
    kernel = TypeKernel(kind="table", table=(
        ((1, 1), (((2, 2), 0.5), ((1, 1), 0.5))),
        ((2, 2), (((1, 1), 0.5), ((2, 2), 0.5))),
    ))
    spec = make_two_state(k2=1.0, fast=1.0, heat=1.0, scale_heat=1.0, slow=1.0,
                          kernel=kernel)
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=64, t_max=t_max)
    calls = []
    split = MF.beta_split_deposition
    monkeypatch.setattr(MF, "beta_split_deposition",
                        lambda *a: calls.append(1) or split(*a))
    integ = MF.BoltzmannIntegrator(spec, grid, enable_slow_binary=True)
    K = spec.chem_energies()
    slow = integ.binary_terms[np.count_nonzero(integ.f_eff):]
    zero = [t for t in slow if K[t[0]] + K[t[1]] == K[t[2]] + K[t[3]]]
    assert zero and len(zero) < len(slow)
    # the zero shift reads the matrix whose leading rows split the pair
    # totals, with the fast terms and bath contact, type j with the bath row 2
    D, entries = integ.gain_groups[0]
    M = grid.size - 1
    assert D.shape[0] >= 2 * M + 1
    assert {(dest, integ.conv_pairs[p]) for n, dest, p, w in entries
            if 2 in integ.conv_pairs[p]} == {(0, (0, 2)), (1, (1, 2))}
    # the aligned grid (step 1/2) puts the shifts +-2 K2 on the same matrix,
    # 4 rows away; on the grid of step 3/16 each has its own
    assert {n for n, *_ in entries} == ({0, -4, 4} if t_max is None else {0})
    assert len(calls) == len(integ.gain_groups) == n_calls


def test_unary_channel_matches_reduced_chain_after_projection():
    spec = make_two_state(k2=1.0, fast=1.0, heat=1.0, scale_fast=25.0,
                          scale_heat=25.0, weights=(0.2, 0.8))
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=128)
    field = MF.field_from_spec(spec, grid)
    traj = MF.integrate_boltzmann(field, spec, t_end=3.0, sample_every=0.5)
    red = MF.reduced_macro_ode(MF.MacroState(1.0, (0.2, 0.8)), spec, 3.0,
                               sample_every=0.5)
    diff = np.max(np.abs(traj.concentrations() - red.concentrations))
    assert diff < 0.03          # manifold lag is O(1/scale)


def _unary_rates(spec, grid):
    return {(j, j1): rate for j, j1, rate, *_ in MF.BoltzmannIntegrator(spec, grid).unary_terms}


def _with_unary_fn(spec, fn):
    r = spec.rates
    return spec.with_overrides(rates=RateTable(
        unary=r.unary, slow_binary=r.slow_binary, fast_binary=r.fast_binary,
        heat_rate=r.heat_rate, bath_beta=r.bath_beta, unary_fn=fn))


def _constant_plugin(spec):
    # a unary_fn giving the table's base rates, its own bound
    return _with_unary_fn(spec, lambda j, j1, T: spec.rates.unary[j - 1][j1 - 1])


@pytest.mark.parametrize("plugin", (False, True))
def test_unary_gate_gives_a_node_on_the_threshold_half_its_cell(plugin):
    # K2 = 0.7 on its default grid, step 0.35: the threshold of 1 -> 2 is
    # node 2, within rounding, and counts half its cell whichever way the
    # rounding of its energy falls, in the table and the plug-in path alike
    spec = make_two_state(k2=0.7, w12=1.0, w21=0.5, heat=1.0, scale_heat=1.0)
    grid = MF.energy_grid(1.0, spec.chem_energies(), m=96)
    assert abs(grid[1] - 0.35) <= 1e-15 and abs(grid[2] - 0.7) <= 1e-15
    rates = _unary_rates(_constant_plugin(spec) if plugin else spec, grid)
    want = np.ones(grid.size)
    want[:3] = (0.0, 0.0, 0.5)
    assert np.max(np.abs(rates[0, 1] - want)) <= 1e-14
    assert rates[1, 0].tobytes() == np.full(grid.size, 0.5).tobytes()


@pytest.mark.parametrize("t_max, threshold", [(32.0, 1.0), (31.0, 1.0), (33.0, 0.7),
                                              (12.0, 0.01), (12.0, 11.99), (12.0, 0.0)])
def test_unary_gate_weights_add_up_to_the_energy_above_the_threshold(t_max, threshold):
    # each node counts the part of its cell above the threshold, so the cells'
    # weighted widths add up to the length of [threshold, T_M]; nothing is
    # counted below it, and every node whose cell lies above counts whole
    grid = np.linspace(0.0, t_max, 97)
    h = grid[1] - grid[0]
    width = np.minimum(grid + h / 2, t_max) - np.maximum(grid - h / 2, 0.0)
    cut = MF._cell_fraction_above(grid, threshold)
    assert abs(cut @ width - (t_max - threshold)) <= 1e-12 * t_max
    assert np.all(cut[grid + h / 2 <= threshold] == 0.0)
    assert np.all(cut[grid - h / 2 >= threshold] == 1.0)


def test_unary_gate_converges_faster_than_first_order():
    # everything starts in state 2 of the two-state model at scale 5 and is
    # near its fixed point at t = 8; the fixed point's c1 differs from the
    # chain equilibrium by a grid error plus a finite-scale offset, which the
    # differences of successive grids cancel.  Counting the threshold node's
    # whole cell, as a nodal gate does, gives order 1 at best (0.9 measured
    # on these grids); half of it gives order 1.5 (the sqrt(T) edge of the
    # density at T = 0)
    spec = make_two_state(k2=1.0, fast=1.0, heat=1.0, scale_fast=5.0, scale_heat=5.0,
                          weights=(0.0, 1.0))
    c1 = []
    for m in (64, 128, 256):
        grid = MF.energy_grid(1.0, spec.chem_energies(), m=m)
        traj = MF.integrate_boltzmann(MF.field_from_spec(spec, grid), spec, 8.0)
        c1.append(traj.final().masses()[0])
    v12, v21 = MF.reduced_two_state(spec)
    err = np.array(c1) - MF.two_state_equilibrium(v21 / v12)[0]
    assert abs(err[0]) < 0.005 and abs(err[2]) < 0.001
    order = math.log2((c1[1] - c1[0]) / (c1[2] - c1[1]))
    assert order > 1.25


def test_unary_plugin_equal_to_the_table_matches_the_table_path():
    # the energy gate T + K_j - K_j' >= 0 is the engines' to apply, as for
    # the table
    spec = make_two_state(k2=0.7, w12=1.0, w21=0.5, heat=1.0, scale_heat=1.0)
    plug = _constant_plugin(spec)
    grid = MF.energy_grid(1.0, spec.chem_energies(), m=64)
    table_terms = MF.BoltzmannIntegrator(spec, grid).unary_terms
    plug_terms = MF.BoltzmannIntegrator(plug, grid).unary_terms
    assert len(plug_terms) == len(table_terms) == 2
    for (j, j1, rate, idx, frac), (pj, pj1, prate, pidx, pfrac) in zip(table_terms,
                                                                      plug_terms):
        assert (j, j1) == (pj, pj1)
        assert rate.tobytes() == prate.tobytes()
        assert idx.tobytes() == pidx.tobytes() and frac.tobytes() == pfrac.tobytes()
    a = MF.integrate_boltzmann(MF.field_from_spec(spec, grid), spec, 1.0,
                               sample_every=0.25)
    b = MF.integrate_boltzmann(MF.field_from_spec(plug, grid), plug, 1.0,
                               sample_every=0.25)
    assert a.times.tolist() == b.times.tolist()
    assert all(fa.values.tobytes() == fb.values.tobytes()
               for fa, fb in zip(a.fields, b.fields))
    assert (a.max_step_drift, a.clipped_mass) == (b.max_step_drift, b.clipped_mass)
    # the Maxwell average by quadrature against the closed form w g_beta(threshold)
    for beta in (0.5, 1.0, 3.0):
        quad = MF.maxwell_unary_rates(plug, beta=beta)
        assert abs(quad[0, 1] - 1.0 * MF.survival_gbeta(0.7, beta)) < 1e-9
        assert abs(quad[1, 0] - 0.5 * MF.survival_gbeta(0.0, beta)) < 1e-9
        assert np.max(np.abs(quad - MF.maxwell_unary_rates(spec, beta=beta))) < 1e-9


@pytest.mark.parametrize("plugin, brk", [(lambda T: 0.25 + 0.25 * min(T, 3.0), 3.0),
                                         (lambda T: 1.0 if T >= 2.0 else 0.0, 2.0)],
                         ids=["kinked", "jump"])
def test_plugin_maxwell_average_matches_quadrature_split_at_the_break(plugin, brk):
    # thresholds 0 (downhill) and K2 = 0.7 or 5 (uphill); the reference is
    # scipy's quad on each side of the kink or jump
    def reference(thresh, beta):
        c = 2.0 * beta ** 1.5 / math.sqrt(math.pi)
        cuts = [thresh, *([brk] if brk > thresh else []), np.inf]
        return sum(sintegrate.quad(lambda T: plugin(T) * c * math.sqrt(T) * math.exp(-beta * T),
                                   a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(cuts, cuts[1:]))

    for k2 in (0.7, 5.0):
        spec = _with_unary_fn(make_two_state(k2=k2), lambda j, j1, T: plugin(T))
        for beta in (0.5, 1.0, 3.0):
            v = MF.maxwell_unary_rates(spec, beta=beta)
            assert abs(v[0, 1] - reference(k2, beta)) < 1e-9
            assert abs(v[1, 0] - reference(0.0, beta)) < 1e-9


@pytest.mark.parametrize("fn", [lambda j, j1, T: math.nan,
                                lambda j, j1, T: 0.5 + 0.5 * math.sin(1e4 * T)],
                         ids=["nan", "oscillating"])
def test_plugin_maxwell_average_raises_when_it_cannot_converge(fn):
    spec = _with_unary_fn(make_two_state(k2=0.7), fn)
    with pytest.raises(RuntimeError, match="did not converge in 200 subintervals"):
        MF.maxwell_unary_rates(spec)


def test_slow_binary_identity_kernel_equals_fast_operator():
    spec_b = make_two_state(w12=0.0, w21=0.0, fast=0.0, slow=1.0)
    spec_f = make_two_state(w12=0.0, w21=0.0, fast=1.0)
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=96, t_max=12.0)
    rng = np.random.default_rng(0)
    field = MF.DensityField(grid, rng.random((2, grid.size)))
    field.values /= field.norm()
    ib = MF.BoltzmannIntegrator(spec_b, grid, enable_slow_binary=True)
    iff = MF.BoltzmannIntegrator(spec_f, grid)
    rho = field.values
    assert np.max(np.abs(ib.rhs(rho) - iff.rhs(rho))) < 1e-14


def test_fast_collision_is_a_slow_reaction_under_the_identity_kernel():
    # both pair channels build their terms in one loop: a fast-only and a
    # slow-only spec (identity kernel) at the same rates give the same terms
    # and, bit for bit, the same final field
    finals = []
    for fast, slow in ((0.7, 0.0), (0.0, 0.7)):
        spec = make_two_state(n=50, k2=0.5, heat=1.0, scale_heat=1.0, fast=fast, slow=slow)
        grid = MF.energy_grid(1.0, spec.chem_energies(), m=64)
        traj = MF.integrate_boltzmann(MF.field_from_spec(spec, grid), spec, 1.0)
        finals.append(traj.final().values.tobytes())
    assert finals[0] == finals[1]


def test_slow_binary_respects_energy_threshold():
    # reactive kernel (1,1)->(2,2) with large K2: below threshold nothing moves
    from kinchem.model import TypeKernel
    kernel = TypeKernel(kind="table", table=(((1, 1), (((2, 2), 1.0),)),))
    spec = make_two_state(w12=0.0, w21=0.0, fast=0.0, slow=1.0, k2=40.0,
                          kernel=kernel, weights=(1.0, 0.0))
    grid = MF.energy_grid(1.0, (0.0,), m=96, t_max=12.0)
    field = MF.field_from_laws(grid, (1.0, 0.0),
                               (EnergyLaw("gamma", beta=1.0),) * 2)
    integ = MF.BoltzmannIntegrator(spec, grid, enable_slow_binary=True)
    rho = field.values
    assert np.max(np.abs(integ.rhs(rho))) == 0.0


def test_observables_converge_under_grid_doubling():
    spec = make_two_state(k2=1.0, fast=1.0, heat=1.0, scale_fast=10.0,
                          scale_heat=10.0, weights=(0.3, 0.7))
    cs = []
    for m in (128, 256):
        grid = MF.energy_grid(1.0, (0.0, 1.0), m=m, t_max=15.0)
        field = MF.field_from_spec(spec, grid)
        traj = MF.integrate_boltzmann(field, spec, t_end=2.0)
        cs.append(traj.final().masses())
    assert np.max(np.abs(cs[0] - cs[1])) < 0.01 * np.max(cs[1])


def test_integrate_boltzmann_refuses_an_overflowing_rate():
    # heat 1e300 at scale 1e300 is valid entry by entry; the step bound then
    # gave dt = 0.4 / inf = 0 and a ZeroDivisionError.  The spec is refused
    # as it is made, so the kinetic equation is never given it
    with pytest.raises(ValueError, match=r"invalid spec:\n.*rates\.heat_rate"):
        two_state_spec(4, heat=1e300, scale_heat=1e300)


@pytest.mark.parametrize("rates", [dict(w12=1e-310), dict(fast=1e-310),
                                   dict(heat=1e-310, scale_heat=1.0)])
def test_integrate_boltzmann_takes_a_rate_whose_step_bound_overflows(rates):
    # each channel alone at a subnormal rate: the default dt = 0.4 / rate was
    # inf, and the run failed with "dt*rate = inf > 0.5"
    spec = make_two_state(4, **{"w12": 0.0, "w21": 0.0, "fast": 0.0, **rates})
    grid = MF.energy_grid(spec.rates.bath_beta, spec.chem_energies(), m=16)
    traj = MF.integrate_boltzmann(MF.field_from_spec(spec, grid), spec, 1.0)
    assert traj.times[-1] == 1.0
    assert traj.max_step_drift <= 1e-12


def test_integrate_boltzmann_refuses_too_many_steps_before_the_first():
    # a valid spec: dt * rate <= 0.5 asks for 2.5e148 steps, and the run was
    # still going when a 20 s timeout killed it
    spec = two_state_spec(4, heat=1e150, scale_heat=1.0)
    grid = MF.energy_grid(spec.rates.bath_beta, spec.chem_energies(), m=16)
    field = MF.field_from_spec(spec, grid)
    start = time.perf_counter()
    for every in (None, 1e-3):
        with pytest.raises(ValueError, match=r"t_end = 0\.01 needs at least 2\.5e\+148 RK4 "
                                             r"steps of dt = 4e-151, more than "
                                             r"MAX_RK4_STEPS = 1000000$"):
            MF.integrate_boltzmann(field, spec, 0.01, sample_every=every)
    assert time.perf_counter() - start < 1.0
    # the count sums over the clock's intervals: two halves of 500001 steps are too many
    ok = two_state_spec(4, heat=1.0, scale_heat=1.0)
    field = MF.field_from_spec(ok, grid)
    with pytest.raises(ValueError, match="needs at least 1000002 RK4 steps"):
        MF.integrate_boltzmann(field, ok, 0.01, dt=0.01 / (MF.MAX_RK4_STEPS + 1),
                               sample_every=0.005)
    traj = MF.integrate_boltzmann(field, ok, 0.01, dt=1e-4, sample_every=0.005)
    assert traj.times.tolist() == [0.0, 0.005, 0.01]


@pytest.mark.parametrize("law", [EnergyLaw("point", value=100.0),
                                 EnergyLaw("uniform", low=20.0, high=100.0),
                                 EnergyLaw("point", value=math.nan)])
def test_field_from_laws_refuses_a_law_past_the_last_node(law):
    # on this grid (last node 31) a point law at 100 lost mass to clipping
    # and a uniform law on [20, 100] was cut off at 31, both silently
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=64, t_max=31.0)
    with pytest.raises(ValueError, match=r"reaches past the grid's last node 31\.0"):
        MF.field_from_laws(grid, (0.5, 0.5), (EnergyLaw("gamma", beta=1.0), law))
    # a law that ends on the last node is kept whole
    edge = MF.field_from_laws(grid, (0.5, 0.5), (EnergyLaw("point", value=31.0),
                                                 EnergyLaw("uniform", low=20.0, high=31.0)))
    assert abs(edge.mean_energy() - (31.0 + 25.5) / 2) < 0.05


@pytest.mark.parametrize("law", [EnergyLaw("uniform", low=0.5, high=0.2),
                                 EnergyLaw("uniform", low=-1.0, high=2.0),
                                 EnergyLaw("point", value=-0.5)])
def test_field_from_laws_refuses_a_reversed_or_negative_law(law):
    # unvalidated laws: a reversed one would build a point mass at low, and
    # mass below 0 would be lost off the first node
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=64)
    with pytest.raises(ValueError, match=r"needs 0 <= low <= high"):
        MF.field_from_laws(grid, (1.0,), (law,))


# each law with its mean, on grids that end at 31
_INITIAL_LAWS = [(EnergyLaw("gamma", beta=1.0), 1.5), (EnergyLaw("gamma", beta=2.5), 0.6),
                 (EnergyLaw("uniform", low=0.0, high=4.0), 2.0),
                 (EnergyLaw("uniform", low=0.1, high=0.3), 0.2),
                 (EnergyLaw("uniform", low=1.37, high=9.91), (1.37 + 9.91) / 2),
                 (EnergyLaw("uniform", low=20.0, high=31.0), 25.5),
                 (EnergyLaw("point", value=1.23), 1.23),
                 (EnergyLaw("point", value=0.0), 0.0),
                 (EnergyLaw("point", value=31.0), 31.0)]


@pytest.mark.parametrize("m", (16, 32, 64, 128, 256, 512))
@pytest.mark.parametrize("law, mean", _INITIAL_LAWS,
                         ids=[str(law.to_dict()) for law, _ in _INITIAL_LAWS])
def test_initial_field_keeps_each_laws_mass_and_mean(m, law, mean):
    # nodal values gave Gamma(3/2, 1) a mean of 1.6142 at m = 64 and refused
    # Uniform[0.1, 0.3], which lies between two nodes there
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=m, t_max=31.0)
    assert grid[-1] == 31.0
    field = MF.field_from_laws(grid, (0.3, 0.0, 0.7), (law,) * 3)
    assert field.values.min() >= 0.0
    assert not field.values[1].any()
    masses = field.masses()
    assert abs(masses[0] - 0.3) <= 1e-12 and abs(masses[2] - 0.7) <= 1e-12
    for j in (0, 2):
        assert abs(field.values[j] @ grid / masses[j] - mean) <= 1e-12
    if law.law == "point" and law.value in (0.0, 31.0):
        # a point law on a node puts its whole weight there
        node = 0 if law.value == 0.0 else m
        assert np.flatnonzero(field.values[2]).tolist() == [node]


@pytest.mark.parametrize("a", (0.0, 1.23, 31.0 / 32, 31.0))
def test_uniform_law_of_zero_width_is_the_point_law(a):
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=64)
    uniform = MF.field_from_laws(grid, (1.0,), (EnergyLaw("uniform", low=a, high=a),))
    point = MF.field_from_laws(grid, (1.0,), (EnergyLaw("point", value=a),))
    assert uniform.values.tobytes() == point.values.tobytes()


def _exact_uniform_hat_weights(grid, low, high):
    """E[hat_l(X)], X ~ Uniform[low, high], as exact rationals of the float
    grid, its step h = T_1 - T_0 and the law's ends."""
    T = [Fraction(t) for t in grid.tolist()]
    h = T[1] - T[0]
    a, b = Fraction(low), Fraction(high)

    def integral(lo, hi, c0, c1):
        # the law's integral of c0 + c1 y over [lo, hi]
        lo, hi = max(lo, a), min(hi, b)
        return (c0 * (hi - lo) + c1 * (hi * hi - lo * lo) / 2) / (b - a) if lo < hi else 0

    M = len(T) - 1
    return [(integral(T[l - 1], T[l], -T[l - 1] / h, 1 / h) if l > 0 else 0)
            + (integral(T[l], T[l + 1], 1 + T[l] / h, -1 / h) if l < M else 0)
            for l in range(M + 1)]


@pytest.mark.parametrize("low, high, m", [(0.1, 0.3, 64), (0.7, 2.9, 32),
                                          (1.37, 9.91, 16), (12.3, 12.31, 16)])
def test_uniform_hat_weights_match_their_exact_integrals(low, high, m):
    # Each wing is a difference of G values near high / 2 less T_l times a
    # difference of F, divided by h, so its rounding grows like eps high / h:
    # below 1e-15 on these grids, up to 8e-14 for Uniform[0.05, 30.9] at
    # m = 512, as for the bath's weights.
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=m)
    assert low not in grid and high not in grid
    got = MF._uniform_hat_weights(grid, low, high)
    exact = _exact_uniform_hat_weights(grid, low, high)
    assert max(abs(Fraction(g) - e) for g, e in zip(got.tolist(), exact)) <= 1e-15


@pytest.mark.parametrize("grid", [[0.0, 0.0, 0.0], [0.0, -1.0, -2.0], [0.0, math.nan, 1.0]])
def test_density_field_refuses_a_grid_that_does_not_increase(grid):
    with pytest.raises(ValueError, match="strictly increasing"):
        MF.DensityField(grid=grid, values=np.zeros((1, 3)))


@pytest.mark.parametrize("t_max", [0.0, -5.0, math.inf, math.nan])
def test_energy_grid_refuses_a_span_that_is_not_positive_and_finite(t_max):
    with pytest.raises(ValueError, match="^t_max must be positive and finite"):
        MF.energy_grid(1.0, m=4, t_max=t_max)


# (beta, chemical energies, m): the two-state config at m = 32 .. 1024, the
# benchmark's reactive model (K = (0, 1), beta = 1) at m = 256, this file's
# reactive model, and tenths whose remainders round off 0
_ALIGNED = ([(1.0, (0.0, 1.0), m) for m in (32, 64, 128, 256, 512, 1024)]
            + [(1.0, (0.0, 0.7), 96), (0.5, (0.0, 0.1, 0.2, 0.3), 1000),
               (2.0, (1000.0, 1000.5, 1001.5), 512)])


def _all_outcomes_spec(beta, K):
    # one species per chemical energy, and a slow channel whose table kernel
    # takes every type pair to every type pair: every shift dK occurs
    J = len(K)
    pairs = [(a, b) for a in range(1, J + 1) for b in range(1, J + 1)]
    kernel = TypeKernel(kind="table", table=tuple(
        (pair, tuple((out, 1.0 / len(pairs)) for out in pairs)) for pair in pairs))
    base = make_two_state(beta=beta, heat=1.0, scale_heat=1.0)
    return base.with_overrides(
        species=tuple(SpeciesSpec(j + 1, 1.0, 3, k) for j, k in enumerate(K)),
        initial_distribution=InitialDistribution(
            (1.0 / J,) * J, (EnergyLaw("gamma", beta=beta),) * J),
        rates=RateTable(unary=np.zeros((J, J)), slow_binary=np.ones((J, J)),
                        fast_binary=np.ones((J, J)), heat_rate=1.0, bath_beta=beta,
                        binary_kernel=kernel))


@pytest.mark.parametrize("beta, K, m", _ALIGNED)
def test_default_grid_puts_every_chemical_energy_difference_on_a_node(beta, K, m):
    grid = MF.energy_grid(beta, K, m=m)
    h = grid[1] - grid[0]
    assert grid.size == m + 1 and grid[0] == 0.0
    assert grid[-1] >= (max(K) - min(K)) + 30.0 / beta
    steps = [(b - a) / h for a in K for b in K if b > a]
    assert all(round(s) >= 1 and abs(s - round(s)) <= 1e-12 * s for s in steps)
    # and the integrator reads every shift as whole rows of one matrix
    integ = MF.BoltzmannIntegrator(_all_outcomes_spec(beta, K), grid)
    shifts = {n for _, entries in integ.gain_groups for n, *_ in entries}
    assert len(integ.gain_groups) == 1
    assert shifts == {round((a + b - c - d) / h) for a in K for b in K for c in K for d in K}


def test_two_state_config_grid_is_aligned():
    spec = load_config(Path(__file__).resolve().parents[1] / "configs" / "two_state.yaml")
    assert (spec.rates.bath_beta, spec.chem_energies()) == (1.0, (0.0, 1.0))
    assert MF.energy_grid(1.0, spec.chem_energies(), m=512)[1] == 1.0 / 16


@pytest.mark.parametrize("t_max, m", [(31.0, 64), (32.0, 256), (12.0, 48), (33.0, 96),
                                      (0.7, 7)])
def test_energy_grid_keeps_a_given_span(t_max, m):
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=m, t_max=t_max)
    assert grid.tobytes() == np.linspace(0.0, t_max, m + 1).tobytes()


# one species, none, no common step, and a common step below span / m
@pytest.mark.parametrize("K, m", [((0.0,), 256), ((), 64), ((0.0, 1.0, math.sqrt(2.0)), 256),
                                  ((0.0, 1.0, 1.0 + 1e-9), 512), ((0.0, 0.01), 64),
                                  ((0.0, 1.0), 16)])
def test_energy_grid_without_a_common_step_keeps_the_default_span(K, m):
    span = (max(K) - min(K) if K else 0.0) + 30.0
    assert MF.energy_grid(1.0, K, m=m).tobytes() == np.linspace(0.0, span, m + 1).tobytes()


def test_field_from_laws_projects_a_shared_law_once(monkeypatch):
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=256)
    weights = (0.3, 0.5, 0.2)
    laws = (EnergyLaw("gamma", beta=1.0), EnergyLaw("gamma", beta=1.0),
            EnergyLaw("gamma", beta=2.0))
    per_type = np.array([w * MF._gamma32_hat_weights(grid, law.beta)
                         for w, law in zip(weights, laws)])
    calls = []
    project = MF._gamma32_hat_weights
    monkeypatch.setattr(MF, "_gamma32_hat_weights",
                        lambda *a: calls.append(a[1]) or project(*a))
    field = MF.field_from_laws(grid, weights, laws)
    assert calls == [1.0, 2.0]
    assert field.values.tobytes() == per_type.tobytes()


def test_point_mass_field_deposits_unit_mass():
    grid = MF.energy_grid(1.0, (0.0,), m=64, t_max=8.0)
    field = MF.field_from_laws(grid, (1.0,), (EnergyLaw("point", value=1.23),))
    assert abs(field.norm() - 1.0) < 1e-12
    assert abs(field.mean_energy() - 1.23) < 0.05


def test_deposition_rows_are_stochastic_and_mean_preserving():
    grid = MF.energy_grid(1.0, (), m=128, t_max=10.0)
    totals = np.linspace(0.0, 20.0, 257)
    D = MF.beta_split_deposition(totals, grid)
    assert np.max(np.abs(D.sum(axis=1) - 1.0)) < 1e-12
    # two-node deposition preserves the split mean S/2 wherever no clipping
    means = D @ grid
    inside = totals <= grid[-1]
    assert np.max(np.abs(means[inside] - totals[inside] / 2.0)) < 1e-8


# -- closed-form split deposition and the grouped rhs --------------------------------


def test_beta32_closed_form_matches_betainc():
    ends = np.logspace(-300, -1, 600)
    u = np.concatenate(([0.0, 1.0], np.linspace(0.0, 1.0, 10001), ends, 1.0 - ends))
    F, G = MF._beta32_cdf_and_moment(u)
    assert np.max(np.abs(F - betainc(1.5, 1.5, u))) < 1e-14
    assert np.max(np.abs(G - 0.5 * betainc(2.5, 1.5, u))) < 1e-14
    assert F[0] == G[0] == 0.0 and abs(F[1] - 1.0) < 1e-15 and abs(G[1] - 0.5) < 1e-15


def _betainc_split_deposition(totals, grid):
    # the incomplete-beta construction the closed form replaced: both ends
    # of every node's two intervals, evaluated per node
    def moments(u_lo, u_hi):
        return (betainc(1.5, 1.5, u_hi) - betainc(1.5, 1.5, u_lo),
                0.5 * (betainc(2.5, 1.5, u_hi) - betainc(2.5, 1.5, u_lo)))

    M = grid.size - 1
    h = grid[1] - grid[0]
    D = np.zeros((totals.size, M + 1))
    pos = totals > 0.0
    S = totals[pos][:, None]
    lo, mid, hi = (grid - h)[None, :], grid[None, :], (grid + h)[None, :]
    m0, m1 = moments(np.clip(lo / S, 0, 1), np.clip(mid / S, 0, 1))
    left = (S * m1 - lo * m0) / h
    m0, m1 = moments(np.clip(mid / S, 0, 1), np.clip(hi / S, 0, 1))
    block = left + (hi * m0 - S * m1) / h
    block[:, M] = left[:, M] + 1.0 - betainc(1.5, 1.5, np.clip(grid[M] / S[:, 0], 0, 1))
    D[pos] = block
    D[~pos, 0] = 1.0
    return D / D.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("m", (64, 256))
@pytest.mark.parametrize("shift", (0.0, 2.0, -2.0, 0.7))
def test_split_deposition_matches_betainc_construction(m, shift):
    # 2.0 is a whole number of cells at both m; 0.7 is not.  Totals below 0
    # are clipped to 0, as the integrator clips them, and deposit on T_0
    grid = MF.energy_grid(1.0, (), m=m, t_max=16.0)
    totals = np.maximum(np.arange(2 * m + 1) * (grid[1] - grid[0]) + shift, 0.0)
    D = MF.beta_split_deposition(totals, grid)
    assert np.max(np.abs(D - _betainc_split_deposition(totals, grid))) < 1e-12


def _reactive_spec():
    # four channels, per-pair fast and slow rates, and a table kernel whose
    # outcomes shift the chemical energy by 0, +-K2 and +-2 K2
    kernel = TypeKernel(kind="table", table=(
        ((1, 1), (((2, 2), 0.5), ((1, 1), 0.5))),
        ((1, 2), (((2, 1), 0.3), ((1, 1), 0.3), ((2, 2), 0.4))),
        ((2, 2), (((1, 1), 0.6), ((1, 2), 0.4))),
    ))
    base = make_two_state(k2=0.7, w12=1.0, w21=0.5, heat=1.0, scale_heat=2.0,
                          scale_fast=3.0, kernel=kernel)
    r = base.rates
    return base.with_overrides(rates=RateTable(
        unary=r.unary, slow_binary=((0.6, 0.3), (0.3, 0.9)),
        fast_binary=((1.0, 0.5), (0.5, 0.8)), heat_rate=1.0,
        bath_beta=r.bath_beta, binary_kernel=kernel))


def _per_term_rhs(integ, rho, bath_beta):
    # one convolution and one deposition product per fast pair and per slow
    # outcome, and the heat rows one at a time: the loop the grouped rhs
    # replaced, each slow outcome through its own split of the pair totals
    # shifted by its dK.  Heat row k is b @ split_D[k : k+M+1], b the bath
    # law's hat weights and split_D the split of the pair totals 0 .. 2M
    J, n = rho.shape
    totals = np.arange(2 * n - 1) * (integ.grid[1] - integ.grid[0])
    split_D = MF.beta_split_deposition(totals, integ.grid)
    b = MF._gamma32_hat_weights(integ.grid, bath_beta)
    heat_rows = np.array([b @ split_D[k:k + n] for k in range(n)])
    out = np.zeros_like(rho)
    mass = rho.sum(axis=1)
    for j, j1, rate, idx, frac in integ.unary_terms:
        flux = rate * rho[j]
        out[j] -= flux
        np.add.at(out[j1], idx, flux * (1.0 - frac))
        np.add.at(out[j1], idx + 1, flux * frac)
    for j in range(J):
        out[j] -= 2.0 * float(integ.f_eff[j] @ mass) * rho[j]
        for jp in range(J):
            if integ.f_eff[j, jp]:
                out[j] += 2.0 * integ.f_eff[j, jp] * (
                    np.convolve(rho[j], rho[jp]) @ split_D)
        if integ.heat_eff > 0.0:
            out[j] += integ.heat_eff * (rho[j] @ heat_rows - rho[j])
    # the slow outcomes follow the fast terms in the integrator's term list
    for j, jp, j1, j1p, coef, dK, s_min in integ.binary_terms[np.count_nonzero(integ.f_eff):]:
        D = MF.beta_split_deposition(np.maximum(totals + dK, 0.0), integ.grid)
        ok = np.arange(2 * n - 1) >= s_min
        suffix = np.concatenate((np.cumsum(rho[jp][::-1])[::-1], [0.0]))
        l_min = np.clip(s_min - np.arange(n), 0, n)
        out[j] -= coef * rho[j] * suffix[l_min]
        out[j1] += coef * (np.where(ok, np.convolve(rho[j], rho[jp]), 0.0) @ D)
    return out


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("t_max, n_matrices", [(None, 1), (33.0, 5)])
def test_grouped_rhs_matches_per_term_reference(seed, t_max, n_matrices):
    # the default grid's step 0.35 aligns the shifts 0, +-0.7 and +-1.4 to
    # one matrix; the step 0.34375 aligns only the zero shift
    spec = _reactive_spec()
    grid = MF.energy_grid(1.0, spec.chem_energies(), m=96, t_max=t_max)
    integ = MF.BoltzmannIntegrator(spec, grid, enable_slow_binary=True)
    assert len(integ.gain_groups) == n_matrices
    rho = np.random.default_rng(seed).random((2, grid.size))
    rho /= rho.sum()
    ref = _per_term_rhs(integ, rho, spec.rates.bath_beta)
    assert np.max(np.abs(integ.rhs(rho) - ref)) <= 1e-14 * np.max(np.abs(ref))
    # the zero shift's matrix leads with the reference's split_D
    M = grid.size - 1
    zero = MF.beta_split_deposition(np.arange(2 * M + 1) * (grid[1] - grid[0]), grid)
    assert integ.gain_groups[0][0][:2 * M + 1].tobytes() == zero.tobytes()


def _one_pass_split_deposition(totals, grid):
    # the split deposition as one pass over all rows, before it was built in
    # row blocks: every positive total's law on all M+3 edges at once
    totals = np.asarray(totals, dtype=float)
    D = np.zeros((totals.size, grid.size))
    pos = totals > 0.0
    S = totals[pos][:, None]

    def law(edges):
        u = edges / S
        upper = u > 0.5
        v = np.minimum(u, 1.0 - u)
        F, G = MF._beta32_cdf_and_moment(np.maximum(v, 0.0, out=v))
        return upper, np.where(upper, -F, F), 2.0 * np.where(upper, G - F, G)

    D[pos] = MF._hat_weights(law, S / 2.0, grid)
    D[~pos, 0] = 1.0
    D /= D.sum(axis=1, keepdims=True)
    return D


@pytest.mark.parametrize("m", (1, 2, 3, 64, 256, 512))
@pytest.mark.parametrize("t_max", (None, 7.3))
def test_blocked_split_deposition_has_the_one_pass_bytes(m, t_max):
    # the aligned grid of step 1/2 and one of step 7.3/m; the pair totals
    # start at 0 and their counts, 2m+1 and 2m+5, are no multiple of the
    # block; the largest totals reach past the last node, the reversed ones
    # put the largest total of a block first, the clipped shift repeats 0
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=m, t_max=t_max)
    h = grid[1] - grid[0]
    pair = np.arange(2 * m + 1) * h
    cases = (pair, np.arange(2 * m + 5) * h, np.maximum(pair - 0.77, 0.0),
             pair[::-1].copy(), np.linspace(0.0, 3.0 * grid[-1], 97), np.zeros(3))
    for totals in cases:
        got = MF.beta_split_deposition(totals, grid)
        assert got.tobytes() == _one_pass_split_deposition(totals, grid).tobytes()


@pytest.mark.parametrize("t_max, n_matrices", [(None, 1), (33.0, 5)])
def test_the_integrators_split_matrices_have_the_one_pass_bytes(t_max, n_matrices):
    # the aligned grid's one matrix holds the shift rows 2M+1 .. 2M+4; on the
    # other grid each shift off the lattice keeps its own matrix, whose rows
    # below 0 are zeroed in place where the one-pass code multiplied by the
    # row mask
    spec = _reactive_spec()
    grid = MF.energy_grid(1.0, spec.chem_energies(), m=96, t_max=t_max)
    integ = MF.BoltzmannIntegrator(spec, grid, enable_slow_binary=True)
    h = grid[1] - grid[0]
    pair = np.arange(2 * 96 + 1) * h
    shared = integ.gain_groups[0][0]
    assert shared.tobytes() == _one_pass_split_deposition(
        np.arange(shared.shape[0]) * h, grid).tobytes()
    off = {}
    for *_, dK, s_min in integ.binary_terms:
        totals = pair + dK
        ref = _one_pass_split_deposition(np.maximum(totals, 0.0), grid) * (totals >= 0.0)[:, None]
        off[ref.tobytes()] = s_min
    got = [D.tobytes() for D, _ in integ.gain_groups[1:]]
    assert len(got) == n_matrices - 1 and all(D in off for D in got)
    assert t_max is None or any(off[D] > 0 for D in got)


@pytest.mark.parametrize("totals, first", [
    ([math.nan], "totals[0] = nan"),
    ([-1.0, 2.0], "totals[0] = -1.0"),
    ([1.0, math.inf, -1.0], "totals[1] = inf"),
    ([0.0, 2.0, -math.inf], "totals[2] = -inf"),
])
def test_split_deposition_refuses_a_negative_or_non_finite_total(totals, first):
    grid = np.linspace(0.0, 4.0, 5)
    with pytest.raises(ValueError, match=re.escape(first)):
        MF.beta_split_deposition(np.array(totals), grid)
    # -0.0 is a zero total, deposited on T_0
    assert MF.beta_split_deposition(np.array([-0.0]), grid).tolist() == [[1.0, 0, 0, 0, 0]]


def test_fine_grid_set_up_stays_within_its_matrices():
    # the split matrix is built a block of rows at a time, so the set-up's
    # peak traced allocation stays near the bytes it keeps; the one-pass
    # build peaked at 5.5 times them.  About 0.1 s at m = 512
    spec = two_state_spec(1000, heat=1.0, scale_heat=1.0)
    grid = MF.energy_grid(spec.rates.bath_beta, spec.chem_energies(), m=512)
    integ, _, peak = traced(lambda: MF.BoltzmannIntegrator(spec, grid))
    kept = sum({id(D): D.nbytes for D, _ in integ.gain_groups}.values())
    assert [D.shape for D, _ in integ.gain_groups] == [(1025, 513)] and kept > 4e6
    assert peak <= 1.25 * kept, (peak, kept)


def test_the_integrator_keeps_no_node_by_node_matrix():
    # bath contact is a pair convolution with the bath row, deposited by the
    # split matrix of 2M+1 rows: nothing the integrator keeps, in its
    # attributes or the lists, tuples and dicts they hold, is (M+1) x (M+1)
    spec = two_state_spec(1000, heat=1.0, scale_heat=1.0)
    grid = MF.energy_grid(spec.rates.bath_beta, spec.chem_energies(), m=512)
    integ = MF.BoltzmannIntegrator(spec, grid)
    assert integ.heat_eff > 0.0
    shapes, todo = [], list(vars(integ).values())
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            shapes.append(x.shape)
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
    assert (1025, 513) in shapes and (513, 513) not in shapes


def test_shifts_beyond_the_pair_totals_do_not_grow_the_shared_matrix():
    # K2 = 40 on a grid of step 1/8: the shifts +-80 are 640 rows, more than
    # the 193 pair totals.  The gain +80 keeps its own matrix, so the shared
    # one does not grow to reach it; no pair total pays the deficit -80, so
    # that outcome gets no matrix at all
    kernel = TypeKernel(kind="table", table=(((1, 1), (((2, 2), 1.0),)),
                                             ((2, 2), (((1, 1), 1.0),))))
    spec = make_two_state(fast=1.0, slow=1.0, k2=40.0, heat=1.0, scale_heat=1.0,
                          kernel=kernel)
    grid = MF.energy_grid(1.0, (0.0,), m=96, t_max=12.0)
    integ = MF.BoltzmannIntegrator(spec, grid, enable_slow_binary=True)
    assert [D.shape for D, _ in integ.gain_groups] == [(193, 97)] * 2
    assert {n for _, entries in integ.gain_groups for n, *_ in entries} == {0}
    assert all(s_min <= 192 for *_, s_min in integ.binary_loss)
    rho = np.random.default_rng(3).random((2, grid.size))
    rho /= rho.sum()
    ref = _per_term_rhs(integ, rho, spec.rates.bath_beta)
    assert np.max(np.abs(integ.rhs(rho) - ref)) <= 1e-14 * np.max(np.abs(ref))


def _one_species_fast_only():
    base = make_two_state()
    return base.with_overrides(
        species=(SpeciesSpec(1, 1.0, 3, 0.0),),
        initial_distribution=InitialDistribution((1.0,), (EnergyLaw("gamma", beta=1.0),)),
        rates=RateTable(unary=[[0.0]], slow_binary=[[0.0]], fast_binary=[[1.0]],
                        heat_rate=0.0, bath_beta=1.0))


def _plugin_unary(spec):
    # an energy-dependent unary_fn on the four-channel model, kernel kept
    r = spec.rates
    return spec.with_overrides(rates=RateTable(
        unary=r.unary, slow_binary=r.slow_binary, fast_binary=r.fast_binary,
        heat_rate=r.heat_rate, bath_beta=r.bath_beta, binary_kernel=r.binary_kernel,
        unary_fn=lambda j, j1, T: 0.25 + 0.25 * min(T, 3.0)))


def _three_species_off_lattice():
    # K = (0, 1, sqrt 2) has no common step, so the nonzero shifts are off
    # the lattice and each keeps its own matrix; unary rates on every pair
    spec = _all_outcomes_spec(1.0, (0.0, 1.0, math.sqrt(2.0)))
    r = spec.rates
    return spec.with_overrides(rates=RateTable(
        unary=((0.0, 1.0, 0.5), (0.5, 0.0, 1.0), (1.0, 0.5, 0.0)),
        slow_binary=r.slow_binary, fast_binary=r.fast_binary, heat_rate=r.heat_rate,
        bath_beta=r.bath_beta, binary_kernel=r.binary_kernel))


_MIX_KERNEL = TypeKernel(kind="table", table=(((1, 1), (((2, 2), 0.5), ((1, 1), 0.5))),
                                              ((2, 2), (((1, 1), 1.0),))))

# the rhs tables' edge cases: (spec, grid size m, what the case checks)
_TABLE_CASES = {
    "one-species-fast-only": (_one_species_fast_only, 64),    # no unary terms
    "heat-only": (lambda: make_two_state(w12=0.0, w21=0.0, fast=0.0, heat=1.0,
                                         scale_heat=2.0), 64),  # bath gains only
    "slow-without-fast": (lambda: make_two_state(fast=0.0, slow=1.0, heat=1.0,
                                                 scale_heat=1.0, kernel=_MIX_KERNEL), 64),
    "unary-plugin": (lambda: _plugin_unary(_reactive_spec()), 96),
    "three-species-off-lattice": (_three_species_off_lattice, 48),
}


def _table_case(name, seed):
    make, m = _TABLE_CASES[name]
    spec = make()
    grid = MF.energy_grid(spec.rates.bath_beta, spec.chem_energies(), m=m)
    integ = MF.BoltzmannIntegrator(spec, grid, enable_slow_binary=True)
    rho = np.random.default_rng(seed).random((spec.n_types, grid.size))
    return integ, rho / rho.sum()


def test_table_cases_cover_what_they_name():
    integ, _ = _table_case("one-species-fast-only", 0)
    assert not integ.unary_terms and integ.heat_eff == 0.0 and len(integ.gain_groups) == 1
    integ, _ = _table_case("heat-only", 0)
    assert not integ.binary_terms and integ.heat_eff > 0.0 and len(integ.gain_groups) == 1
    assert integ.conv_pairs == [(0, 2), (1, 2)]
    assert sorted((n, dest, p) for n, dest, p, w in integ.gain_groups[0][1]) == [(0, 0, 0), (0, 1, 1)]
    integ, _ = _table_case("slow-without-fast", 0)
    assert not integ.f_eff.any() and integ.binary_terms
    integ, _ = _table_case("three-species-off-lattice", 0)
    assert len(integ.gain_groups) > 1 and len(integ.unary_terms) == 6


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("name", sorted(_TABLE_CASES))
def test_table_rhs_matches_per_term_reference_on_edge_cases(name, seed):
    integ, rho = _table_case(name, seed)
    ref = _per_term_rhs(integ, rho, _TABLE_CASES[name][0]().rates.bath_beta)
    assert np.max(np.abs(integ.rhs(rho) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", sorted(_TABLE_CASES))
def test_rhs_conserves_mass_on_edge_cases(name):
    # every channel moves mass between nodes and types and never drops it:
    # the unary weights (1 - frac, frac), each split row and each heat row
    # sum to 1, and a pair below its threshold neither gains nor loses.  The
    # bound is rounding: products of up to 2M + 1 terms and the rows'
    # normalization err by at most about 500 eps = 1e-13 of the gross flux,
    # which the total outflow rate times the mass bounds; a wrong table entry
    # moves a whole term's flux
    integ, rho = _table_case(name, 5)
    gross = integ.max_out_rate(rho) * rho.sum()
    assert gross > 0.0
    assert abs(integ.rhs(rho).sum()) <= 1e-12 * gross


def test_rhs_conserves_energy_without_heat_on_the_aligned_grid():
    # the benchmark's reactive model with bath contact off, on its aligned
    # default grid (m = 256, h = 1/8, T_M = 32), at its initial field: every
    # chemical-energy shift is a whole number of rows, so unary changes and
    # pair collisions keep T + K except where an outgoing energy passes T_M
    # and is folded onto it.  That loss is about the collision rate per unit
    # mass (about 15) times E(Y - 32)+ for Y ~ Gamma(3/2, 1) (about 8e-14),
    # so 1.3e-12, plus rounding of order 1e-13; the bound allows about 8 times
    # that.  A gain one row off would move energy h times the flux, order 1
    spec = make_two_state(w12=1.0, w21=0.5, scale_fast=10.0, heat=1.0, scale_heat=0.0)
    spec = spec.with_overrides(rates=RateTable(
        unary=spec.rates.unary, slow_binary=((0.6, 0.3), (0.3, 0.6)),
        fast_binary=((1.0, 0.5), (0.5, 0.8)), heat_rate=1.0, bath_beta=1.0,
        binary_kernel=TypeKernel(kind="table", table=(
            ((1, 1), (((2, 2), 0.5), ((1, 1), 0.5))),
            ((2, 2), (((1, 1), 0.5), ((2, 2), 0.5)))))))
    grid = MF.energy_grid(1.0, spec.chem_energies(), m=256)
    assert grid[1] == 0.125 and grid[-1] == 32.0
    integ = MF.BoltzmannIntegrator(spec, grid, enable_slow_binary=True)
    assert integ.heat_eff == 0.0 and len(integ.gain_groups) == 1
    rho = MF.field_from_spec(spec, grid).values
    rho /= rho.sum()
    energy = grid[None, :] + np.array(spec.chem_energies())[:, None]
    out = integ.rhs(rho)
    assert abs(float((energy * out).sum())) <= 1e-11
    assert abs(out.sum()) <= 1e-12 * integ.max_out_rate(rho)


def test_clipped_mass_is_zero_without_rates():
    spec = make_two_state(w12=0.0, w21=0.0, fast=0.0)
    grid = MF.energy_grid(1.0, (0.0, 1.0), m=64, t_max=12.0)
    traj = MF.integrate_boltzmann(MF.field_from_spec(spec, grid), spec, t_end=1.0,
                                  dt=0.1)
    assert traj.clipped_mass == 0.0


def test_clipped_mass_is_reported_on_the_four_channel_model():
    spec = _reactive_spec()
    grid = MF.energy_grid(1.0, spec.chem_energies(), m=64)
    traj = MF.integrate_boltzmann(MF.field_from_spec(spec, grid), spec, t_end=1.0,
                                  enable_slow_binary=True)
    assert math.isfinite(traj.clipped_mass) and traj.clipped_mass >= 0.0
    assert traj.max_step_drift <= 1e-12


def _max_out_rate_loop(integ, rho):
    # the per-call loop max_out_rate replaced: each type's unary vectors and
    # binary terms summed again on every call, then the largest node
    type_mass = rho.sum(axis=1)
    worst = 0.0
    for j in range(rho.shape[0]):
        r = np.zeros(integ.grid.size)
        for jj, j1, rate, idx, frac in integ.unary_terms:
            if jj == j:
                r += rate
        for jj, jp, j1, j1p, coef, D, s_min in integ.binary_terms:
            if jj == j:
                r += coef * type_mass[jp]
        r += integ.heat_eff
        worst = max(worst, float(r.max()))
    return worst


@pytest.mark.parametrize("slow", (True, False))
def test_max_out_rate_bitwise_equals_per_call_loop(slow):
    spec = _reactive_spec()
    grid = MF.energy_grid(1.0, spec.chem_energies(), m=64)
    integ = MF.BoltzmannIntegrator(spec, grid, enable_slow_binary=slow)
    n_fast = np.count_nonzero(integ.f_eff)
    assert integ.unary_terms and (len(integ.binary_terms) > n_fast) == slow
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = rng.random((2, grid.size)) * rng.exponential(1.0, (2, 1))
        assert integ.max_out_rate(rho) == _max_out_rate_loop(integ, rho)


@pytest.mark.parametrize("t_end, dt, every", [
    (4.0, None, 0.08),      # stable step 0.1, longer than the interval
    (1.7, 0.07, 0.1),       # 17 steps of 0.1 summed to 1.7000000000000002
    (1.0, None, 0.3),
    (2.0, 0.05, 0.5),
    (1.0, 0.12, 0.3),       # snapshots were at 0, 1/3, 2/3 and 1
])
def test_kinetic_equation_snapshots_follow_the_sample_clock(t_end, dt, every):
    # a step longer than the interval used to coarsen the snapshots (41
    # instead of 51 at t = 4, interval 0.08), and a step that does not divide
    # the interval put them at the first step on or after each instant
    spec = load_config(Path(__file__).resolve().parents[1] / "configs" / "two_state.yaml")
    grid = MF.energy_grid(spec.rates.bath_beta, spec.chem_energies(), m=32)
    traj = MF.integrate_boltzmann(MF.field_from_spec(spec, grid), spec, t_end,
                                  dt=dt, sample_every=every)
    assert list(traj.times) == list(sample_times(0.0, t_end, every))
    assert len(traj.fields) == len(traj.times)


@pytest.mark.parametrize("j", [0, -1, 3])
def test_marginal_refuses_a_type_out_of_range(j):
    # values[j - 1] would index from the end for j = 0 or -1
    field = MF.DensityField(np.linspace(0.0, 1.0, 5), np.full((2, 5), 0.1))
    with pytest.raises(ValueError, match="1..2"):
        field.marginal(j)
    assert field.marginal(2).shape == (5,)
