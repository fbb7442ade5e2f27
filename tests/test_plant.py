"""Arm dynamics, constant estimation, and design-parameter selection."""

import dataclasses

import numpy as np
import pytest

from _oracles import (
    rk4_step_reference,
    rk4_step_stage_loop,
    sample_safe_positions,
    scan_grid_pointwise,
    two_link_arm_reference,
)
from polysafe import plant as plant_module
from polysafe.cbf import build, velocity_bound
from polysafe.errors import NonFinite, ParameterViolation, PolysafeError, ValidationError
from polysafe.plant import (
    ArmParams,
    PlantModel,
    SineReference,
    coriolis_matrix,
    double_integrator,
    estimate_constants,
    mass_matrix,
    nominal_tracking,
    potential_vector,
    select_gamma,
    two_link_arm,
)
from polysafe.polytope import (
    HalfSpace,
    SafetySpec,
    compute_cert,
    hexagon_spec,
    position_bounding_box,
    slab_spec,
)
from polysafe.qp import QpWeights, SafeguardAssembler
from polysafe.sim import rk4_step


def _energy(params, x):
    theta, thetad = x[:2], x[2:]
    return 0.5 * thetad @ mass_matrix(params, theta) @ thetad


# --- model structure ----------------------------------------------------------

def test_coefficient_snapshot(arm_params):
    c = arm_params.coefficients
    assert c == {"c11": 3.0, "c12": 2.0, "c13": 1.0, "c14": 1.0, "c15": 2.0,
                 "c16": 1.0, "c21": 1.0, "c22": 1.0, "c23": 1.0, "c24": -1.0,
                 "c25": 0.0}


def test_gravity_toggle_sets_potential_coefficient():
    c = ArmParams(gravity=True).coefficients
    assert c["c25"] == pytest.approx(-9.8)
    assert potential_vector(ArmParams(gravity=True), np.zeros(2))[1] == \
        pytest.approx(-9.8)


def test_params_validation():
    # m2 = 1e308 makes every coefficient but c25 inf; l1 ** 2 raises OverflowError
    for kwargs, message in (({"m1": 0.0}, "positive and finite"),
                            ({"m2": 1e308, "l2": 10.0}, "overflow"),
                            ({"l1": 1e200}, "overflow")):
        with pytest.raises(ValueError, match=message) as info:
            ArmParams(**kwargs)
        assert info.type is ValueError, kwargs


def test_mass_matrix_spd_and_inverse_consistency(arm, arm_params, hexagon):
    X1 = sample_safe_positions(hexagon, 200, seed=21)
    for theta in X1:
        M = mass_matrix(arm_params, theta)
        assert np.abs(M - M.T).max() <= 1e-12
        assert np.linalg.eigvalsh(M).min() > 0
        assert np.abs(M @ arm.G2(theta) - np.eye(2)).max() <= 1e-10


def test_force_split_sums_to_f2(arm):
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(50):
        x1 = rng.uniform(-1.5, 1.5, 2)
        x2 = rng.uniform(-3.0, 3.0, 2)
        np.testing.assert_allclose(
            arm.f2(x1, x2), arm.f2_potential(x1) + arm.f2_velocity(x1, x2),
            atol=1e-12)


def test_free_swing_conserves_energy(arm_params, arm):
    x = np.array([0.3, -0.4, 1.0, -2.0])
    e0 = _energy(arm_params, x)
    for _ in range(2000):
        x = rk4_step(arm, np.zeros(2), x, 1e-3)
    assert abs(_energy(arm_params, x) - e0) <= 1e-8


def test_double_integrator_shapes():
    plant = double_integrator(3)
    assert plant.n == plant.m == 3
    np.testing.assert_allclose(plant.f2(np.ones(3), np.ones(3)), np.zeros(3))
    np.testing.assert_allclose(plant.G2(np.ones(3)), np.eye(3))
    assert plant.has_split


def test_small_arm_inertia_is_not_singular():
    # det M is 1.2e-16 here, but M is well conditioned (about 25)
    params = ArmParams(m1=1e-4, m2=1e-4, l1=0.01, l2=0.01)
    theta = np.array([0.1, 0.5])
    M = mass_matrix(params, theta)
    assert np.linalg.cond(M) < 30
    np.testing.assert_allclose(M @ two_link_arm(params).G2(theta), np.eye(2),
                               rtol=0, atol=1e-12)


def test_nearly_massless_first_link_inertia_is_singular():
    # at theta2 = 0, det M / (m11 m22) is about 2.5e-15, below the 1e-12 floor
    G2 = two_link_arm(ArmParams(m1=1e-14)).G2
    with pytest.raises(PolysafeError, match="inertia matrix singular at theta2=0") as info:
        G2(np.array([0.3, 0.0]))
    assert info.type is PolysafeError


def test_underflowing_inertia_is_singular():
    # l2 = 1e-200 makes m2 l2^2 and det M exactly 0; the floor 1e-12 m11 m22
    # is 0 too, and 0 < 0 once let G2 divide by zero
    G2 = two_link_arm(ArmParams(l2=1e-200)).G2
    with pytest.raises(PolysafeError, match="inertia matrix singular at theta2=0") as info:
        G2(np.array([0.3, 0.0]))
    assert info.type is PolysafeError


# --- one plant call per RK4 stage, against the f2 + G2 @ u oracle --------------

def _random_states(seed, n=2, count=300):
    """Positions in [-2, 2] rad, speeds up to 60 rad/s (the gamma = 10 loop's
    velocity bound is 62.7) and inputs up to 100."""
    rng = np.random.Generator(np.random.Philox(seed))
    return (rng.uniform(-2.0, 2.0, (count, n)), rng.uniform(-60.0, 60.0, (count, n)),
            rng.uniform(-100.0, 100.0, (count, n)))


def _custom_plant():
    """A 2-D plant without accel: state-dependent drift and input gain."""
    return PlantModel(n=2, m=2,
                      f2=lambda x1, x2: np.array([np.sin(x1[0]) * x2[1], -x2[0] * x2[1]]),
                      G2=lambda x1: np.array([[2.0 + np.cos(x1[1]), 0.3], [x1[0], 1.5]]))


_EVERY_PLANT = pytest.mark.parametrize("plant", [
    two_link_arm(ArmParams()), two_link_arm(ArmParams(gravity=True)),
    double_integrator(1), double_integrator(2), double_integrator(3), _custom_plant(),
], ids=["arm", "gravity_arm", "di1", "di2", "di3", "custom"])


@pytest.mark.parametrize("gravity", [False, True])
def test_arm_accel_is_f2_plus_G2u(gravity):
    arm = two_link_arm(ArmParams(gravity=gravity))
    for x1, x2, u in zip(*_random_states(41)):
        f2, G2u = arm.f2(x1, x2), arm.G2(x1) @ u
        got = arm.accel(x1.tolist(), x2.tolist(), u.tolist())
        assert np.abs(got - (f2 + G2u)).max() <= 1e-13 * np.abs([f2, G2u]).max()


@_EVERY_PLANT
def test_rk4_step_matches_reference(plant):
    # a plant without accel gets the reference's arithmetic: equal bits
    tol = 1e-13 if plant.accel is not None else 0.0
    for x1, x2, u in zip(*_random_states(43, plant.n)):
        x = np.concatenate([x1, x2])
        ref = rk4_step_reference(plant, u, x, 1e-3)
        np.testing.assert_allclose(rk4_step(plant, u, x, 1e-3), ref,
                                   rtol=tol, atol=tol * np.abs(ref).max())


@_EVERY_PLANT
@pytest.mark.parametrize("dt", [1e-3, 0.05])
def test_rk4_step_equals_the_stage_loop(plant, dt):
    # the two-joint straight-line stages make the loop's operations in its
    # order: equal bits at n = 2, with or without accel; other n run the loop
    for x1, x2, u in zip(*_random_states(47, plant.n)):
        x = np.concatenate([x1, x2])
        np.testing.assert_array_equal(rk4_step(plant, u, x, dt),
                                      rk4_step_stage_loop(plant, u, x, dt))


@_EVERY_PLANT
@pytest.mark.parametrize("dt", [1e-3, 0.05])
def test_held_rate_is_the_secant_of_the_held_step(plant, dt):
    # the model d + S @ u reproduces the held step at u_lin to round-off.
    # The double integrators (here the plants with a split and no accel)
    # step affinely in u, so S is their sensitivity [dt/2 I; I] up to the
    # secant's round-off, an ulp of |x+| over eps dt >= 1e-6.  At the
    # default period S is dPhi/du / dt for every plant: a central difference
    # of the step agrees to 1e-6 (the dt^2 series missed by up to 8e-3)
    spec = _box_spec(plant.n)
    cbf = build(spec, compute_cert(spec, overrides=np.zeros(plant.n)), 10.0, 0.1)
    asm = SafeguardAssembler(cbf, plant, QpWeights(c_alpha=1.0), dt=dt)
    exact = np.vstack([0.5 * dt * np.eye(plant.n), np.eye(plant.n)])
    for x1, x2, u in zip(*_random_states(53, plant.n)):
        x = np.concatenate([x1, x2])
        d, S = asm._held_rate(x, u)
        rate, Su = (rk4_step(plant, u, x, dt) - x) / dt, S @ u
        np.testing.assert_allclose(d + Su, rate, rtol=0,
                                   atol=1e-14 * max(np.abs(rate).max(), np.abs(Su).max()))
        if plant.has_split and plant.accel is None:
            np.testing.assert_allclose(S, exact, rtol=0, atol=1e-9 * np.abs(x).max())
        if dt == 1e-3:
            h = 1e-2 * max(1.0, np.abs(u).max())
            central = np.column_stack([rk4_step(plant, u + h * e, x, dt)
                                       - rk4_step(plant, u - h * e, x, dt)
                                       for e in np.eye(plant.m)]) / (2 * h * dt)
            np.testing.assert_allclose(S, central, rtol=0,
                                       atol=1e-6 * np.abs(central).max())


def test_rk4_stage_overflow_raises_non_finite():
    # m2 = 1e-320 overflows the inverse inertia: a later stage's angle reads
    # inf, where the arm's math.sin raises ValueError
    arm = two_link_arm(ArmParams(m2=1e-320))
    with pytest.raises(NonFinite, match="RK4 stage"):
        rk4_step(arm, np.ones(2), np.zeros(4), 1e-3)


def test_rk4_step_repeats_a_plant_error_at_finite_stages():
    def accel(x1, x2, u):
        raise ValueError("refused by the plant")

    plant = dataclasses.replace(double_integrator(2), accel=accel)
    with pytest.raises(ValueError, match="refused by the plant"):
        rk4_step(plant, np.ones(2), np.zeros(4), 1e-3)


def test_replaced_dynamics_are_integrated():
    # a derived accel reads the copy's f2 and G2; a plant's own accel is kept
    custom = _custom_plant()
    damped = dataclasses.replace(custom, f2=lambda x1, x2: -x2)
    x, u = np.array([0.2, -0.1, 3.0, 1.0]), np.array([1.0, -2.0])
    np.testing.assert_array_equal(rk4_step(damped, u, x, 1e-2),
                                  rk4_step_reference(damped, u, x, 1e-2))
    assert np.abs(rk4_step(damped, u, x, 1e-2) - rk4_step(custom, u, x, 1e-2)).max() > 1e-3
    arm = two_link_arm(ArmParams())
    assert dataclasses.replace(arm, f2=custom.f2).accel is arm.accel


# --- nominal tracking controller ----------------------------------------------

def test_reference_derivatives_consistent():
    ref = SineReference()
    for t in (0.0, 0.3, 1.7):
        dt = 1e-6
        fd = (ref.r(t + dt) - ref.r(t - dt)) / (2 * dt)
        np.testing.assert_allclose(ref.rd(t), fd, atol=1e-6)
        fd2 = (ref.rd(t + dt) - ref.rd(t - dt)) / (2 * dt)
        np.testing.assert_allclose(ref.rdd(t), fd2, atol=1e-6)


def test_tracking_law_linearizes_error_dynamics(arm, arm_params, arm_nominal):
    # closed-loop acceleration must equal rdd - ed - e at any state
    ref = SineReference()
    rng = np.random.Generator(np.random.Philox(8))
    for _ in range(30):
        t = float(rng.uniform(0, 10))
        x = rng.uniform(-1.0, 1.0, 4)
        u = arm_nominal(t, x)
        acc = arm.f2(x[:2], x[2:]) + arm.G2(x[:2]) @ u
        e = x[:2] - ref.r(t)
        ed = x[2:] - ref.rd(t)
        np.testing.assert_allclose(acc, ref.rdd(t) - ed - e, atol=1e-9)


def test_tracking_error_envelope(arm, arm_nominal):
    # start at rest on the reference start point, so e(0) = 0 and
    # ed(0) = -rd(0).  The law imposes edd + ed + e = 0, whose solution is
    #   e*(t) = -rd(0) (2/sqrt(3)) exp(-t/2) sin(sqrt(3) t/2),
    # peaking at |rd(0)| exp(-pi/(3 sqrt(3))) = 3.84 rad at t = 1.21 s.
    # The sampled loop holds the input over each step, so it departs from
    # e* at first order in dt: max |e - e*| is 2.8e-2 rad at dt = 1e-3 and
    # 1.4e-2 at dt = 5e-4.  A 0.05 rad bound covers that and still fails a
    # gain off by 20% (0.37 rad) or a dropped Coriolis cancellation (14 rad).
    ref = SineReference()
    x = np.concatenate([ref.r(0.0), np.zeros(2)])
    v0 = -ref.rd(0.0)
    worst = 0.0
    for k in range(10000):
        t = k * 1e-3
        x = rk4_step(arm, arm_nominal(t, x), x, 1e-3)
        s = t + 1e-3
        e_star = v0 * (2 / np.sqrt(3)) * np.exp(-s / 2) * np.sin(np.sqrt(3) * s / 2)
        worst = max(worst, float(np.linalg.norm(x[:2] - ref.r(s) - e_star)))
    assert worst <= 0.05


_ARM_CALLS = (("G2", 1), ("f2", 2), ("f2_velocity", 2), ("f2_potential", 1),
              ("accel", 3))


@pytest.mark.parametrize("gravity", [False, True])
def test_arm_callables_equal_the_reference_bit_for_bit(gravity):
    # signbit too: with c25 = 0 the potential force is a signed zero
    params = ArmParams(gravity=gravity)
    arm, ref = two_link_arm(params), two_link_arm_reference(params)
    for x1, x2, u in zip(*_random_states(59, count=2000)):
        for args in ((x1, x2, u), (x1.tolist(), x2.tolist(), u.tolist())):
            for name, k in _ARM_CALLS:
                got = np.asarray(getattr(arm, name)(*args[:k]))
                want = np.asarray(getattr(ref, name)(*args[:k]))
                assert np.array_equal(got, want), (name, args)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (name, args)


def test_arm_callables_raise_the_reference_error_first():
    # a singular inertia at theta2 = 0 and cos(theta1 + theta2) of inf: the
    # callables that read the potential before the inverse raise ValueError
    params = ArmParams(m1=1e-14)
    arm, ref = two_link_arm(params), two_link_arm_reference(params)
    args = (np.array([np.inf, 0.0]), np.array([0.5, -0.5]), np.array([1.0, 2.0]))
    first = {"G2": PolysafeError, "f2": ValueError, "f2_velocity": PolysafeError,
             "f2_potential": ValueError, "accel": PolysafeError}
    for name, k in _ARM_CALLS:
        with pytest.raises(first[name]) as want:
            getattr(ref, name)(*args[:k])
        with pytest.raises(first[name]) as got:
            getattr(arm, name)(*args[:k])
        assert (got.type, str(got.value)) == (want.type, str(want.value)), name


# --- constant estimation ------------------------------------------------------

def test_constants_no_gravity(arm, hexagon):
    c = estimate_constants(arm, hexagon, resolution=40)
    assert c.k1 == 0.0
    assert c.kG > 0
    assert c.k2 > 0


def test_constants_require_split(hexagon):
    from polysafe.plant import PlantModel

    bare = PlantModel(n=2, m=2, f2=lambda a, b: np.zeros(2),
                      G2=lambda a: np.eye(2))
    with pytest.raises(PolysafeError,
                       match="plant lacks the potential/velocity decomposition") as info:
        estimate_constants(bare, hexagon)
    assert info.type is PolysafeError


def test_constants_converge_with_resolution(hexagon, gravity_constants):
    arm = two_link_arm(ArmParams(gravity=True))
    coarse = estimate_constants(arm, hexagon, resolution=40)
    for name in ("k1", "kG", "k2"):
        a, b = getattr(coarse, name), getattr(gravity_constants, name)
        assert a == pytest.approx(b, rel=0.05)


def test_velocity_force_bound_holds(hexagon, gravity_constants):
    # the certified linear bound on the velocity force, on its stated cap
    arm = two_link_arm(ArmParams(gravity=True))
    rng = np.random.Generator(np.random.Philox(31))
    X1 = sample_safe_positions(hexagon, 10000, seed=31)
    for x1 in X1:
        v = rng.normal(size=2)
        x2 = v / np.linalg.norm(v) * rng.uniform(0, plant_module._V_CAP)
        lhs = np.linalg.norm(arm.f2_velocity(x1, x2))
        assert lhs <= gravity_constants.k2 * np.linalg.norm(x2) + 1e-9


def test_gravity_constants_pinned(gravity_constants):
    # the resolution-200 values of the pointwise scan, kept bit for bit
    expected = (52.77461510991814, 5.828427124746196, 2.7101659041444583)
    got = (gravity_constants.k1, gravity_constants.kG, gravity_constants.k2)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("resolution", [-5, 0, 1, 2])
def test_constants_empty_grid_names_resolution(arm, hexagon, resolution):
    # the hexagon holds none of its bounding box's corners
    with pytest.raises(ValidationError, match=f"resolution-{resolution}"):
        estimate_constants(arm, hexagon, resolution=resolution)


@pytest.mark.parametrize("spec", [slab_spec(), hexagon_spec()],
                         ids=["slab", "hexagon"])
def test_constants_reject_non_quadratic_velocity_force(spec):
    # linear damping is odd in x2: no quadratic form matches its probes
    n = spec.n
    damped = PlantModel(n=n, m=n, f2=lambda x1, x2: -x2, G2=lambda x1: np.eye(n),
                        f2_potential=lambda x1: np.zeros(n),
                        f2_velocity=lambda x1, x2: -x2)
    with pytest.raises(PolysafeError,
                       match="f2_velocity is not a quadratic form in x2") as info:
        estimate_constants(damped, spec, resolution=10)
    assert info.type is PolysafeError


# --- block scan against the pointwise oracle ----------------------------------

def _box_spec(n):
    """The box |x_j| <= 1 in n dimensions."""
    hs = tuple(HalfSpace(s * np.eye(n)[j], 1.0) for j in range(n) for s in (1.0, -1.0))
    return SafetySpec(halfspaces=hs, terms=(tuple(range(2 * n)),), n=n)


def _quadratic_plant_3d():
    """A 3-D plant whose velocity force mixes every pair of components."""
    def f2_velocity(x1, x2):
        return np.array([x2[1] * x2[2] + x1[0] * x2[0] ** 2,
                         (1.0 + x1[1]) * x2[0] * x2[2] - x2[1] ** 2,
                         x2[0] * x2[1] + x1[2] * x2[2] ** 2])

    def f2_potential(x1):
        return np.array([x1[0] * x1[1], 0.0, -x1[2]])

    return PlantModel(n=3, m=3,
                      f2=lambda x1, x2: f2_potential(x1) + f2_velocity(x1, x2),
                      G2=lambda x1: np.diag(2.0 + x1), f2_potential=f2_potential,
                      f2_velocity=f2_velocity)


def _rank_deficient_plant_2d():
    """A 2-D plant whose G2 = diag(1, x1[0] + 1e-17) has its least singular
    value below pinv's 1e-15 relative cutoff where x1[0] = 0."""
    zero = np.zeros(2)
    return PlantModel(n=2, m=2, f2=lambda x1, x2: zero,
                      G2=lambda x1: np.diag([1.0, x1[0] + 1e-17]),
                      f2_potential=lambda x1: zero, f2_velocity=lambda x1, x2: zero)


def _peaked_plant_1d(center):
    """A 1-D plant whose velocity gain peaks at x1 = center."""
    gain = lambda x1: 1.0 - (x1[0] - center) ** 2
    return PlantModel(n=1, m=1, f2=lambda x1, x2: gain(x1) * x2 ** 2,
                      G2=lambda x1: np.eye(1), f2_potential=lambda x1: np.zeros(1),
                      f2_velocity=lambda x1, x2: gain(x1) * x2 ** 2)


def _polish_starts(monkeypatch, plant, spec, resolution):
    """(f(x0), x0) of every polish, in order: the k1 point, the kG point and
    the three k2 candidates z = (x1, direction)."""
    starts = []
    polish = plant_module._pattern_polish

    def record(f, x0, step, **kwargs):
        starts.append((f(x0), x0.copy()))
        return polish(f, x0, step, **kwargs)

    monkeypatch.setattr(plant_module, "_pattern_polish", record)
    estimate_constants(plant, spec, resolution=resolution)
    return starts


def _oracle_picks(plant, spec, resolution):
    lo, hi = position_bounding_box(spec)
    grid = plant_module._position_grid(spec, lo, hi, resolution)
    dirs = plant_module._unit_directions(plant.n, 32)
    return grid, scan_grid_pointwise(plant, grid, dirs, 1.0)


@pytest.mark.parametrize("case", ["gravity_arm", "arm", "slab", "di_3d",
                                  "quadratic_3d", "rank_deficient_2d"])
def test_block_scan_matches_pointwise_scan(monkeypatch, case):
    plant, spec, resolution = {
        "gravity_arm": (two_link_arm(ArmParams(gravity=True)), hexagon_spec(), 40),
        "arm": (two_link_arm(ArmParams()), hexagon_spec(), 40),
        # every k2 value is 0: the earliest candidates must win the ties
        "slab": (double_integrator(1), slab_spec(), 50),
        "di_3d": (double_integrator(3), _box_spec(3), 6),
        "quadratic_3d": (_quadratic_plant_3d(), _box_spec(3), 6),
        # the odd resolution puts x1[0] = 0 on the grid
        "rank_deficient_2d": (_rank_deficient_plant_2d(), _box_spec(2), 7),
    }[case]
    _, (x1_k1, x1_kG, top) = _oracle_picks(plant, spec, resolution)
    starts = _polish_starts(monkeypatch, plant, spec, resolution)
    assert len(starts) == 2 + len(top) == 5
    np.testing.assert_array_equal(starts[0][1], x1_k1)
    np.testing.assert_array_equal(starts[1][1], x1_kG)
    for (value, z), (want, z_want) in zip(starts[2:], top):
        np.testing.assert_array_equal(z, z_want)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_block_scan_top_three_across_a_block_boundary(monkeypatch):
    # the k2 gain peaks halfway between the last point of the first block
    # and the first of the second, so the top three straddle the boundary
    spec, resolution = slab_spec(), 2 * plant_module._BLOCK + 7
    lo, hi = position_bounding_box(spec)
    grid = plant_module._position_grid(spec, lo, hi, resolution)
    edge = plant_module._BLOCK
    plant = _peaked_plant_1d(0.5 * (grid[edge - 1, 0] + grid[edge, 0]))
    _, (_, _, top) = _oracle_picks(plant, spec, resolution)
    rows = {int(np.flatnonzero(grid[:, 0] == z[0])[0]) for _, z in top}
    assert rows == {edge - 1, edge}
    starts = _polish_starts(monkeypatch, plant, spec, resolution)
    for (value, z), (want, z_want) in zip(starts[2:], top):
        np.testing.assert_array_equal(z, z_want)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)


# --- design-parameter selection -----------------------------------------------

def test_select_gamma_insufficient_actuation(hexagon, hexagon_cert,
                                             gravity_constants):
    d = gravity_constants.kG * gravity_constants.k1
    with pytest.raises(ParameterViolation, match=r"d = \S+ <= kG\*k1 = ") as info:
        select_gamma(gravity_constants, d, hexagon, hexagon_cert)
    assert info.type is ParameterViolation


@pytest.mark.parametrize("d", [np.nan, np.inf, -np.inf])
def test_select_gamma_refuses_a_non_finite_d(hexagon, hexagon_cert,
                                             gravity_constants, d):
    with pytest.raises(ParameterViolation, match=r"d = \S+ is not finite") as info:
        select_gamma(gravity_constants, d, hexagon, hexagon_cert)
    assert info.type is ParameterViolation


def test_select_gamma_satisfies_condition(hexagon, hexagon_cert,
                                          gravity_constants):
    c0 = gravity_constants
    d = c0.kG * c0.k1 + 10.0
    gamma, eps = select_gamma(c0, d, hexagon, hexagon_cert)
    assert gamma > 0
    assert eps == pytest.approx(gamma * hexagon_cert.delta / 2)
    c = velocity_bound(build(hexagon, hexagon_cert, gamma, eps)).c
    lhs = gamma * (c0.k2 + gamma) * c0.kG * c
    assert lhs < 0.5 * (d - c0.k1 * c0.kG)


def test_select_gamma_pinned(hexagon, hexagon_cert, gravity_constants):
    # the bits select_gamma returned while it read c from a barrier built at
    # gamma = 1, epsilon = delta / 2: the spec's velocity extents give the same
    d = gravity_constants.kG * gravity_constants.k1 + 10.0
    gamma, eps = select_gamma(gravity_constants, d, hexagon, hexagon_cert)
    assert (gamma.hex(), eps.hex()) == ("0x1.28352d99ee6aap-5", "0x1.d14831c8d2b56p-6")


def test_select_gamma_slab_closed_form():
    # double integrator on the unit slab: k1 = k2 = 0, kG = 1,
    # c = 2 - eps/gamma = 1.5, so gamma^2 * 1.5 = 0.45 d
    spec = slab_spec()
    cert = compute_cert(spec, overrides=np.zeros(1))
    plant = double_integrator(1)
    constants = estimate_constants(plant, spec, resolution=50)
    for d in (1.0, 4.0, 20.0):
        gamma, _ = select_gamma(constants, d, spec, cert)
        assert gamma == pytest.approx(np.sqrt(0.3 * d), abs=1e-6)
