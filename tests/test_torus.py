import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bures_hp, random_state, random_system
from qrecur import (
    FiniteMetricSpace,
    FlatTorus,
    Hamiltonian,
    injectivity_radius,
    make_kernel,
    metric_recurrence_oracle,
    sphere_ball_volume,
    torus_from_state,
    torus_phase_at,
    torus_volume,
    tube_volume,
    validate_density,
    wrap_angles,
)
from qrecur.bounds import sin_power_integral
from qrecur.errors import (
    BadDomain,
    BallEmpty,
    NotIsometry,
    NotMeasurePreserving,
    ZeroPopulation,
)
import qrecur.torus
from qrecur import verify
from qrecur.metrics import bures_from_fidelity
from qrecur.search import Grid, bures_series, default_dt, fidelity_series, scan
from qrecur.torus import torus_distance_series


class TestFlatTorus:
    def test_maximally_mixed_qubit_radii(self):
        t = torus_from_state(validate_density(np.eye(2) / 2.0))
        assert np.allclose(t.radii, [1 / math.sqrt(2.0)] * 2)

    def test_diagonal_radii(self):
        t = torus_from_state(validate_density(np.diag([0.81, 0.19]).astype(complex)))
        assert np.allclose(t.radii, [0.9, math.sqrt(0.19)])

    def test_zero_population_rejected_or_reduced(self):
        rho0 = validate_density(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ZeroPopulation):
            torus_from_state(rho0)

    def test_bad_radii(self):
        with pytest.raises(BadDomain):
            FlatTorus(np.array([1.0, 0.0]))


class TestWrapAngles:
    def test_interval_convention(self):
        w = wrap_angles([0.0, math.pi, -math.pi, 3.5 * math.pi])
        assert w[0] == 0.0
        assert w[1] == math.pi  # pi maps to itself, not -pi
        assert w[2] == math.pi
        assert w[3] == pytest.approx(-0.5 * math.pi)

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(-100.0, 100.0), k=st.integers(-5, 5))
    def test_periodic(self, theta, k):
        a = wrap_angles(theta + 2.0 * math.pi * k)
        b = wrap_angles(theta)
        assert float(a) == pytest.approx(float(b), abs=1e-9)


class TestTorusDistance:
    def test_origin(self):
        t = FlatTorus(np.array([1.0, 2.0]))
        assert torus_distance_series(t, np.zeros((1, 2))).tolist() == [0.0]

    def test_antipodal_qubit(self):
        t = FlatTorus(np.array([1 / math.sqrt(2.0)] * 2))
        assert torus_distance_series(t, np.array([[math.pi, math.pi]]))[0] == pytest.approx(math.pi)

    def test_series_matches_scalar(self):
        # each row against sqrt(sum r_j^2 theta_j^2) in scalar arithmetic,
        # with theta_j reduced to [-pi, pi]
        t = FlatTorus(np.array([0.7, 0.3, 0.5]))
        thetas = np.random.default_rng(0).uniform(-10, 10, size=(20, 3))
        series = torus_distance_series(t, thetas)
        for row, d in zip(thetas, series):
            w = [math.remainder(x, 2.0 * math.pi) for x in row]
            ref = math.sqrt(math.fsum((r * x) ** 2 for r, x in zip(t.radii, w)))
            assert d == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 8, 17, 200])
    def test_scalar_is_a_series_row_bit_for_bit(self, n):
        # a row alone gives its value in the series, so the CSV column
        # does not depend on how the times are chunked
        rng = np.random.default_rng(n)
        t = FlatTorus(rng.uniform(0.05, 1.0, size=n))
        thetas = rng.uniform(-10, 10, size=(10, n))
        series = torus_distance_series(t, thetas)
        assert [float(torus_distance_series(t, row[None])[0]) for row in thetas] == series.tolist()

    @pytest.mark.parametrize(
        "radii, thetas",
        [([1.0], [[0.1, 0.2]]), ([1.0, 2.0], [[0.1, 0.2, 0.3]]), ([1.0, 2.0], [0.1, 0.2])],
        ids=["one-radius-two-angles", "two-radii-three-angles", "a-bare-row"],
    )
    def test_rows_of_the_wrong_shape_are_refused(self, radii, thetas):
        # numpy broadcasting gave 0.2236 for the first and its own ValueError for the second
        with pytest.raises(BadDomain, match="shape"):
            torus_distance_series(FlatTorus(np.array(radii)), np.array(thetas))


class TestTorusPhase:
    def test_t_zero(self):
        H = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        assert np.all(torus_phase_at(H, 1.0, 0.0) == 0.0)

    def test_qubit_half_turn(self):
        H = Hamiltonian(np.array([0.0, 1.0]))
        theta = torus_phase_at(H, 0.5, 2.0 * math.pi)
        # both levels sit at pi after wrapping (-pi maps to pi)
        assert np.allclose(theta, [math.pi, math.pi])
        t = FlatTorus(np.array([1 / math.sqrt(2.0)] * 2))
        assert torus_distance_series(t, theta[None])[0] == pytest.approx(math.pi)

    def test_commensurate_common_period(self):
        H = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        theta = torus_phase_at(H, 0.0, 2.0 * math.pi)
        assert np.allclose(wrap_angles(theta), [0.0, 0.0, 0.0], atol=1e-12)

    def test_vectorized_times(self):
        H = Hamiltonian(np.array([0.0, 1.0]))
        out = torus_phase_at(H, 0.0, np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3, 2)


class TestSubmersionInequality:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 500), t=st.floats(0.0, 30.0))
    def test_bures_below_torus_distance(self, n, seed, t):
        H, rho0 = random_system(n, seed)
        torus = torus_from_state(rho0)
        lam = float(H.energies @ rho0.populations)
        d_torus = torus_distance_series(torus, torus_phase_at(H, lam, np.array([t])))[0]
        kernel = make_kernel(H, rho0)
        times = np.array([t])
        d_bures = bures_series(kernel, times, fidelity_series(kernel, times))[0]
        assert d_bures <= d_torus + 1e-9

    def test_ensemble_takes_the_exact_value_at_t_zero(self):
        # rho(0) = rho0, so the Bures distance there is 0, which the
        # purification form gives to a few eps (7.0e-15 at seed 42)
        res = verify.bracket_ensemble_suite(count=20, seed=42)
        assert res["checked"] > 0 and 0.0 <= res["submersion_excess"] <= 1e-13

    @pytest.mark.parametrize(
        "energies, rho",
        [
            ([0.0, 4.0], np.full((2, 2), 0.5)),
            ([0.0, 1.0, 2.0, 3.0], 0.6 * np.full((4, 4), 0.25) + 0.1 * np.eye(4)),
        ],
        ids=["pure", "mixed"],
    )
    def test_commensurate_flags_are_rechecked_at_40_digits(self, energies, rho):
        # at exact revivals the torus distance is ~1e-15 while sqrt(2 - 2F)
        # puts the Bures distance at ~3e-8; bures_series gives the 40-digit
        # value there, and the check sees no excess
        H, rho0 = Hamiltonian(np.array(energies)), validate_density(rho.astype(complex))
        kernel = make_kernel(H, rho0)
        grid = Grid(0.0, default_dt(H), 4000)
        lam = float(H.energies @ rho0.populations)
        times = grid.times()
        f = fidelity_series(kernel, times)
        tdist = torus_distance_series(torus_from_state(rho0), torus_phase_at(H, lam, times))
        flagged = np.flatnonzero((bures_from_fidelity(f) > tdist + 1e-9) & (times > 0.0))
        assert flagged.size > 0
        exact = bures_series(kernel, times, f)
        # the phases t l_k are rounded by up to eps t max|l_k|, which moves
        # the distance by as much
        phase_eps = np.finfo(float).eps * np.abs(kernel.levels).max()
        for j in flagged:
            hp = bures_hp(rho0.factor, H.energies, H.hbar, times[j])
            assert abs(exact[j] - hp) <= 1e-14 + 2.0 * phase_eps * times[j]
        check = verify._SubmersionCheck(H, kernel)
        for _ in check.watch(scan(kernel, grid), grid):
            pass
        assert check.excess <= 1e-13


BALL_NS = (2, 3, 5, 8, 20)
BALL_RS = (0.1, 0.7, 1.3, 2.0, 2.9)


def _sphere_volume(n: int) -> float:
    """vol(S^n) = 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def _worst_ball_gap(volume) -> float:
    """Largest relative gap of volume(n, r) to vol(S^n) I_{sin^2 r}(n/2, 1/2)/2,
    the regularized incomplete beta at 40 digits, mirrored above pi/2."""
    gaps = []
    with mp.workdps(40):
        for n in BALL_NS:
            sphere = 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)
            for r in BALL_RS:
                u = min(mp.mpf(r), mp.pi - r)
                cap = sphere * mp.betainc(mp.mpf(n) / 2, 0.5, 0, mp.sin(u) ** 2, regularized=True) / 2
                ref = cap if r <= math.pi / 2 else sphere - cap
                gaps.append(float(abs(volume(n, r) - ref) / ref))
    return max(gaps)


class TestVolumes:
    def test_injectivity_radius(self):
        t = torus_from_state(validate_density(np.diag([0.25, 0.75]).astype(complex)))
        assert injectivity_radius(t) == pytest.approx(math.pi / 2.0)

    def test_torus_volume(self):
        assert torus_volume(FlatTorus(np.array([1.0, 1.0]))) == pytest.approx(
            4.0 * math.pi**2
        )
        t = FlatTorus(np.array([1 / math.sqrt(2.0)] * 2))
        assert torus_volume(t) == pytest.approx(2.0 * math.pi**2)

    def test_ball_closed_forms_at_full_radius(self):
        assert sphere_ball_volume(1, math.pi) == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert sphere_ball_volume(2, math.pi) == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert sphere_ball_volume(3, math.pi) == pytest.approx(
            2.0 * math.pi**2, rel=1e-12
        )

    def test_hemisphere_is_half(self):
        assert sphere_ball_volume(3, math.pi / 2.0) == pytest.approx(
            math.pi**2, rel=1e-12
        )

    def test_ball_volume_matches_the_incomplete_beta(self):
        assert _worst_ball_gap(sphere_ball_volume) <= 1e-14  # 2.4e-15 measured

    @pytest.mark.parametrize(
        "planted",
        [
            # the S^2 cap vol(S^n) (1 - cos r)/2, right only for n = 2: in S^3
            # it is exact at the hemisphere r = pi/2 and 32% high at r = 1
            lambda n, r: _sphere_volume(n) * (1.0 - math.cos(r)) / 2.0,
            # sin^n in place of sin^(n-1) under the integral
            lambda n, r: _sphere_volume(n - 1) * sin_power_integral(n, r),
        ],
        ids=["s2-cap", "exponent-plus-one"],
    )
    def test_ball_oracle_fails_a_planted_formula(self, planted):
        assert _worst_ball_gap(planted) > 1e-3

    def test_geometry_suite_fails_the_s2_cap_off_the_hemisphere(self, monkeypatch):
        # vol(S^3) (1 - cos r)/2 passes the Monte Carlo cap at r = pi/2 and
        # fails the one at r = 1, where the suite reports the sample count
        # that puts its 1% tolerance at 5 sigma
        right = verify.geometry_suite(mc_samples=200_000)
        assert right["ok"] and right["cap_r1_ok"] and right["cap_r1_samples"] == 1_190_170
        def s2_cap(n, r):
            return _sphere_volume(n) * (1.0 - math.cos(r)) / 2.0

        monkeypatch.setattr(qrecur.torus, "sphere_ball_volume", s2_cap)
        wrong = verify.geometry_suite(mc_samples=200_000)
        assert abs(wrong["cap_mc"] - wrong["cap_exact"]) <= 0.01 * wrong["cap_exact"]
        assert not wrong["cap_r1_ok"] and not wrong["ok"]
        assert abs(wrong["cap_r1_mc"] - s2_cap(3, 1.0)) > 0.3 * wrong["cap_r1_mc"]

    def test_small_ball_is_euclidean(self):
        # for r -> 0 the geodesic ball approaches the flat ball (4/3) pi r^3
        r = 1e-3
        flat = 4.0 / 3.0 * math.pi * r**3
        assert sphere_ball_volume(3, r) == pytest.approx(flat, rel=1e-4)

    def test_tube_closed_forms(self):
        # n=2: a strip of width 2 theta; n=3: a cylinder of radius theta
        assert tube_volume(2, 0.3, 5.0) == pytest.approx(2.0 * 0.3 * 5.0, rel=1e-12)
        assert tube_volume(3, 0.3, 5.0) == pytest.approx(
            math.pi * 0.3**2 * 5.0, rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(BadDomain):
            sphere_ball_volume(0, 1.0)
        with pytest.raises(BadDomain):
            sphere_ball_volume(2, 4.0)
        with pytest.raises(BadDomain):
            tube_volume(1, 0.1, 1.0)
        with pytest.raises(BadDomain):
            tube_volume(3, -0.1, 1.0)


def cycle_space(m):
    idx = np.arange(m)
    hop = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(hop, m - hop).astype(float)
    return FiniteMetricSpace(
        points=tuple(range(m)), dist=dist, measure=np.ones(m)
    )


class TestFiniteMetricSpace:
    def test_validation_rejects_asymmetry(self):
        with pytest.raises(BadDomain):
            FiniteMetricSpace(
                points=(0, 1),
                dist=np.array([[0.0, 1.0], [2.0, 0.0]]),
                measure=np.ones(2),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validation_rejects_non_finite_distances(self, bad):
        # NaN fails every comparison, so it passed the symmetry, sign and
        # triangle checks; inf - inf is NaN
        with pytest.raises(BadDomain, match="finite"):
            FiniteMetricSpace(
                points=(0, 1), dist=np.array([[0.0, bad], [bad, 0.0]]), measure=np.ones(2)
            )

    def test_validation_rejects_triangle_violation(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(BadDomain):
            FiniteMetricSpace(points=(0, 1, 2), dist=d, measure=np.ones(3))

    @pytest.mark.parametrize("budget", [8 * 40 * 40, 8 * 40 * 40 * 7, 2**30])
    def test_triangle_check_in_slabs(self, monkeypatch, budget):
        # slabs of 1 and 7 middle points, and all 40 at once, agree
        monkeypatch.setattr("qrecur.evolution.CHUNK_BYTES", budget)
        idx = np.arange(40)
        hops = np.abs(idx[:, None] - idx[None, :]).astype(float)
        FiniteMetricSpace(points=tuple(range(40)), dist=hops, measure=np.ones(40))
        bad = hops.copy()
        bad[0, 39] = bad[39, 0] = 39.5  # only k in 1..38 exposes it
        with pytest.raises(BadDomain):
            FiniteMetricSpace(points=tuple(range(40)), dist=bad, measure=np.ones(40))

    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    def test_small_scale_spaces_are_judged_in_their_own_unit(self, scale):
        # 1e-12 absolute admitted each of these at scale 1e-13
        with pytest.raises(BadDomain, match="negative"):
            FiniteMetricSpace(
                points=(0, 1), dist=np.array([[0.0, -5.0], [-5.0, 0.0]]) * scale,
                measure=np.ones(2),
            )
        triangle = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]) * scale
        with pytest.raises(BadDomain, match="triangle"):
            FiniteMetricSpace(points=(0, 1, 2), dist=triangle, measure=np.ones(3))

    def test_from_dict(self):
        s = FiniteMetricSpace.from_dict(
            {"points": [0, 1], "dist": [[0, 1], [1, 0]], "measure": [1, 2]}
        )
        assert s.measure.tolist() == [1.0, 2.0]


class TestMetricOracle:
    def test_identity_map(self):
        s = cycle_space(5)
        res = metric_recurrence_oracle(s, list(range(5)), 0, 1.0)
        assert res.n_rec == 1 and res.ok

    def test_six_cycle_rotation(self):
        s = cycle_space(6)
        perm = np.roll(np.arange(6), -1)  # rotation by one step
        res = metric_recurrence_oracle(s, perm, 0, 2.0)
        # open ball of radius 1 is just the point itself: bound = 6
        assert res.bound == pytest.approx(6.0)
        assert res.n_rec == 1  # one step moves distance 1 <= r = 2
        assert res.ok

    def test_eight_cycle_rotation_by_three(self):
        s = cycle_space(8)
        perm = np.roll(np.arange(8), -3)
        res = metric_recurrence_oracle(s, perm, 0, 1.0)
        # orbit distances from 0: 3, 2 (6 steps), 1 (3*3=9 = 1 mod 8)
        assert res.n_rec == 3
        assert res.ok and res.n_rec <= res.bound

    def test_non_isometry_rejected(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        s = FiniteMetricSpace(points=(0, 1, 2), dist=d, measure=np.ones(3))
        with pytest.raises(NotIsometry):
            metric_recurrence_oracle(s, [1, 0, 2], 0, 1.0)

    def test_non_measure_preserving_rejected(self):
        s = FiniteMetricSpace(
            points=(0, 1),
            dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
            measure=np.array([1.0, 2.0]),
        )
        with pytest.raises(NotMeasurePreserving):
            metric_recurrence_oracle(s, [1, 0], 0, 3.0)

    def test_ball_empty(self):
        # measure concentrated away: impossible here since own point is in the
        # ball unless... the open ball always contains p (d=0 < r/2), so an
        # empty ball needs r <= 0 handled separately; check the guard instead
        s = cycle_space(4)
        with pytest.raises(BadDomain):
            metric_recurrence_oracle(s, [1, 2, 3, 0], 0, 0.0)

    @pytest.mark.parametrize("p", [5, -1])
    def test_point_outside_the_space(self, p):
        # -1 would index the last point and 5 run off the distance matrix
        with pytest.raises(BadDomain, match="0..4"):
            metric_recurrence_oracle(cycle_space(5), [1, 2, 3, 4, 0], p, 1.0)

    @pytest.mark.parametrize(
        "perm", [[1.7, 0.2], [True, False], [True, 0], np.array([1.0, 0.0]), np.array([True, False])]
    )
    def test_non_integer_permutation_rejected(self, perm):
        with pytest.raises(BadDomain, match="integers"):
            metric_recurrence_oracle(cycle_space(2), perm, 0, 1.0)

    def test_weights_whose_ratio_overflows(self):
        # mu(M) / mu(B) = 1e300 / 1e-10 is inf; the walk is bounded by the orbit
        s = FiniteMetricSpace(
            points=(0, 1),
            dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
            measure=np.array([1e300, 1e-10]),
        )
        assert metric_recurrence_oracle(s, [0, 1], 1, 0.5) == (1, math.inf, True)

    def test_integral_ratio_that_float_sums_round_low(self):
        # mu(M) / mu(B) = 3 exactly, but the float sum of the three weights
        # over one of them gives 2.9999999999999996, and k = 3 failed it
        w = 503.26000805300043
        s = FiniteMetricSpace(points=(0, 1, 2), dist=1.0 - np.eye(3), measure=np.full(3, w))
        assert float(s.measure.sum()) / w < 3.0
        assert metric_recurrence_oracle(s, [1, 2, 0], 0, 0.5) == (3, 3.0, True)

    def test_orbit_that_never_comes_within_r(self):
        # d[0, 0] = 5e-13 is within the round-off allowance, 1e-12 of the
        # largest distance 1, but exceeds r; point 1 fills the ball
        d = np.array([[5e-13, 0.0, 1.0], [0.0, 5e-13, 1.0], [1.0, 1.0, 5e-13]])
        s = FiniteMetricSpace(points=(0, 1, 2), dist=d, measure=np.ones(3))
        assert metric_recurrence_oracle(s, [0, 1, 2], 0, 1e-13) == (4, 3.0, False)

    @pytest.mark.parametrize("scale", [1.0, 1e-20])
    def test_measure_is_compared_weight_by_weight(self, scale):
        # a swap of (1e-20, 2e-20) differs by 1e-20, under 1e-12 absolute
        s = FiniteMetricSpace(
            points=(0, 1), dist=1.0 - np.eye(2), measure=np.array([1.0, 2.0]) * scale
        )
        with pytest.raises(NotMeasurePreserving):
            metric_recurrence_oracle(s, [1, 0], 0, 0.5)

    def test_isometry_is_judged_in_the_unit_of_the_distances(self):
        # the swap moves d[0, 2] = 1e-13 to d[1, 2] = 2e-13
        d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]) * 1e-13
        s = FiniteMetricSpace(points=(0, 1, 2), dist=d, measure=np.ones(3))
        with pytest.raises(NotIsometry):
            metric_recurrence_oracle(s, [1, 0, 2], 0, 1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        r=st.floats(0.1, 13.0),
    )
    def test_random_permutations_match_a_brute_force_walk(self, m, seed, r):
        # each cycle of the permutation is a circle of unit steps, 6 away
        # from every other cycle, and carries one weight from 1e-10 to 1e300,
        # so that mu(M) / mu(B) overflows to inf in some draws
        rng = np.random.default_rng(seed)
        perm = rng.permutation(m)
        cycle, position, length = np.zeros(m, int), np.zeros(m, int), np.zeros(m, int)
        seen = set()
        for start in range(m):
            if start in seen:
                continue
            orbit = [start]
            while perm[orbit[-1]] != start:
                orbit.append(int(perm[orbit[-1]]))
            for k, i in enumerate(orbit):
                cycle[i], position[i], length[i] = start, k, len(orbit)
            seen.update(orbit)
        gap = np.abs(position[:, None] - position[None, :])
        dist = np.where(
            cycle[:, None] == cycle[None, :], np.minimum(gap, length[:, None] - gap), 6
        ).astype(float)
        weight = 10.0 ** rng.choice([-10.0, -3.0, 0.0, 7.0, 150.0, 300.0], size=m)
        s = FiniteMetricSpace(points=tuple(range(m)), dist=dist, measure=weight[cycle])
        p = int(rng.integers(m))
        P = np.eye(m, dtype=int)[perm]  # P @ e_i = e_perm^-1(i); P.T maps i to perm[i]
        expected = next(
            k for k in range(1, m + 1)
            if dist[p, np.linalg.matrix_power(P.T, k)[:, p].argmax()] <= r
        )
        res = metric_recurrence_oracle(s, perm, p, r)
        assert res.n_rec == expected
        # exact sums: the ceiling holds, and so it does for the rounded ratio
        assert res.ok and res.n_rec <= res.bound

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(3, 12), shift=st.integers(1, 11), r=st.floats(0.5, 3.0))
    def test_cycle_rotations_respect_bound(self, m, shift, r):
        s = cycle_space(m)
        perm = np.roll(np.arange(m), -(shift % m))
        res = metric_recurrence_oracle(s, perm, 0, r)
        assert res.ok


def test_ball_empty_error_exists():
    assert issubclass(BallEmpty, Exception)
