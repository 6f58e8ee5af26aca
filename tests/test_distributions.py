"""Brackets and derived flags against hand-derived closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import distributions
from nonholo.distributions import (
    Distribution,
    VectorField,
    car_fields,
    car_trailer_fields,
    car_turn_park,
    cartan_distribution,
    cartan_form_residuals,
    derived_flag,
    field_jet,
    forgetful_projection_check,
    goursat_normal_form,
    jet_bracket,
    lie_bracket,
    trailer_fields,
    unicycle_fields,
)
from nonholo.errors import DimensionMismatch, JetTableTooLarge, SteeringOutOfRange
from nonholo.numkit import jets, numerical_rank


def rand_points(rng, dim, count, scale=0.8):
    return rng.uniform(-scale, scale, size=(count, dim))


# ---------------------------------------------------------------------------
# brackets


def test_bracket_of_linear_fields_matches_matrix_commutator():
    # For V = Ax, W = Bx the bracket is (BA - AB)x.
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    V = VectorField(3, lambda q: list(A @ np.asarray(q, dtype=object)), "V")
    W = VectorField(3, lambda q: list(B @ np.asarray(q, dtype=object)), "W")
    C = B @ A - A @ B
    br = lie_bracket(V, W)
    for q in rand_points(rng, 3, 10):
        assert np.allclose(br.at(q), C @ q, atol=1e-12)


def test_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(5)
    dist = car_fields(1.0)
    V, W = dist.generators
    U = lie_bracket(V, W)
    VW = lie_bracket(V, W)
    WV = lie_bracket(W, V)
    jac1 = lie_bracket(U, lie_bracket(V, W))  # [[V,W],[V,W]] = 0
    for q in rand_points(rng, 4, 5, scale=0.6):
        assert np.allclose(VW.at(q), -WV.at(q), atol=1e-12)
        assert np.allclose(jac1.at(q), 0.0, atol=1e-10)


def test_bracket_dimension_mismatch():
    V = VectorField(2, lambda q: [1.0, 0.0])
    W = VectorField(3, lambda q: [1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        lie_bracket(V, W)


def test_car_turn_and_park_closed_forms():
    # [DERIVED] turn = [steer, drive] and park = [drive, turn], by hand:
    # only the theta-column of d(drive) is nonzero in those directions.
    rng = np.random.default_rng(11)
    for l in (1.0, 1.7):
        steer, drive = car_fields(l).generators
        turn, park = car_turn_park(l)
        b1 = lie_bracket(steer, drive)
        b2 = lie_bracket(drive, b1)
        for q in rand_points(rng, 4, 25):
            q[3] *= 0.9  # stay inside the steering chart
            assert np.max(np.abs(b1.at(q) - turn.at(q))) < 1e-10
            assert np.max(np.abs(b2.at(q) - park.at(q))) < 1e-10


def test_unicycle_bracket_is_normal_direction():
    # [rotate, head] = (-sin, cos, 0): the sideways direction.
    rot, drv = unicycle_fields().generators
    br = lie_bracket(rot, drv)
    for th in np.linspace(0.0, 6.0, 7):
        got = br.at([0.3, -0.2, th])
        assert np.allclose(got, [-np.sin(th), np.cos(th), 0.0], atol=1e-12)


def fd_bracket(V, W, q, h=1e-5):
    """(DW)V - (DV)W at q from central-difference Jacobians."""
    def jac(F):
        cols = []
        for j in range(len(q)):
            e = np.zeros(len(q))
            e[j] = h
            cols.append((F.at(q + e) - F.at(q - e)) / (2 * h))
        return np.column_stack(cols)

    return jac(W) @ V.at(q) - jac(V) @ W.at(q)


def test_lie_bracket_matches_finite_difference_bracket():
    rng = np.random.default_rng(7)
    V, W = trailer_fields(2).generators
    br = lie_bracket(V, W)
    for q in rand_points(rng, 5, 5):
        assert np.allclose(br.at(q), fd_bracket(V, W, q), rtol=0.0, atol=1e-9)
        # the bracket of the degree-2 field jets carries the same value
        assert np.allclose(jet_bracket(field_jet(V, q, 2), field_jet(W, q, 2)).value,
                           br.at(q), rtol=0.0, atol=1e-12)


@given(st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4), st.floats(-0.78, 0.78))
@settings(max_examples=30, deadline=None)
def test_jacobi_identity_on_nested_brackets(coords, phi):
    # steer, drive and park = [drive, [steer, drive]] of the car towing one
    # trailer: all three terms of the cyclic sum are nonzero (with tau_1, tau_2
    # and [tau_1, tau_2] of a trailer system every term vanishes, because
    # [tau_1, [tau_1, tau_2]] = -tau_2), and they nest brackets four deep
    q = coords + [phi]  # (x, y, theta_0, theta_1, phi), phi inside the steering chart
    U, V = car_trailer_fields(1).generators
    W = lie_bracket(V, lie_bracket(U, V))
    cyclic = (lie_bracket(U, lie_bracket(V, W)).at(q) + lie_bracket(V, lie_bracket(W, U)).at(q)
              + lie_bracket(W, lie_bracket(U, V)).at(q))
    assert np.abs(cyclic).max() < 1e-12


# ---------------------------------------------------------------------------
# named systems: pointwise formulas


def assert_same_jets(dists, closed_form, points, deg=3):
    """Every distribution's generator jets equal the closed-form fields' jets bit for bit."""
    for q in points:
        for dist in dists:
            for a, b in zip(dist.generators, closed_form):
                assert np.array_equal(field_jet(a, q, deg).coef, field_jet(b, q, deg).coef)


def test_trailer_zero_matches_unicycle():
    # the unicycle is the convoy with no trailers
    closed_form = [VectorField(3, lambda q: [0.0, 0.0, 1.0]),
                   VectorField(3, lambda q: [jets.cos(q[2]), jets.sin(q[2]), 0.0])]
    assert_same_jets([trailer_fields(0), unicycle_fields()], closed_form,
                     rand_points(np.random.default_rng(0), 3, 5))


def test_car_trailer_zero_matches_car():
    # the car is the car convoy with no trailers
    l = 1.5
    closed_form = [VectorField(4, lambda q: [0.0, 0.0, 0.0, 1.0]),
                   VectorField(4, lambda q: [jets.cos(q[2]), jets.sin(q[2]),
                                             jets.tan(q[3]) * (1.0 / l), 0.0])]
    assert_same_jets([car_trailer_fields(0, l), car_fields(l)], closed_form,
                     rand_points(np.random.default_rng(1), 4, 5, scale=0.7))


def test_large_tol_stops_at_the_jet_degree_budget():
    # ranks relative to a large tol fall as vectors are added ([2, 3, 2] here):
    # the levels stop when the jets' degrees are spent instead of differentiating
    # a degree-0 jet
    for q in rand_points(np.random.default_rng(2), 4, 5, scale=0.7):
        rep = derived_flag(car_fields(1.0), q, tol=0.5)
        assert rep.depth_used <= 2 and len(rep.dims) == rep.depth_used + 1


def test_trailer_one_matches_hand_formula():
    # tau1_2 = sin(t1 - t0) d/dt0 + cos(t1 - t0) (cos t0 dx + sin t0 dy)
    d = trailer_fields(1)
    q = [0.2, -0.4, 0.3, 1.1]
    t0, t1 = q[2], q[3]
    expected = [
        np.cos(t1 - t0) * np.cos(t0),
        np.cos(t1 - t0) * np.sin(t0),
        np.sin(t1 - t0),
        0.0,
    ]
    assert np.allclose(d.generators[1].at(q), expected, atol=1e-14)
    assert np.allclose(d.generators[0].at(q), [0, 0, 0, 1], atol=1e-14)


def test_trailer_speed_compounds_cosines():
    # head speed 1 decays by cos of each relative angle down the chain
    n = 4
    rng = np.random.default_rng(2)
    q = rng.uniform(-0.7, 0.7, n + 3)
    v = d = 1.0
    for k in range(n, 0, -1):
        v *= np.cos(q[2 + k] - q[1 + k])
    vec = trailer_fields(n).generators[1].at(q)
    assert abs(np.hypot(vec[0], vec[1]) - abs(v)) < 1e-12


def test_steering_chart_boundary():
    dist = car_fields(1.0)
    with pytest.raises(SteeringOutOfRange):
        dist.generators[1].at([0.0, 0.0, 0.0, np.pi / 4])
    with pytest.raises(SteeringOutOfRange):
        car_trailer_fields(1).generators[1].at([0, 0, 0, 0, -np.pi / 3])
    # inside the chart is fine
    dist.generators[1].at([0.0, 0.0, 0.0, np.pi / 4 - 1e-3])


def test_cartan_generators_annihilate_contact_forms():
    s = 4
    dist = cartan_distribution(s)
    rng = np.random.default_rng(9)
    for q in rand_points(rng, s + 2, 10):
        for g in dist.generators:
            res = cartan_form_residuals(s, q, g.at(q))
            assert np.max(np.abs(res)) < 1e-14


def test_forgetful_projection_residual_and_rank():
    worst, rank = forgetful_projection_check([0.5, -0.3, 1.2, 0.4])
    assert worst < 1e-12
    assert rank == 2


# ---------------------------------------------------------------------------
# derived flags


@pytest.mark.parametrize("n", range(6))
def test_trailer_flags_grow_by_one(n):
    rng = np.random.default_rng(100 + n)
    d = trailer_fields(n)
    for q in rand_points(rng, n + 3, 3):
        rep = derived_flag(d, q)
        assert rep.dims == list(range(2, n + 4))
        assert rep.goursat


@pytest.mark.parametrize("n", range(4, 9))
def test_normal_form_flags_grow_by_one(n):
    rng = np.random.default_rng(200 + n)
    rep = derived_flag(goursat_normal_form(n), rand_points(rng, n, 1)[0])
    assert rep.dims == list(range(2, n + 1))
    assert rep.goursat


@pytest.mark.parametrize("s", range(1, 6))
def test_jet_space_flags_grow_by_one(s):
    rng = np.random.default_rng(300 + s)
    rep = derived_flag(cartan_distribution(s), rand_points(rng, s + 2, 1)[0])
    assert rep.dims == list(range(2, s + 3))
    assert rep.goursat


@pytest.mark.parametrize("n, brackets", [(4, 15), (5, 21)])
def test_derived_flag_brackets_each_pair_once(monkeypatch, n, brackets):
    calls = []
    bracket = distributions.jet_bracket

    def counted(vj, wj):
        calls.append((vj, wj))
        return bracket(vj, wj)

    monkeypatch.setattr(distributions, "jet_bracket", counted)
    q = rand_points(np.random.default_rng(400 + n), n + 3, 1)[0]
    assert derived_flag(trailer_fields(n), q).dims == list(range(2, n + 4))
    assert len(calls) == brackets
    assert len({frozenset((id(v), id(w))) for v, w in calls}) == len(calls)


def test_derived_flag_tests_each_value_once(monkeypatch):
    # the frame resumes where the last level stopped and stops when full:
    # one rank test per value at most, plus one per level and the generators'
    calls = []
    rank = distributions.numerical_rank

    def counted(vectors, tol):
        calls.append(len(vectors))
        return rank(vectors, tol)

    monkeypatch.setattr(distributions, "numerical_rank", counted)
    q = rand_points(np.random.default_rng(404), 7, 1)[0]
    report = derived_flag(trailer_fields(4), q)
    assert report.dims == list(range(2, 8))
    assert len(calls) <= (2 + 15) + report.depth_used + 1


def _scan_from_the_start(values, tol):
    """Indices of the greedy frame of ``values``, scanned from the first."""
    idx, chosen = [], []
    for i, v in enumerate(values):
        if numerical_rank(chosen + [v], tol) > len(idx):
            idx.append(i)
            chosen.append(v)
    return idx


@st.composite
def growing_lists(draw):
    """(n, vectors in R^n, cut points, tol): independent vectors of mixed size,
    combinations and rescalings of earlier ones, vectors within a few tol of an
    earlier one, and zeros."""
    n = draw(st.integers(2, 6))
    tol = draw(st.sampled_from([1e-10, 1e-8, 1e-4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = []
    for kind in draw(st.lists(st.sampled_from(["new", "combination", "scaled", "near", "zero"]),
                              min_size=1, max_size=3 * n)):
        if kind == "zero":
            v = np.zeros(n)
        elif kind == "new" or not values:
            v = rng.normal(size=n) * 10.0 ** rng.integers(-4, 5)
        else:
            old = np.array(values)[rng.integers(0, len(values), size=rng.integers(1, 3))]
            if kind == "combination":
                v = rng.normal(size=len(old)) @ old
            elif kind == "scaled":
                v = old[0] * 10.0 ** rng.uniform(-8, 8)
            else:
                v = old[0] + tol * rng.uniform(0.1, 10.0) * rng.normal(size=n) * np.abs(old[0]).max()
        values.append(v)
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=4)))
    return n, values, cuts, tol


@given(growing_lists())
@settings(max_examples=100, deadline=None)
def test_resumed_frame_equals_a_scan_from_the_start(case):
    n, values, cuts, tol = case
    frame = distributions._Frame(n, tol)
    for end in [*cuts, len(values)]:
        assert list(frame.extend(values[:end])) == _scan_from_the_start(values[:end], tol)


def test_oversized_jet_table_is_refused_before_it_is_built(monkeypatch):
    # seven trailers: degree-8 jets in 10 variables need 3.1 M product pairs
    monkeypatch.setattr(jets, "_TABLES", {})
    q = rand_points(np.random.default_rng(8), 10, 1)[0]
    with pytest.raises(JetTableTooLarge):
        derived_flag(trailer_fields(7), q)
    assert jets._TABLES == {}


def test_oversized_jets_are_refused_before_their_coefficients_exist():
    # 40 trailers: one degree-41 jet in 43 variables would hold C(84, 41) > 2^63 coefficients
    q = rand_points(np.random.default_rng(9), 43, 1)[0]
    with pytest.raises(JetTableTooLarge):
        derived_flag(trailer_fields(40), q)


def test_car_flag():
    rep = derived_flag(car_fields(1.0), [0.1, 0.2, -0.3, 0.15])
    assert rep.dims == [2, 3, 4]
    assert rep.goursat


def test_car_trailer_flag():
    rep = derived_flag(car_trailer_fields(2), [0.1, 0.0, 0.2, -0.1, 0.3, 0.1])
    assert rep.dims == [2, 3, 4, 5, 6]
    assert rep.goursat


def test_involutive_pair_stagnates():
    flat = Distribution(
        [
            VectorField(3, lambda q: [1.0, 0.0, 0.0], "a"),
            VectorField(3, lambda q: [0.0, 1.0, 0.0], "b"),
        ]
    )
    rep = derived_flag(flat, [0.1, 0.2, 0.3])
    assert rep.dims == [2, 2]
    assert not rep.goursat


def test_full_rank_pair_needs_no_bracket():
    full = Distribution(
        [
            VectorField(2, lambda q: [1.0, 0.0], "a"),
            VectorField(2, lambda q: [0.0, 1.0], "b"),
        ]
    )
    rep = derived_flag(full, [0.0, 0.0])
    assert rep.dims == [2]
    assert rep.depth_used == 0
    assert rep.goursat


def test_flag_report_round_trip_dict():
    rep = derived_flag(car_fields(1.0), [0.0, 0.0, 0.1, 0.1])
    d = rep.as_dict()
    assert d["dims"] == rep.dims and d["goursat"] is True


def test_heisenberg_flag():
    # dx, dy + x dz: bracket fills the third direction in one step.
    heis = Distribution(
        [
            VectorField(3, lambda q: [1.0, 0.0, 0.0], "X"),
            VectorField(3, lambda q: [0.0, 1.0, q[0]], "Y"),
        ]
    )
    rep = derived_flag(heis, [0.3, -0.5, 0.7])
    assert rep.dims == [2, 3]
    assert rep.goursat
