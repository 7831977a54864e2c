import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import snellfagnano as sf
from snellfagnano import (BarycentricCoords, NoSuchPoint, Point2, Triangle,
                          TrilinearCoords, TripolarCoords, dist,
                          triangle_from_sides)
from snellfagnano.coordinates import IdealPoint, OnSideLine

from conftest import (circumcenter_oracle, orthocenter_oracle,
                      sample_acute_triangle, sample_triangle)
from oracles import biquadratic_residual

T0 = Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 3.0))


def random_interior(rng, t):
    """Uniform barycentric sample strictly inside t."""
    while True:
        u, v = rng.random(), rng.random()
        w = 1.0 - u - v
        if min(u, v, w) > 0.02:
            return sf.from_barycentric(BarycentricCoords(u, v, w), t)


# ---------------------------------------------------------------------------
# barycentric / trilinear

def test_barycentric_of_named_points():
    assert sf.to_barycentric(T0.vA, T0) == pytest.approx((1, 0, 0), abs=1e-14)
    centroid = Point2((T0.vA.x + T0.vB.x + T0.vC.x) / 3,
                      (T0.vA.y + T0.vB.y + T0.vC.y) / 3)
    assert sf.to_barycentric(centroid, T0) == pytest.approx((1 / 3,) * 3, abs=1e-14)
    mid_bc = Point2((T0.vB.x + T0.vC.x) / 2, (T0.vB.y + T0.vC.y) / 2)
    assert sf.to_barycentric(mid_bc, T0) == pytest.approx((0, 0.5, 0.5), abs=1e-14)


def test_from_barycentric_examples():
    assert dist(sf.from_barycentric(BarycentricCoords(1, 0, 0), T0), T0.vA) < 1e-14
    t = Triangle(Point2(0, 0), Point2(3, 0), Point2(0, 3))
    p = sf.from_barycentric(BarycentricCoords(1, 1, 1), t)
    assert dist(p, Point2(1, 1)) < 1e-14


def test_from_barycentric_ideal_point():
    with pytest.raises(IdealPoint):
        sf.from_barycentric(BarycentricCoords(1.0, -0.5, -0.5), T0)


def test_barycentric_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        t = sample_triangle(rng)
        p = random_interior(rng, t)
        bc = sf.to_barycentric(p, t)
        assert sum(bc) == pytest.approx(1.0, abs=1e-12)
        assert dist(sf.from_barycentric(bc, t), p) <= 1e-12 * t.diameter


def test_trilinear_identity_is_incenter():
    rng = random.Random(4)
    for _ in range(10):
        t = sample_triangle(rng)
        bc = sf.trilinear_to_barycentric(TrilinearCoords(1, 1, 1), t)
        assert bc[0] / t.a == pytest.approx(bc[1] / t.b, rel=1e-12)
        assert bc[1] / t.b == pytest.approx(bc[2] / t.c, rel=1e-12)
        p = sf.from_barycentric(bc, t)
        # equidistant from the three side lines
        ds = []
        for q1, q2 in ((t.vB, t.vC), (t.vC, t.vA), (t.vA, t.vB)):
            e = (q2 - q1).unit()
            ds.append(abs(e.cross(p - q1)))
        assert max(ds) == pytest.approx(min(ds), rel=1e-10)


def test_trilinear_reciprocal_sides_is_centroid():
    bc = sf.trilinear_to_barycentric(
        TrilinearCoords(1 / T0.a, 1 / T0.b, 1 / T0.c), T0)
    n = [v / sum(bc) for v in bc]
    assert n == pytest.approx([1 / 3] * 3, rel=1e-12)


def test_trilinear_barycentric_inverse_maps():
    rng = random.Random(6)
    t = sample_triangle(rng)
    tl = TrilinearCoords(0.4, 1.1, 0.7)
    back = sf.barycentric_to_trilinear(sf.trilinear_to_barycentric(tl, t), t)
    ratio = [x / y for x, y in zip(back, tl)]
    assert max(ratio) == pytest.approx(min(ratio), rel=1e-12)


# ---------------------------------------------------------------------------
# tripolar distances

def test_tripolar_of_circumcenter():
    rng = random.Random(8)
    t = sample_acute_triangle(rng)
    o = circumcenter_oracle(t)
    tp = sf.tripolar_of_point(o, t)
    assert max(tp) == pytest.approx(min(tp), rel=1e-12)


def test_tripolar_of_vertex():
    tp = sf.tripolar_of_point(T0.vA, T0)
    assert tp == pytest.approx((0.0, T0.c, T0.b), abs=1e-14)


def test_tripolar_equilateral_midpoint():
    s = 2.0
    t = triangle_from_sides(s, s, s)
    mid_bc = Point2((t.vB.x + t.vC.x) / 2, (t.vB.y + t.vC.y) / 2)
    tp = sf.tripolar_of_point(mid_bc, t)
    assert tp[0] == pytest.approx(s * math.sqrt(3) / 2, rel=1e-12)
    assert tp[1] == pytest.approx(s / 2, rel=1e-12)
    assert tp[2] == pytest.approx(s / 2, rel=1e-12)


# ---------------------------------------------------------------------------
# isogonal conjugation

def test_isogonal_fixes_incenter():
    bc = sf.trilinear_to_barycentric(TrilinearCoords(1, 1, 1), T0)
    img = sf.isogonal_conjugate(bc, T0)
    n1 = [v / sum(bc) for v in bc]
    n2 = [v / sum(img) for v in img]
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_isogonal_orthocenter_circumcenter_pair():
    rng = random.Random(12)
    for _ in range(10):
        t = sample_acute_triangle(rng)
        h = orthocenter_oracle(t)
        img = sf.from_barycentric(sf.isogonal_conjugate(sf.to_barycentric(h, t), t), t)
        assert dist(img, circumcenter_oracle(t)) <= 1e-9 * t.diameter


def test_isogonal_involution_and_interiority():
    rng = random.Random(13)
    for _ in range(40):
        t = sample_triangle(rng)
        p = random_interior(rng, t)
        bc = sf.to_barycentric(p, t)
        img = sf.isogonal_conjugate(bc, t)
        assert min(img) > 0.0  # interior goes to interior
        back = sf.from_barycentric(sf.isogonal_conjugate(img, t), t)
        assert dist(back, p) <= 1e-10 * t.diameter


def test_isogonal_undefined_on_side_lines():
    mid_bc = Point2((T0.vB.x + T0.vC.x) / 2, (T0.vB.y + T0.vC.y) / 2)
    with pytest.raises(OnSideLine):
        sf.isogonal_conjugate(sf.to_barycentric(mid_bc, T0), T0)


# ---------------------------------------------------------------------------
# tripolar -> points

def test_unit_triple_gives_circumcenter():
    rng = random.Random(23)
    for _ in range(10):
        t = sample_triangle(rng)
        pts = sf.tripolar_to_points(TripolarCoords(1, 1, 1), t)
        o = circumcenter_oracle(t)
        assert any(dist(p, o) <= 1e-9 * t.diameter for p, s in pts)


def test_vertex_triple_gives_vertex():
    rng = random.Random(24)
    for _ in range(10):
        t = sample_triangle(rng)
        pts = sf.tripolar_to_points(TripolarCoords(0.0, t.c, t.b), t)
        assert len(pts) == 1
        p, s = pts[0]
        assert dist(p, t.vA) <= 1e-12 * t.diameter
        assert s == pytest.approx(1.0, rel=1e-12)


def test_two_zero_distances_rejected():
    with pytest.raises(NoSuchPoint):
        sf.tripolar_to_points(TripolarCoords(0.0, 0.0, 1.0), T0)
    with pytest.raises(ValueError):
        sf.tripolar_to_points(TripolarCoords(-1.0, 1.0, 1.0), T0)
    with pytest.raises(ValueError):
        sf.tripolar_to_points(TripolarCoords(0.0, 0.0, 0.0), T0)


def test_unrealizable_triple_raises():
    t = triangle_from_sides(1.0, 1.0, 1.0)
    with pytest.raises(NoSuchPoint):
        sf.tripolar_to_points(TripolarCoords(10.0, 1.0, 1.0), t)


def test_reciprocal_side_triple_gives_isodynamic_points():
    """Distances (1/a : 1/b : 1/c) pick out the points whose isogonal
    conjugates are the total-distance minimizers (classical isogonic pair);
    the better conjugate must beat a dense grid scan."""
    rng = random.Random(26)
    t = sample_acute_triangle(rng)
    pts = sf.tripolar_to_points(TripolarCoords(1 / t.a, 1 / t.b, 1 / t.c), t)
    assert 1 <= len(pts) <= 2

    def total_dist(p):
        return dist(p, t.vA) + dist(p, t.vB) + dist(p, t.vC)

    best_grid = math.inf
    n = 220
    for i in range(1, n):
        for j in range(1, n - i):
            u, v = i / n, j / n
            q = sf.from_barycentric(BarycentricCoords(u, v, 1 - u - v), t)
            best_grid = min(best_grid, total_dist(q))
    conj_vals = []
    for p, s in pts:
        img = sf.from_barycentric(
            sf.isogonal_conjugate(sf.to_barycentric(p, t), t), t)
        conj_vals.append(total_dist(img))
    assert min(conj_vals) <= best_grid + 1e-4 * t.diameter


def test_roundtrip_random_points():
    rng = random.Random(29)
    for _ in range(60):
        t = sample_triangle(rng)
        p = random_interior(rng, t)
        tp = sf.tripolar_of_point(p, t)
        pts = sf.tripolar_to_points(tp, t)
        assert min(dist(p, q) for q, s in pts) <= 1e-8 * t.diameter
        for q, s in pts:
            # every candidate lies on all three ratio circles
            for (v1, v2, x1, x2) in ((t.vA, t.vB, tp[0], tp[1]),
                                     (t.vB, t.vC, tp[1], tp[2]),
                                     (t.vC, t.vA, tp[2], tp[0])):
                circ = sf.apollonian_circle(v1, v2, x1 / x2)
                assert circ.ratio_residual(q) <= 1e-8


def test_biquadratic_residual_at_roots_and_off_roots():
    rng = random.Random(37)
    for _ in range(25):
        t = sample_triangle(rng)
        p = random_interior(rng, t)
        X, Y, Z = sf.tripolar_of_point(p, t)
        for q, s in sf.tripolar_to_points(TripolarCoords(X, Y, Z), t):
            assert biquadratic_residual(t, X, Y, Z, s * s) <= 1e-6
        # negative control: a perturbed scale is far off the curve
        assert biquadratic_residual(t, X, Y, Z, (1.07 * 1.07)) > 1e-4 or \
            biquadratic_residual(t, X, Y, Z, (0.9 * 0.9)) > 1e-4


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.9), st.floats(0.05, 0.9))
def test_roundtrip_property(u, v):
    if u + v >= 0.98:
        return
    t = T0
    p = sf.from_barycentric(BarycentricCoords(u, v, 1 - u - v), t)
    tp = sf.tripolar_of_point(p, t)
    pts = sf.tripolar_to_points(tp, t)
    assert min(dist(p, q) for q, s in pts) <= 1e-8 * t.diameter
