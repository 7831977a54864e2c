import math
import random
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

import snellfagnano as sf
from snellfagnano import (NoSuchPoint, Point2, Triangle, dist,
                          triangle_from_sides)
from snellfagnano.construction import STATUS_INTERIOR
from snellfagnano.coordinates import IdealPoint, OnSideLine, unit_scaled

from conftest import (circumcenter_oracle, orthocenter_oracle,
                      sample_acute_triangle, sample_random_setup,
                      sample_triangle)
from oracles import (barycentric_reference, biquadratic_residual,
                     ratio_residual)

T0 = Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(1.0, 3.0))


def random_interior(rng, t):
    """Uniform barycentric sample strictly inside t."""
    while True:
        u, v = rng.random(), rng.random()
        w = 1.0 - u - v
        if min(u, v, w) > 0.02:
            return sf.from_barycentric((u, v, w), t)


# ---------------------------------------------------------------------------
# barycentric / trilinear

def test_barycentric_of_named_points():
    assert sf.to_barycentric(T0.vA, T0) == pytest.approx((1, 0, 0), abs=1e-14)
    centroid = Point2((T0.vA.x + T0.vB.x + T0.vC.x) / 3,
                      (T0.vA.y + T0.vB.y + T0.vC.y) / 3)
    assert sf.to_barycentric(centroid, T0) == pytest.approx((1 / 3,) * 3, abs=1e-14)
    mid_bc = Point2((T0.vB.x + T0.vC.x) / 2, (T0.vB.y + T0.vC.y) / 2)
    assert sf.to_barycentric(mid_bc, T0) == pytest.approx((0, 0.5, 0.5), abs=1e-14)


def test_barycentrics_are_the_exact_area_ratios_rounded_once():
    """Bit for bit the fractions quotients of the exact areas, for points
    from 1 to 1e150 diameters out of 400 random set-ups, where a float
    area would lose digits from the start and all of them by 1e50."""
    rng = random.Random(40)
    for _ in range(400):
        t, _ = sample_random_setup(rng)
        for k in (0, 2, 5, 8, 12, 50, 100, 150):
            r, phi = 10.0 ** k * t.diameter, rng.uniform(0, 2 * math.pi)
            p = Point2(t.vA.x + r * math.cos(phi), t.vA.y + r * math.sin(phi))
            assert sf.to_barycentric(p, t) == barycentric_reference(p, t), k


def test_subnormal_interior_point_has_positive_barycentrics():
    """The orbit point of this needle has subnormal coordinates; a float
    area underflows there and read (1.0, 2.2e-311, 0.0)."""
    t = Triangle((0, 0), (1e-05, 0), (2.22507384e-316, 1))
    res = sf.snell_fagnano_point(t, sf.Weights(1.0, 1.0, 1.0))
    assert res.status == STATUS_INTERIOR
    bc = sf.to_barycentric(res.point, t)
    assert min(bc) > 0.0
    assert bc == barycentric_reference(res.point, t)


def test_from_barycentric_examples():
    assert dist(sf.from_barycentric((1, 0, 0), T0), T0.vA) < 1e-14
    t = Triangle(Point2(0, 0), Point2(3, 0), Point2(0, 3))
    p = sf.from_barycentric((1, 1, 1), t)
    assert dist(p, Point2(1, 1)) < 1e-14


def test_from_barycentric_ideal_point():
    with pytest.raises(IdealPoint):
        sf.from_barycentric((1.0, -0.5, -0.5), T0)


def test_barycentric_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        t = sample_triangle(rng)
        p = random_interior(rng, t)
        bc = sf.to_barycentric(p, t)
        assert sum(bc) == pytest.approx(1.0, abs=1e-12)
        assert dist(sf.from_barycentric(bc, t), p) <= 1e-12 * t.diameter


def test_a_point_whose_barycentrics_overflow_is_refused():
    """to_barycentric divides exact areas, so a point 1e300 diameters out
    still gets the correctly rounded barycentrics; only a barycentric too
    large for a float is refused, as at 1e300 on a triangle 1e-100 the
    size.  verify_snell_point reads no area: out to 1e300 its residuals
    agree with those at 1e100, and it refuses a point only where a sine
    overflows, as the point at 1e200 does on a triangle 1e-150 the size,
    once divided by that triangle's scale."""
    t = triangle_from_sides(4.0, 5.0, 6.0)
    k = sf.coeffs_from_weights(sf.Weights(1.0, 1.0, 1.0))
    for x in (1e200, 1e300):
        p = Point2(x, x)
        assert sf.to_barycentric(p, t) == barycentric_reference(p, t)
    tiny = triangle_from_sides(4e-100, 5e-100, 6e-100)
    with pytest.raises(sf.GeometryError, match="too far out"):
        sf.to_barycentric(Point2(1e300, 1e300), tiny)
    out = Point2(1e100, 1e100)
    near = sf.verify_snell_point(out, t, k)
    assert near == pytest.approx(
        (3.2268945096609984, 0.7357027152923155, 0.10487046023306157),
        rel=1e-12)
    for x in (1e155, 1e200, 1e300):
        far = sf.verify_snell_point(Point2(x, x), t, k)
        assert max(abs(u - v) for u, v in zip(far, near)) <= 1e-15, x
    small = triangle_from_sides(4e-150, 5e-150, 6e-150)
    with pytest.raises(sf.GeometryError, match="too far out"):
        sf.verify_snell_point(Point2(1e200, 1e200), small, k)


def test_trilinear_identity_is_incenter():
    rng = random.Random(4)
    for _ in range(10):
        t = sample_triangle(rng)
        bc = sf.trilinear_to_barycentric((1, 1, 1), t)
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
    bc = sf.trilinear_to_barycentric((1 / T0.a, 1 / T0.b, 1 / T0.c), T0)
    n = [v / sum(bc) for v in bc]
    assert n == pytest.approx([1 / 3] * 3, rel=1e-12)


def test_trilinear_barycentric_inverse_maps():
    rng = random.Random(6)
    t = sample_triangle(rng)
    tl = (0.4, 1.1, 0.7)
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
    bc = sf.trilinear_to_barycentric((1, 1, 1), T0)
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


def test_side_lines_are_refused_where_the_arithmetic_fails():
    """verify_snell_point refuses a point whose divisor sine is 0, and
    isogonal_conjugate a triple with an entry that has no finite inverse:
    exactly on a side line (a vertex among them), and the all-zero triple,
    but not 1e-13 of the diameter off that line, nor a triple whose entry
    is 1e-300.  A sine ratio that overflows is refused too."""
    k = sf.coeffs_from_weights(sf.Weights(1.0, 1.0, 1.0))
    mid_bc = Point2((T0.vB.x + T0.vC.x) / 2, (T0.vB.y + T0.vC.y) / 2)
    for f in (mid_bc,) + tuple(T0.vertices):
        with pytest.raises(OnSideLine, match="sine ratios"):
            sf.verify_snell_point(f, T0, k)
    for bc in ((0.0, 0.0, 0.0), (5e-324, 1.0, 1.0)):
        with pytest.raises(OnSideLine, match="isogonal"):
            sf.isogonal_conjugate(bc, T0)
    # 1e-13 diameters from mid_bc along the inward normal of side BC.
    d = 1e-13 * T0.diameter / math.sqrt(2.0)
    off = Point2(mid_bc.x - d, mid_bc.y - d)
    assert all(map(math.isfinite, sf.verify_snell_point(off, T0, k)))
    # Off side AB (the x-axis) by 1e-300 a ratio is finite; by 1e-310 it
    # overflows, and the point is refused rather than given an inf.
    assert all(map(math.isfinite,
                   sf.verify_snell_point(Point2(2.0, 1e-300), T0, k)))
    with pytest.raises(sf.GeometryError, match="too near a side line"):
        sf.verify_snell_point(Point2(2.0, 1e-310), T0, k)
    for bc in (sf.to_barycentric(off, T0), (1e-300, 1.0, 1.0)):
        img = sf.isogonal_conjugate(bc, T0)
        assert all(map(math.isfinite, img)), bc
    # Around the entry 1 / sys.float_info.max, whose own inverse overflows,
    # the conjugate is refused exactly where an inverse is not finite.
    def first(x):
        return unit_scaled(sf.barycentric_to_trilinear((x, 1.0, 1.0), T0))[0]

    x0 = 1.0 / sys.float_info.max / (first(1e-300) / 1e-300)
    seen = set()
    for x in (x0 + i * 5e-324 for i in range(-20, 21)):
        finite = math.isfinite(1.0 / first(x))
        seen.add(finite)
        if finite:
            sf.isogonal_conjugate((x, 1.0, 1.0), T0)
        else:
            with pytest.raises(OnSideLine):
                sf.isogonal_conjugate((x, 1.0, 1.0), T0)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# tripolar -> points

def test_unit_triple_gives_circumcenter():
    rng = random.Random(23)
    for _ in range(10):
        t = sample_triangle(rng)
        pts = sf.tripolar_to_points((1, 1, 1), t)
        o = circumcenter_oracle(t)
        assert any(dist(p, o) <= 1e-9 * t.diameter for p, _, _ in pts)


def test_vertex_triple_gives_vertex():
    rng = random.Random(24)
    for _ in range(10):
        t = sample_triangle(rng)
        pts = sf.tripolar_to_points((0.0, t.c, t.b), t)
        assert len(pts) == 1
        p, s, bary = pts[0]
        assert dist(p, t.vA) <= 1e-12 * t.diameter
        assert s == pytest.approx(1.0, rel=1e-12)
        assert bary == (1.0, 0.0, 0.0)


def test_two_zero_distances_rejected():
    with pytest.raises(NoSuchPoint):
        sf.tripolar_to_points((0.0, 0.0, 1.0), T0)
    with pytest.raises(ValueError):
        sf.tripolar_to_points((-1.0, 1.0, 1.0), T0)
    with pytest.raises(ValueError):
        sf.tripolar_to_points((0.0, 0.0, 0.0), T0)


def test_each_vertex_distance_triple_gives_its_vertex():
    """One zero distance pins the point to a vertex.  The distances of each
    vertex convert back to it with scale 1; a ratio off by 1e-6, above
    VERTEX_SCALE_TOL, names no point, and one off by 1e-10 still names it."""
    assert sf.coordinates.VERTEX_SCALE_TOL == 1e-8
    # counterclockwise, and clockwise (the constructor swaps B and C)
    for t in (T0, Triangle(Point2(0.0, 0.0), Point2(1.0, 3.0),
                           Point2(4.0, 0.0))):
        for v in t.vertices:
            tp = sf.tripolar_of_point(v, t)
            unit = tuple(float(u == v) for u in t.vertices)
            assert sf.tripolar_to_points(tp, t) == [(v, 1.0, unit)]
            other = (tp.index(0.0) + 1) % 3
            for rel, realized in ((1e-6, False), (1e-10, True)):
                off = list(tp)
                off[other] *= 1.0 + rel
                if realized:
                    [(p, s, _)] = sf.tripolar_to_points(off, t)
                    assert p == v and s == pytest.approx(1.0, rel=1e-9)
                else:
                    with pytest.raises(NoSuchPoint):
                        sf.tripolar_to_points(off, t)


def test_unrealizable_triple_raises():
    t = triangle_from_sides(1.0, 1.0, 1.0)
    with pytest.raises(NoSuchPoint):
        sf.tripolar_to_points((10.0, 1.0, 1.0), t)


def test_reciprocal_side_triple_gives_isodynamic_points():
    """Distances (1/a : 1/b : 1/c) pick out the points whose isogonal
    conjugates are the total-distance minimizers (classical isogonic pair);
    the better conjugate must beat a dense grid scan."""
    rng = random.Random(26)
    t = sample_acute_triangle(rng)
    pts = sf.tripolar_to_points((1 / t.a, 1 / t.b, 1 / t.c), t)
    assert 1 <= len(pts) <= 2

    def total_dist(p):
        return dist(p, t.vA) + dist(p, t.vB) + dist(p, t.vC)

    best_grid = math.inf
    n = 220
    for i in range(1, n):
        for j in range(1, n - i):
            u, v = i / n, j / n
            q = sf.from_barycentric((u, v, 1 - u - v), t)
            best_grid = min(best_grid, total_dist(q))
    conj_vals = []
    for p, _, _ in pts:
        img = sf.from_barycentric(
            sf.isogonal_conjugate(sf.to_barycentric(p, t), t), t)
        conj_vals.append(total_dist(img))
    assert min(conj_vals) <= best_grid + 1e-4 * t.diameter


def _tripolar_roots_reference(t, tp):
    """The "+" and "-" points of the tripolar triple tp, (a^2 N_A : ...)
    with N_V = K2 X_V +- d_V S = 2 b c q r sin(V +- V~), to 60 digits from
    the floats of t's vertices and tp."""
    with localcontext() as ctx:
        ctx.prec = 60
        (xa, ya), (xb, yb), (xc, yc) = v = [(Decimal(x), Decimal(y))
                                            for x, y in t.vertices]
        a2, b2, c2 = ((v[i][0] - v[j][0]) ** 2 + (v[i][1] - v[j][1]) ** 2
                      for i, j in ((1, 2), (2, 0), (0, 1)))
        p, q, r = (Decimal(x) * s2.sqrt() for x, s2 in zip(tp, (a2, b2, c2)))
        k2 = (xb - xa) * (yc - ya) - (yb - ya) * (xc - xa)
        dots = ((xb - xa) * (xc - xa) + (yb - ya) * (yc - ya),
                (xc - xb) * (xa - xb) + (yc - yb) * (ya - yb),
                (xa - xc) * (xb - xc) + (ya - yc) * (yb - yc))
        xs = (q * q + r * r - p * p, r * r + p * p - q * q,
              p * p + q * q - r * r)
        s = ((p + q + r) * (q + r - p) * (r + p - q) * (p + q - r)).sqrt()
        roots = []
        for sign in (1, -1):
            bc = [u * (k2 * x + sign * d * s)
                  for u, x, d in zip((a2, b2, c2), xs, dots)]
            roots.append((sum(u * x for u, (x, _) in zip(bc, v)) / sum(bc),
                          sum(u * y for u, (_, y) in zip(bc, v)) / sum(bc)))
        return roots


@pytest.mark.parametrize("delta, bound", [(1e-4, 1.3e-10), (1e-6, 2.3e-8),
                                          (1e-8, 3.3e-6)])
def test_minus_root_near_unit_triple_keeps_its_accuracy(delta, bound):
    """Tripolar triples at distance delta from (1, 1, 1), in a random
    direction, on random set-up triangles: 150 of them, each with two
    roots.  The "-" root, (YZ sin(A - A~) : ...) from the exact gaps
    G-_V, is within bound of a 60-digit reference, relative to its
    distance from A; bound is twice the worst of 750 draws (seeds 1-5)
    when the "-" root was the circumcircle inverse of the "+" one: 6.5e-11,
    1.1e-8 and 1.6e-6.  The exact gaps read 2.8e-11, 4.7e-9 and 5.0e-7.
    The float numerators K2 X_V - d_V S cancel there: on the same draws
    they erred by up to 9e-7, 9.5e-3 and 35."""
    rng = random.Random(1)
    for _ in range(150):
        t, _ = sample_random_setup(rng)
        u = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in u))
        tp = tuple(1.0 + delta * x / n for x in u)
        (plus, _, _), (minus, _, _) = sf.tripolar_to_points(tp, t)
        for got, (x, y) in zip((plus, minus),
                               _tripolar_roots_reference(t, tp)):
            err = math.hypot(Decimal(got[0]) - x, Decimal(got[1]) - y)
            assert err <= bound * math.hypot(x - Decimal(t.vA[0]),
                                             y - Decimal(t.vA[1]))


def test_roundtrip_random_points():
    rng = random.Random(29)
    for _ in range(60):
        t = sample_triangle(rng)
        p = random_interior(rng, t)
        tp = sf.tripolar_of_point(p, t)
        pts = sf.tripolar_to_points(tp, t)
        assert min(dist(p, q) for q, _, _ in pts) <= 1e-8 * t.diameter
        for q, _, _ in pts:
            # every candidate lies on all three ratio circles
            for (v1, v2, x1, x2) in ((t.vA, t.vB, tp[0], tp[1]),
                                     (t.vB, t.vC, tp[1], tp[2]),
                                     (t.vC, t.vA, tp[2], tp[0])):
                circ = sf.apollonian_circle(v1, v2, x1 / x2)
                assert ratio_residual(circ, q) <= 1e-8


def test_biquadratic_residual_at_roots_and_off_roots():
    rng = random.Random(37)
    for _ in range(25):
        t = sample_triangle(rng)
        p = random_interior(rng, t)
        X, Y, Z = sf.tripolar_of_point(p, t)
        for q, s, _ in sf.tripolar_to_points((X, Y, Z), t):
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
    p = sf.from_barycentric((u, v, 1 - u - v), t)
    tp = sf.tripolar_of_point(p, t)
    pts = sf.tripolar_to_points(tp, t)
    assert min(dist(p, q) for q, _, _ in pts) <= 1e-8 * t.diameter
