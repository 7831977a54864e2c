import math
import random
import sys
from decimal import Decimal as D, localcontext

import pytest

import snellfagnano as sf
from snellfagnano import (Point2, Triangle, Weights, dist,
                          triangle_from_sides)
from snellfagnano.apollonius import (apollonian_circle,
                                     apollonian_common_points, tilde_triangle)
from snellfagnano.coordinates import unit_scaled

from conftest import (angles, circumcenter_oracle, sample_acute_triangle,
                      sample_admissible, sample_random_setup, sample_triangle,
                      sample_weights, side_angles, tilde_slack)
from oracles import circumcircle, ratio_residual


# ---------------------------------------------------------------------------
# single circles

def test_ratio_two_circle():
    c = apollonian_circle(Point2(0, 0), Point2(3, 0), 2.0)
    assert c.kind == "circle"
    assert dist(c.center, Point2(4.0, 0.0)) < 1e-12
    assert c.radius == pytest.approx(2.0, rel=1e-12)


def test_ratio_half_circle():
    c = apollonian_circle(Point2(0, 0), Point2(3, 0), 0.5)
    assert c.kind == "circle"
    assert dist(c.center, Point2(-1.0, 0.0)) < 1e-12
    assert c.radius == pytest.approx(2.0, rel=1e-12)


def test_ratio_one_is_bisector():
    c = apollonian_circle(Point2(0, 0), Point2(3, 0), 1.0)
    assert c.kind == "bisector"
    assert dist(c.point, Point2(1.5, 0.0)) < 1e-12
    assert abs(c.direction.dot(Point2(1, 0))) < 1e-12


def test_division_points_span_diameter():
    rng = random.Random(41)
    for _ in range(30):
        p1 = Point2(rng.uniform(-4, 4), rng.uniform(-4, 4))
        p2 = Point2(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if dist(p1, p2) < 0.2:
            continue
        r = math.exp(rng.uniform(-1.2, 1.2))
        if abs(r - 1.0) < 1e-3:
            continue
        c = apollonian_circle(p1, p2, r)
        m = p1 + (r / (1 + r)) * (p2 - p1)       # internal division
        n = p1 + (r / (r - 1)) * (p2 - p1)       # external division
        assert abs(dist(m, c.center) - c.radius) <= 1e-10 * c.radius
        assert abs(dist(n, c.center) - c.radius) <= 1e-10 * c.radius
        assert dist(m, n) == pytest.approx(2 * c.radius, rel=1e-10)
        # sampled points on the circle satisfy the distance ratio
        for k in range(8):
            ang = 2 * math.pi * k / 8
            q = c.center + Point2(c.radius * math.cos(ang),
                                  c.radius * math.sin(ang))
            assert ratio_residual(c, q) <= 1e-9


def test_circle_requires_positive_ratio():
    with pytest.raises(ValueError):
        apollonian_circle(Point2(0, 0), Point2(1, 0), -2.0)


# ---------------------------------------------------------------------------
# tilde triangle

def test_tilde_identity_weights_similar():
    """With equal weights the tilde triangle is the reference one, so each
    V + V~ = 2V and sin(V + V~) = sin 2V, and lift_V = X_V, so the gap
    G+_V is 2 X_V."""
    rng = random.Random(43)
    t = sample_triangle(rng)
    tt = tilde_triangle(t, Weights(1, 1, 1))
    assert tt.exists
    n = tt.numerators
    assert n.lift == n.X
    for s, ang in zip(tt.sines, angles(t)):
        assert s == pytest.approx(math.sin(2.0 * ang), rel=1e-12, abs=0.0)


def test_tilde_boundary_fails():
    """Sides 3, 4, 5 are exact, so weights (1, 1, 2) make the flat tilde
    sides (5, 3, 8): H = 0, no tilde triangle."""
    t = Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(0.0, 3.0))
    tt = tilde_triangle(t, Weights(1.0, 1.0, 2.0))
    assert tt.numerators.H == 0
    assert not tt.exists


def test_tilde_reciprocal_sides_equilateral():
    """Weights (1/a : 1/b : 1/c): every tilde angle is pi/3, so
    sin(V + V~) = sin(V + pi/3)."""
    rng = random.Random(44)
    t = sample_triangle(rng)
    tt = tilde_triangle(t, Weights(1 / t.a, 1 / t.b, 1 / t.c))
    assert tt.exists
    for s, ang in zip(tt.sines, angles(t)):
        assert s == pytest.approx(math.sin(ang + math.pi / 3.0), rel=1e-12,
                                  abs=0.0)


def test_tilde_law_of_cosines_consistency():
    """X_A^2 + H = 4yz, the cosine and sine of each tilde angle, holds
    exactly in the integers, and cyclically."""
    rng = random.Random(45)
    for _ in range(20):
        t = sample_triangle(rng)
        w = sample_weights(rng)
        n = tilde_triangle(t, w).numerators
        x, y, z = n.squares
        for xv, u, v in zip(n.X, (y, z, x), (z, x, y)):
            assert xv * xv + n.H == 4 * u * v


def _sines_reference(t, w):
    """sin(V + V~), one per vertex, to 60 digits from the floats of
    t.unit_vertices and the unit_scaled weights."""
    with localcontext() as ctx:
        ctx.prec = 60
        v = [(D(x), D(y)) for x, y in t.unit_vertices]
        lam = [D(u) for u in unit_scaled(w)]
        sq = [(v[(i + 2) % 3][0] - v[(i + 1) % 3][0]) ** 2
              + (v[(i + 2) % 3][1] - v[(i + 1) % 3][1]) ** 2 for i in range(3)]
        p, q, r = (u * s.sqrt() for u, s in zip(lam, sq))
        area4 = ((p + q + r) * (q + r - p) * (r + p - q) * (p + q - r)).sqrt()
        k2 = abs((v[1][0] - v[0][0]) * (v[2][1] - v[0][1])
                 - (v[1][1] - v[0][1]) * (v[2][0] - v[0][0]))
        out = []
        for i, (u, wv) in enumerate(((q, r), (r, p), (p, q))):
            a2, b2, c2 = sq[i], sq[(i + 1) % 3], sq[(i + 2) % 3]
            bc = (b2 * c2).sqrt()
            tu = (p, q, r)[i]
            out.append(k2 / bc * (u * u + wv * wv - tu * tu) / (2 * u * wv)
                       + (b2 + c2 - a2) / (2 * bc) * area4 / (2 * u * wv))
        return out


def test_tilde_sines_match_a_60_digit_reference():
    """On the random set-up and on needle tilde triangles (p, 1, 1 + U(-0.99,
    0.99) p, p = e^U(-35, 0)), each sin(V + V~) is within 1.5 epsilon of
    its exact value from the same floats: it is one rounding of an exact
    quotient (0.49 was the worst over 600 draws)."""
    rng = random.Random(46)
    eps = D(sys.float_info.epsilon)
    for i in range(600):
        t, w = sample_random_setup(rng)
        if i % 2:
            pt = math.exp(rng.uniform(-35.0, 0.0))
            tilde = [pt, 1.0, 1.0 + rng.uniform(-0.99, 0.99) * pt]
            rng.shuffle(tilde)
            w = Weights(*(u / v for u, v in zip(tilde, (t.a, t.b, t.c))))
        tt = tilde_triangle(t, w)
        if not tt.exists:
            continue
        for s, ref in zip(tt.sines, _sines_reference(t, w)):
            assert abs(D(s) - ref) <= D(1.5) * eps * abs(ref), (t, w)


# ---------------------------------------------------------------------------
# circumcircle

def test_circumcircle_equilateral():
    t = triangle_from_sides(1.0, 1.0, 1.0)
    center, radius = circumcircle(t)
    assert radius == pytest.approx(1 / math.sqrt(3), rel=1e-12)


def test_circumcircle_345_thales():
    t = triangle_from_sides(3.0, 4.0, 5.0)
    center, radius = circumcircle(t)
    assert radius == pytest.approx(2.5, rel=1e-12)
    mid_ab = Point2((t.vA.x + t.vB.x) / 2, (t.vA.y + t.vB.y) / 2)
    assert dist(center, mid_ab) < 1e-12  # hypotenuse c = AB


def test_circumcircle_equidistance():
    rng = random.Random(47)
    for _ in range(15):
        t = sample_triangle(rng)
        center, radius = circumcircle(t)
        for v in t.vertices:
            assert dist(center, v) == pytest.approx(radius, rel=1e-12)


# ---------------------------------------------------------------------------
# common points

def test_unit_weights_single_point_circumcenter():
    rng = random.Random(49)
    for _ in range(10):
        t = sample_triangle(rng)
        pts = apollonian_common_points(t, Weights(1, 1, 1))
        assert len(pts) == 1
        assert dist(pts[0], circumcenter_oracle(t)) <= 1e-9 * t.diameter


def test_generic_weights_two_inverse_points():
    rng = random.Random(50)
    count = 0
    while count < 25:
        t, w = sample_admissible(rng)
        pts = apollonian_common_points(t, w)
        if len(pts) != 2:
            continue
        count += 1
        o, radius = circumcircle(t)
        p, q = pts
        d1, d2 = dist(p, o), dist(q, o)
        assert d1 * d2 == pytest.approx(radius * radius, rel=1e-8)
        # same ray from the circumcenter
        cross = (p - o).cross(q - o)
        assert abs(cross) <= 1e-8 * (d1 * d2)
        assert (p - o).dot(q - o) > 0.0


def test_orthogonal_to_circumcircle():
    rng = random.Random(51)
    for _ in range(20):
        t = sample_triangle(rng)
        w = sample_weights(rng)
        o, radius = circumcircle(t)
        for (v1, v2, r) in ((t.vA, t.vB, w.lam_A / w.lam_B),
                            (t.vB, t.vC, w.lam_B / w.lam_C),
                            (t.vC, t.vA, w.lam_C / w.lam_A)):
            circ = apollonian_circle(v1, v2, r)
            if circ.kind != "circle":
                continue
            lhs = dist(circ.center, o) ** 2
            assert lhs == pytest.approx(radius ** 2 + circ.radius ** 2,
                                        rel=1e-8)


def test_near_equal_weights_stay_on_all_three_circles():
    # as the weights approach equality, one common point runs off to
    # infinity; both must still lie on every ratio circle
    rng = random.Random(54)
    for k in range(2, 13):
        spread = 10.0 ** -k
        for _ in range(20):
            t = sample_triangle(rng)
            w = Weights(*(1.0 + spread * rng.uniform(-1.0, 1.0)
                          for _ in range(3)))
            pts = apollonian_common_points(t, w)
            assert pts
            for p in pts:
                for (v1, v2, r) in ((t.vA, t.vB, w.lam_A / w.lam_B),
                                    (t.vB, t.vC, w.lam_B / w.lam_C),
                                    (t.vC, t.vA, w.lam_C / w.lam_A)):
                    assert ratio_residual(apollonian_circle(v1, v2, r),
                                          p) <= 1e-12


def test_ptolemy_inequality_at_common_points():
    rng = random.Random(52)
    done = 0
    while done < 20:
        t, w = sample_admissible(rng)
        pts = apollonian_common_points(t, w)
        if not pts:
            continue
        done += 1
        for p in pts:
            da, db, dc = dist(p, t.vA), dist(p, t.vB), dist(p, t.vC)
            slack = 1e-9 * t.diameter ** 2
            assert t.a * da <= t.b * db + t.c * dc + slack
            assert t.b * db <= t.c * dc + t.a * da + slack
            assert t.c * dc <= t.a * da + t.b * db + slack


def test_existence_matches_tilde_triangle():
    rng = random.Random(53)
    agree = 0
    trials = 0
    while trials < 120:
        t = sample_triangle(rng)
        w = sample_weights(rng, spread=1.0)
        if abs(tilde_slack(t, w)) <= 1e-6:
            continue
        trials += 1
        exists_circles = bool(apollonian_common_points(t, w))
        exists_tilde = tilde_triangle(t, w).exists
        assert exists_circles == exists_tilde
        agree += 1
    assert agree == trials


def test_boundary_tilde_tangency_on_circumcircle():
    """The flat tilde triangle (5, 3, 8) of the exact 3-4-5 sides: H = 0,
    so the two points meet, on the circumcircle."""
    t = Triangle(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(0.0, 3.0))
    pts = apollonian_common_points(t, Weights(1.0, 1.0, 2.0))
    assert len(pts) == 1
    o, radius = circumcircle(t)
    assert dist(pts[0], o) == pytest.approx(radius, rel=1e-6)
