import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from snellfagnano import (DegenerateTriangle, Point2, Triangle,
                          TriangleInequalityViolated, altitudes, dist,
                          inscribed_from_params, pedal_triangle, signed_area,
                          triangle_from_sides)
from snellfagnano.geometry import (angles_from_sides, foot_of_perpendicular,
                                   heron_area, intersect_lines, line_parameter,
                                   rotate)

from conftest import sample_triangle


def test_signed_area_right_triangle():
    assert signed_area(Point2(0, 0), Point2(4, 0), Point2(0, 3)) == pytest.approx(6.0)
    assert signed_area(Point2(0, 0), Point2(0, 3), Point2(4, 0)) == pytest.approx(-6.0)


def test_point_algebra():
    p = Point2(1.0, 2.0)
    q = Point2(-3.0, 0.5)
    assert (p + q) == Point2(-2.0, 2.5)
    assert (p - q) == Point2(4.0, 1.5)
    assert 2.0 * p == Point2(2.0, 4.0)
    assert p.dot(q) == pytest.approx(-2.0)
    assert p.cross(q) == pytest.approx(0.5 + 6.0)
    assert abs(p.unit().norm() - 1.0) < 1e-15
    assert p.perp().dot(p) == 0.0


def test_rotate_quarter_turn():
    v = rotate(Point2(1.0, 0.0), math.pi / 2)
    assert dist(v, Point2(0.0, 1.0)) < 1e-15


def test_triangle_345_altitude_to_hypotenuse():
    t = triangle_from_sides(3.0, 4.0, 5.0)
    (fa, ha), (fb, hb), (fc, hc) = altitudes(t)
    # side c = 5 is the hypotenuse; its altitude is 2*area/5 = 12/5
    assert hc == pytest.approx(12.0 / 5.0, rel=1e-12)
    assert t.area == pytest.approx(6.0, rel=1e-12)


def test_equilateral_altitudes():
    t = triangle_from_sides(2.0, 2.0, 2.0)
    for _, h in altitudes(t):
        assert h == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_altitude_area_identity():
    rng = random.Random(11)
    for _ in range(25):
        t = sample_triangle(rng)
        (fa, ha), (fb, hb), (fc, hc) = altitudes(t)
        for side, h in ((t.a, ha), (t.b, hb), (t.c, hc)):
            assert side * h == pytest.approx(2.0 * t.area, rel=1e-12)


def test_triangle_reorients_to_ccw():
    cw = Triangle(Point2(0, 0), Point2(0, 3), Point2(4, 0))
    assert cw.area > 0
    assert set(cw.vertices) == {Point2(0, 0), Point2(0, 3), Point2(4, 0)}
    assert cw.vA == Point2(0, 0)  # labeled vertex A stays put


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        Triangle(Point2(0, 0), Point2(1, 1), Point2(2, 2))


def test_triangle_inequality_rejected():
    with pytest.raises(TriangleInequalityViolated):
        triangle_from_sides(1.0, 2.0, 3.5)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.floats(0.1, 50.0), st.floats(0.1, 50.0), st.floats(0.1, 50.0)))
def test_triangle_from_sides_roundtrip(sides):
    a, b, c = sides
    if a + b <= c * (1 + 1e-6) or b + c <= a * (1 + 1e-6) or c + a <= b * (1 + 1e-6):
        return
    t = triangle_from_sides(a, b, c)
    assert t.a == pytest.approx(a, rel=1e-12)
    assert t.b == pytest.approx(b, rel=1e-12)
    assert t.c == pytest.approx(c, rel=1e-12)
    assert t.alpha + t.beta + t.gamma == pytest.approx(math.pi, rel=1e-12)


def test_triangle_from_sides_places_slivers():
    # the height is 2 area / a; from c^2 - x^2 it cancels to nothing
    for sides in ((1.0, 1e-6, 1.0), (1.0, 1e-8, 1.0)):
        t = triangle_from_sides(*sides)
        for got, want in zip(t.sides, sides):
            assert got == pytest.approx(want, rel=1e-12)


def _exact_area(a, b, c):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    h16 = 2 * (a * a * b * b + b * b * c * c + c * c * a * a) \
        - (a ** 4 + b ** 4 + c ** 4)
    with localcontext() as ctx:
        ctx.prec = 60
        root = (Decimal(h16.numerator) / Decimal(h16.denominator)).sqrt()
        return float(root / 4)


def test_heron_area_needles_and_flat():
    assert heron_area(5.0, 3.0, 4.0) == 6.0
    # Kahan's needles: the naive formula loses most digits on these
    for sides in ((100000.0, 99999.99979, 0.00029), (1.0, 1.0, 1e-12),
                  (0.6595322558449519, 5.440659001432983e-06,
                   0.6595362667903908)):
        for perm in (sides, sides[::-1], sides[1:] + sides[:1]):
            assert heron_area(*perm) == pytest.approx(_exact_area(*sides),
                                                      rel=1e-13)
    assert heron_area(1.0, 1.0, 2.0) == 0.0
    assert heron_area(1.0, 1.0, 3.0) == 0.0


def test_angles_from_sides():
    assert angles_from_sides(3.0, 4.0, 5.0) == pytest.approx(
        (math.atan2(3, 4), math.atan2(4, 3), math.pi / 2), rel=1e-15)
    assert angles_from_sides(1.0, 1.0, 2.0) == (0.0, 0.0, math.pi)
    rng = random.Random(7)
    for _ in range(20):
        t = sample_triangle(rng)
        assert angles_from_sides(*t.sides) == pytest.approx(
            (t.alpha, t.beta, t.gamma), rel=1e-12)


def test_law_of_sines():
    rng = random.Random(5)
    for _ in range(10):
        t = sample_triangle(rng)
        r1 = t.a / math.sin(t.alpha)
        r2 = t.b / math.sin(t.beta)
        r3 = t.c / math.sin(t.gamma)
        assert r1 == pytest.approx(r2, rel=1e-12)
        assert r1 == pytest.approx(r3, rel=1e-12)


def test_pedal_feet_are_perpendicular():
    rng = random.Random(21)
    for _ in range(20):
        t = sample_triangle(rng)
        p = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2))
        it = pedal_triangle(p, t)
        for foot, (q1, q2) in zip(it.points, ((t.vB, t.vC), (t.vC, t.vA),
                                              (t.vA, t.vB))):
            e = (q2 - q1).unit()
            assert abs((foot - p).dot(e)) <= 1e-10 * t.diameter


def test_inscribed_params_and_chords():
    t = Triangle(Point2(0, 0), Point2(4, 0), Point2(0, 3))
    it = inscribed_from_params(t, 0.5, 0.5, 0.5)  # medial triangle
    d1, d2, d3 = it.chord_lengths()
    assert d1 == pytest.approx(t.a / 2, rel=1e-12)
    assert d2 == pytest.approx(t.b / 2, rel=1e-12)
    assert d3 == pytest.approx(t.c / 2, rel=1e-12)
    assert it.tA == 0.5 and it.tB == 0.5 and it.tC == 0.5


def test_line_helpers():
    q1, q2 = Point2(0, 0), Point2(4, 0)
    f = foot_of_perpendicular(Point2(1.0, 2.5), q1, q2)
    assert dist(f, Point2(1.0, 0.0)) < 1e-14
    assert line_parameter(f, q1, q2) == pytest.approx(0.25)
    assert intersect_lines(Point2(0, 0), Point2(1, 1),
                           Point2(0, 1), Point2(1, 2)) is None  # parallel
    p = intersect_lines(Point2(0, 0), Point2(2, 2), Point2(0, 2), Point2(2, 0))
    assert dist(p, Point2(1, 1)) < 1e-14


def test_side_segment_lookup():
    t = Triangle(Point2(0, 0), Point2(4, 0), Point2(0, 3))
    assert t.side_segment("a") == (t.vB, t.vC)
    assert t.side_segment("b") == (t.vC, t.vA)
    assert t.side_segment("c") == (t.vA, t.vB)
