import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from snellfagnano import (BilliardState, DegenerateLine, DegenerateTriangle,
                          GeometryError, Point2, RiverInstance, Triangle,
                          TriangleInequalityViolated, Weights,
                          apollonian_circle, dist, inscribed_from_params,
                          pedal_triangle, signed_area, snell_reflect,
                          triangle_from_sides, tripolar_to_points,
                          verify_snell_point)
from snellfagnano.geometry import EPS_DEGENERATE, point_on_side

from conftest import angles, sample_triangle
from oracles import (altitudes, intersect_lines, is_periodic, side_apex,
                     side_area, vertex_area)


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
    # a length that overflows: divided by the larger component first
    assert Point2(1.7e308, -1.7e308).unit() == Point2(1.0, -1.0).unit()
    u = Point2(1e308, 1.5e308).unit()
    assert u.x == pytest.approx(2 / math.sqrt(13), abs=2e-16)
    assert u.y == pytest.approx(3 / math.sqrt(13), abs=2e-16)


def test_zero_vector_is_refused():
    with pytest.raises(DegenerateLine):
        Point2(0.0, 0.0).unit()


NAN = math.nan
UNIT_RIGHT = Triangle(Point2(0.0, 1.0), Point2(0.0, 0.0), Point2(1.0, 0.0))


@pytest.mark.parametrize("make, message", [
    (lambda: Weights(1.0, NAN, 1.0), "weights must be strictly positive"),
    (lambda: verify_snell_point(Point2(0.25, 0.25), UNIT_RIGHT,
                                (1.0, NAN, 1.0)),
     "coefficients must be strictly positive"),
    (lambda: apollonian_circle(Point2(0.0, 0.0), Point2(1.0, 0.0), NAN),
     "ratio must be positive"),
    (lambda: snell_reflect(Point2(0.0, -1.0), Point2(0.0, 1.0), NAN),
     "refraction coefficient must be positive"),
    (lambda: RiverInstance(Point2(0.0, 1.0), Point2(1.0, 1.0),
                           (Point2(0.0, 0.0), Point2(1.0, 0.0)), NAN, 1.0),
     "leg weights must be positive"),
    (lambda: triangle_from_sides(1.0, NAN, 1.0),
     "side lengths must be positive"),
    (lambda: tripolar_to_points((1.0, NAN, 1.0), UNIT_RIGHT),
     "tripolar distances must be >= 0"),
], ids=["Weights", "verify_snell_point", "apollonian_circle", "snell_reflect",
        "RiverInstance", "triangle_from_sides", "tripolar_to_points"])
def test_nan_is_refused_as_not_positive(make, message):
    """A NaN in any place fails the positivity check it meets."""
    with pytest.raises(GeometryError, match=message):
        make()


INF = float("inf")


@pytest.mark.parametrize("vertices", [
    ((NAN, 0.0), (0.0, 0.0), (1.0, 0.0)),
    ((0.0, 1.0), (0.0, 0.0), (NAN, 0.0)),
    ((0.0, 1.0), (0.0, NAN), (1.0, 0.0)),
    ((INF, 1.0), (0.0, 0.0), (1.0, 0.0)),
    ((0.0, 1.0), (0.0, 0.0), (1.0, -INF)),
    ((INF, INF), (INF, 0.0), (1.0, 0.0)),
], ids=["nan-A", "nan-C", "nan-y", "inf", "minus-inf", "all-inf"])
def test_non_finite_vertices_are_refused(vertices):
    """A NaN or an infinity in any coordinate gets its own refusal, not a
    triangle of NaN sides or a "too large" one."""
    with pytest.raises(GeometryError, match="vertices must be finite"):
        Triangle(*vertices)


def test_triangle_345_altitude_to_hypotenuse():
    t = triangle_from_sides(3.0, 4.0, 5.0)
    (fa, ha), (fb, hb), (fc, hc) = altitudes(t)
    # side c = 5 is the hypotenuse; its altitude is 2*area/5 = 12/5
    assert hc == pytest.approx(12.0 / 5.0, rel=1e-12)
    assert t.unit_area * t.scale ** 2 == pytest.approx(6.0, rel=1e-12)


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
            assert side * h == pytest.approx(
                2.0 * t.unit_area * t.scale ** 2, rel=1e-12)


def test_triangle_reorients_to_ccw():
    cw = Triangle(Point2(0, 0), Point2(0, 3), Point2(4, 0))
    assert cw.unit_area > 0
    assert set(cw.vertices) == {Point2(0, 0), Point2(0, 3), Point2(4, 0)}
    assert cw.vA == Point2(0, 0)  # labeled vertex A stays put


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        Triangle(Point2(0, 0), Point2(1, 1), Point2(2, 2))


def test_degeneracy_verdict_keeps_at_both_ends_of_the_range():
    """Shapes whose area / diameter^2 lies within 0.1 % of the 1e-12 rule
    get the same verdict, unit area and heights (times the scale)
    at 2^-510 and 2^500: the area is taken of the unit vertices, where at
    2^-510 it would go subnormal."""
    rng = random.Random(3)
    for _ in range(5000):
        h = 2e-12 * (1.0 + rng.uniform(-1e-3, 1e-3))
        shape = [(0.0, 0.0), (1.0, 0.0), (rng.uniform(-0.5, 1.5), h)]
        rng.shuffle(shape)
        seen = set()
        for k in (0, -510, 500):
            f = math.ldexp(1.0, k)
            try:
                t = Triangle(*[(x * f, y * f) for x, y in shape])
            except DegenerateTriangle:
                seen.add(None)
                continue
            seen.add((t.unit_area, tuple(x / f for x in t.heights)))
        assert len(seen) == 1, (shape, seen)


def test_triangle_inequality_rejected():
    with pytest.raises(TriangleInequalityViolated):
        triangle_from_sides(1.0, 2.0, 3.5)


def test_needle_whose_area_underflows_is_degenerate_not_impossible():
    # 1 + 1e-200 rounds to 1, but the exact H of the sides is positive;
    # a product of Heron's four factors in floats would underflow.
    with pytest.raises(DegenerateTriangle,
                       match=r"collinear.*\(area 5e-201\)"):
        triangle_from_sides(1.0, 1.0, 1e-200)
    for sides in ((1.0, 2.0, 1.0), (1.0, 1.0, 2.0 + 2.0 ** -51)):
        with pytest.raises(TriangleInequalityViolated):
            triangle_from_sides(*sides)


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
    assert sum(angles(t)) == pytest.approx(math.pi, rel=1e-12)


def test_triangle_from_sides_places_slivers():
    # the height is 2 area / a; from c^2 - x^2 it cancels to nothing
    for sides in ((1.0, 1e-6, 1.0), (1.0, 1e-8, 1.0)):
        t = triangle_from_sides(*sides)
        for got, want in zip((t.a, t.b, t.c), sides):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_triangle_from_sides_places_kahan_needles():
    """Kahan's needles, on which the naive Heron formula loses most digits,
    get the exact area (oracles.side_area): the two Triangle accepts as
    a times A's height over 2, the thinner ones in the message that
    refuses them as collinear.  Flat and impossible sides are
    refused before any placement."""
    for sides in ((100000.0, 99999.99979, 0.00029), (1.0, 1.0, 1e-12),
                  (0.6595322558449519, 5.440659001432983e-06,
                   0.6595362667903908), (1.0, 1.0, 1e-160),
                  (1.0, 1.0, 1e-200)):
        for perm in (sides, sides[::-1], sides[1:] + sides[:1]):
            try:
                t = triangle_from_sides(*perm)
            except DegenerateTriangle as e:
                area = float(re.search(r"\(area (.*)\)", str(e)).group(1))
                assert area == pytest.approx(side_area(*perm), rel=1e-5)
                continue
            assert t.vA.y * perm[0] / 2 == pytest.approx(
                side_area(*perm), rel=1e-13, abs=0.0)
    for sides in ((1.0, 1.0, 2.0), (1.0, 1.0, 3.0)):
        with pytest.raises(TriangleInequalityViolated):
            triangle_from_sides(*sides)


def test_kahan_needle_gets_its_exact_area():
    """Kahan's needle gets its exact area, within 2 ulps of
    oracles.side_area, in every side order and every vertex order, and
    the needle the 1e-12 rule refuses prints its area to 6 digits."""
    sides = (0.00029, 100000.0, 99999.99979)
    exact = side_area(*sides)
    for perm in itertools.permutations(sides):
        t = triangle_from_sides(*perm)
        assert abs(t.unit_area * t.scale ** 2 - exact) <= 2 * math.ulp(exact)
        for vertices in itertools.permutations(t.vertices):
            u = Triangle(*vertices)
            assert abs(u.unit_area * u.scale ** 2 - exact) <= \
                2 * math.ulp(exact)
    with pytest.raises(DegenerateTriangle, match=r"\(area 1\.69139e-14\)"):
        triangle_from_sides(2.6243860778497024e-13, 0.13128531558505827,
                            0.1312853155851081)


def test_degenerate_message_prints_the_unsigned_area():
    for vertices in (((0, 0), (0.5, 1e-13), (1, 0)),
                     ((0, 0), (1, 0), (0.5, 1e-13))):
        with pytest.raises(DegenerateTriangle, match=r"\(area 5e-14\)"):
            Triangle(*vertices)


def _placed(rng, shape, size, shift):
    """The vertices of shape (a list of (x, y)) times size, rotated by a
    random angle and shifted by up to shift sizes, as floats."""
    angle = rng.uniform(0, 2 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = (size * rng.uniform(-shift, shift) for _ in "xy")
    return [(dx + size * (c * x - s * y), dy + size * (s * x + c * y))
            for x, y in shape]


def test_area_is_the_exact_area_of_the_given_floats():
    """Needles (the apex within sqrt(h) L of B, so its short side is far
    longer than its height h L) and slivers (the apex over the base) with
    base L = 10^U(-3, 3) and h = 10^U(-11, -2), rotated and shifted by up
    to 1000 L, in both vertex orders: the area is within an epsilon of the
    exact area of the given floats, where a float cross product of their
    rounded edges loses up to 5e9 epsilons."""
    rng = random.Random(38)
    for k in range(4000):
        h = 10.0 ** rng.uniform(-11, -2)
        x = 1.0 + math.sqrt(h) * rng.uniform(-1, 1) if k % 2 else \
            rng.uniform(0, 1)
        v = _placed(rng, [(0.0, 0.0), (1.0, 0.0), (x, h)],
                    10.0 ** rng.uniform(-3, 3), 1000)
        exact = vertex_area(*v)
        for order in (v, v[::-1]):
            t = Triangle(*order)
            got = Fraction(t.unit_area) * Fraction(t.scale) ** 2
            assert abs(got - exact) <= exact * math.ulp(1.0), (order, k)


def test_degeneracy_verdict_is_the_exact_area_rule():
    """Triangles whose area / diameter^2 is within 0.1 % of the 1e-12 rule,
    rotated and shifted by up to 10 bases, where the float edges round:
    each is refused exactly when the exact area of its floats is at most
    the float EPS_DEGENERATE d d of its diameter d."""
    rng = random.Random(21)
    for _ in range(10000):
        x = rng.uniform(-0.5, 1.5)
        h = 2e-12 * (1.0 + rng.uniform(-1e-3, 1e-3)) * max(x, 1 - x, 1) ** 2
        v = _placed(rng, [(0.0, 0.0), (1.0, 0.0), (x, h)],
                    10.0 ** rng.uniform(-3, 3), 10)
        d = max(math.dist(v[0], v[1]), math.dist(v[1], v[2]),
                math.dist(v[2], v[0]))
        try:
            Triangle(*v)
            kept = True
        except DegenerateTriangle:
            kept = False
        assert kept == (vertex_area(*v) > EPS_DEGENERATE * d * d), v


def test_unit_exact_holds_the_unit_vertices_and_their_cross():
    """unit_exact's ints are the unit vertices over their one denominator d,
    with B and C swapped as the vertices are, and its K2 is their cross
    product, positive; unit_area is K2 / 2d^2 rounded once."""
    rng = random.Random(39)
    for _ in range(200):
        v = _placed(rng, [(0.0, 0.0), (1.0, 0.0),
                          (rng.uniform(-1, 2), rng.uniform(1e-6, 1))],
                    10.0 ** rng.uniform(-3, 3), 1000)
        for order in (v, v[::-1]):
            t = Triangle(*order)
            ints, k2 = t.unit_exact
            floats = [c for p in t.unit_vertices for c in p]
            d = max(Fraction(f).denominator for f in floats)
            assert [Fraction(i, d) for i in ints] == \
                [Fraction(f) for f in floats]
            ax, ay, bx, by, cx, cy = ints
            assert k2 == (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0
            assert t.unit_area == k2 / (2 * d * d)


def _side_triples(rng):
    """Side triples: random ones, needles whose short side is down to
    1e-12 of the others, slivers whose longest side is short of the other
    two's sum by down to 1e-12 of it, and the short-side family of
    test_cli (vertices (0, 0), (r, 0), (u r, 1)) scaled by 2^-510 and
    2^500, each in a random order."""
    for _ in range(2000):
        yield [rng.uniform(0.1, 1.0) for _ in "abc"]
    for _ in range(1500):
        m = rng.uniform(0.5, 1.0)
        s = m * 10.0 ** rng.uniform(-12.0, -1.0)
        if rng.random() < 0.5:
            yield rng.sample([m + s * rng.uniform(-1.0, 1.0), m, s], 3)
        else:
            yield rng.sample([(m + s) * (1.0 - 10.0 ** rng.uniform(-12.0, -2.0)),
                              m, s], 3)
    for _ in range(400):
        r, u = 10.0 ** rng.uniform(-11.5, -4), rng.uniform(-0.5, 1.5)
        sides = [math.hypot(u * r - r, 1.0), math.hypot(u * r, 1.0), r]
        for k in (-510, 500):
            yield rng.sample([math.ldexp(v, k) for v in sides], 3)


def test_triangle_from_sides_places_a_within_an_ulp():
    """A's x and height are each within an ulp of the 60-digit placement
    of the input floats (oracles.side_apex), on random sides, needles,
    slivers and the short-side family at both ends of the accepted
    diameters.  Sides the exact area refuses are refused, and only the
    degenerate ones are not placed."""
    rng = random.Random(37)
    placed = 0
    for sides in _side_triples(rng):
        x, h = side_apex(*sides)
        try:
            t = triangle_from_sides(*sides)
        except TriangleInequalityViolated:
            assert h == 0, sides
            continue
        except DegenerateTriangle:
            continue
        for got, want in zip(t.vA, (x, h)):
            assert abs(Decimal(got) - want) <= Decimal(math.ulp(got)), sides
        placed += 1
    assert placed >= 3000


def test_law_of_sines():
    rng = random.Random(5)
    for _ in range(10):
        t = sample_triangle(rng)
        alpha, beta, gamma = angles(t)
        r1 = t.a / math.sin(alpha)
        r2 = t.b / math.sin(beta)
        r3 = t.c / math.sin(gamma)
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


def test_inscribed_points_are_points_on_sides():
    rng = random.Random(11)
    for _ in range(200):
        t = sample_triangle(rng, min_angle=0.05)
        params = [rng.uniform(-0.5, 1.5) for _ in range(3)]
        it = inscribed_from_params(t, *params)
        assert it.points == tuple(point_on_side(t, side, p)
                                  for side, p in zip("abc", params))


def test_line_helpers():
    q1, q2 = Point2(0, 0), Point2(4, 0)
    t = Triangle(Point2(0, 3), q1, q2)  # side a runs from q1 to q2
    f = point_on_side(t, "a", pedal_triangle(Point2(1.0, 2.5), t).tA)
    assert dist(f, Point2(1.0, 0.0)) < 1e-14
    assert pedal_triangle(f, t).tA == pytest.approx(0.25)
    assert intersect_lines(Point2(0, 0), Point2(1, 1),
                           Point2(0, 1), Point2(1, 2)) is None  # parallel
    p = intersect_lines(Point2(0, 0), Point2(2, 2), Point2(0, 2), Point2(2, 0))
    assert dist(p, Point2(1, 1)) < 1e-14


T345 = Triangle(Point2(0, 0), Point2(4, 0), Point2(0, 3))


@pytest.mark.parametrize("refusal, args", [
    (verify_snell_point, (Point2(1, 1), T345, (0.0, 1.0, 1.0))),
    (snell_reflect, (Point2(0, -1), Point2(0, 1), 0.0)),
    (apollonian_circle, (Point2(0, 0), Point2(1, 0), 0.0)),
    (apollonian_circle, (Point2(1, 0), Point2(1, 0), 2.0)),
    (is_periodic, (BilliardState("a", 0.5, Point2(-0.6, -0.8)), T345,
                   (1.0, 1.0, 1.0), 0, 1e-8)),
    (T345.side_segment, ("d",)),
], ids=["coefficient-not-positive", "kappa",
        "apollonius-ratio", "apollonius-base", "periodic-steps",
        "unknown-side"])
def test_library_refusals_are_geometry_errors(refusal, args):
    with pytest.raises(GeometryError):
        refusal(*args)


def test_side_segment_lookup():
    t = Triangle(Point2(0, 0), Point2(4, 0), Point2(0, 3))
    assert t.side_segment("a") == (t.vB, t.vC)
    assert t.side_segment("b") == (t.vC, t.vA)
    assert t.side_segment("c") == (t.vA, t.vB)
