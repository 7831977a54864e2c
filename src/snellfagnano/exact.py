"""Exact cross products, tilde numerators and side signs of input floats.

A float is an integer over a power of two (float.as_integer_ratio), so
floats written over their largest denominator are ints, in which every
polynomial of them is exact.  cross takes three points' ints and K2 =
(B - A) x (C - A), Shewchuk's orient2d taken exactly, which Triangle and
the river read.  For a counterclockwise triangle's ints and K2 and a
triple (lam_A : lam_B : lam_C), numerators takes x = lam_A^2 |BC|^2 and
cyclically, d_V the dot product of the two edges leaving V, H = 2(xy +
yz + zx) - x^2 - y^2 - z^2 = S^2 (S four times the tilde area), X_A = y
+ z - x and G+-_A = X_A +- 2 lam_B lam_C d_A = 2qr (cos A~ +- cos A).  So
the tilde triangle exists exactly when H > 0, and G+_A has the sign of
pi - (A + A~).  sines takes sin(A +- A~) by the half-angle identity 2 G
sigma / (G^2 + sigma^2), sigma = 2 lam_B lam_C K2 + S = 2qr (sin A + sin
A~), a sum of positive terms: one quotient of ints, rounded once.  heron
takes H and S of any three squared sides.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt


def _integers(values) -> list[int]:
    """The floats as ints over one power of two, their largest denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    bits = max([d for _, d in ratios]).bit_length()
    return [n << bits - d.bit_length() for n, d in ratios]


def cross(p, q, r) -> tuple[list[int], int, int]:
    """The six coordinates of p, q and r as ints over one power of two d,
    their cross product (q - p) x (r - p), exact, and d."""
    *ints, d = _integers((*p, *q, *r, 1.0))
    px, py, qx, qy, rx, ry = ints
    return ints, (qx - px) * (ry - py) - (qy - py) * (rx - px), d


def heron(x: int, y: int, z: int) -> tuple[int, int | None]:
    """H = 2(xy + yz + zx) - x^2 - y^2 - z^2 of the squares x, y, z of a
    triangle's sides, and S = sqrt(H) times 2^64, rounded down, or None
    where H < 0.  H is sixteen times the squared area, so it is positive
    exactly when the sides satisfy the strict triangle inequality."""
    h = 4 * x * y - (x + y - z) ** 2
    return h, isqrt(h << 128) if h >= 0 else None


class Numerators(namedtuple("Numerators", "squares H X lift P root")):
    """Exact ints at one unit: squares (x, y, z), H, X_V, lift 2 lam_B lam_C
    d_V (so G+-_V = X_V +- lift_V) and P_V = 2 lam_B lam_C K2, one per
    vertex; root is S times 2^64, rounded down, or None where H < 0."""

    __slots__ = ()


def numerators(ints, k2: int, triple) -> Numerators:
    """The tilde numerators of the triple on the counterclockwise triangle
    of the ints and K2 > 0 of cross, as Triangle.unit_exact keeps them."""
    ax, ay, bx, by, cx, cy = ints
    la, lb, lc = _integers(triple)
    ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay, cx - bx, cy - by
    x = la * la * (wx * wx + wy * wy)
    y = lb * lb * (vx * vx + vy * vy)
    z = lc * lc * (ux * ux + uy * uy)
    h, root = heron(x, y, z)
    u_a, u_b, u_c = 2 * lb * lc, 2 * lc * la, 2 * la * lb
    return Numerators(
        (x, y, z), h, (y + z - x, z + x - y, x + y - z),
        (u_a * (ux * vx + uy * vy), -u_b * (wx * ux + wy * uy),
         u_c * (vx * wx + vy * wy)),
        (u_a * k2, u_b * k2, u_c * k2), root)


def sines(n: Numerators, sign: int = 1) -> tuple[float, float, float]:
    """sin(V + V~) (sign 1) or sin(V - V~) (sign -1), one per vertex, each
    the quotient 2 g sigma / (g^2 + sigma^2) of exact ints, rounded once:
    g = G+-_V and sigma = P_V + S, every term taken times 2^64, as root
    is.  H must not be negative."""
    out = []
    for x_v, lift, p in zip(n.X, n.lift, n.P):
        g, sigma = x_v + sign * lift << 64, (p << 64) + n.root
        out.append(2 * g * sigma / (g * g + sigma * sigma))
    return tuple(out)
