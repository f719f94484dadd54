"""The order-2 twisted orbifold of a lattice net.

The four trace functions Z1..Z4 of the orbifold construction and the
sector characters of the fixed-point net, as plain series, and the orbifold
vacuum character (Z1 + Z2)/2 + beta1, a NetCharacter like the lattice
net's.  The twisted sector is one expansion: Z4 is Z3 under
q^{1/2} -> -q^{1/2}, and beta1 is the integer-weight part of Z3.
The orbifold net is holomorphic, so its vacuum character is completed
like the theta route's from the pieces expanded only d/24 q-steps; read
off pieces expanded to full order it is the tests' oracle and what
`orbifold-char --pieces` prints beside them.  Orders and weights are
exponents, passed to and read from qseries, which alone stores series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Tuple

from .codes import BinaryCode, check_holomorphic_hypotheses
from .netchar import HALF, NetCharacter, _assert_vacuum, _holomorphic_char, theta_over_eta
from .qseries import QSeries, eta_power, order_above, product_form


class OrbifoldPieces(NamedTuple):
    """The four trace functions of the order-2 orbifold at rank d.

    z1 is the untwisted character, z2 its sign-twisted trace, z3 and z4
    the two twisted-sector traces, z4 = z3(-q^{1/2}).
    """

    d: int
    z1: QSeries
    z2: QSeries
    z3: QSeries
    z4: QSeries


def orbifold_pieces(code: BinaryCode, variant: str, steps: int = 5) -> OrbifoldPieces:
    """Compute Z1..Z4 for the lattice built from `code`.

    Z1 = Theta/eta^d, Z2 = q^{-d/24} prod(1+q^n)^{-d}, expanded as
    q^{-d/24} prod(1-q^{2n-1})^d (distinct parts are odd parts),
    Z3 = 2^{d/2} q^{d/48} prod(1-q^{n-1/2})^{-d},
    Z4 = 2^{d/2} q^{d/48} prod(1+q^{n-1/2})^{-d}, read off Z3 as its terms
    an even number of half-steps above q^{d/48} minus the odd ones.

    The construction needs a holomorphic lattice net, so `code` must be
    self-dual as well as pass the lattice hypotheses.
    """
    check_holomorphic_hypotheses(code)
    d = code.length
    z1 = theta_over_eta(code, variant, steps).series
    # each product is kept `steps` q-steps above its constant term
    exact = order_above(0, steps)
    z2 = product_form(1, 2, d, exact).shift(Fraction(-d, 24))
    ground = Fraction(d, 48)
    z3 = product_form(HALF, 1, -d, exact).shift(ground).scale(1 << (d // 2))
    even, odd = z3.half_steps(ground)
    return OrbifoldPieces(d, z1, z2, z3, even - odd)


def fixed_point_sector_chars(p: OrbifoldPieces) -> Tuple[QSeries, QSeries, QSeries, QSeries]:
    """Characters of the four sectors of the fixed-point net.

    Untwisted pair (Z1 +- Z2)/2; twisted pair beta1, beta2, where beta1
    holds the terms of Z3 at integer weight above the vacuum q^{-d/24}
    and beta2 the rest.  That is the member of (Z3 +- Z4)/2 of integer
    weight.
    """
    b1, b2 = p.z3.half_steps(Fraction(-p.d, 24))
    return (p.z1 + p.z2).half(), (p.z1 - p.z2).half(), b1, b2


def orbifold_vacuum_char(code: BinaryCode, variant: str, steps: int = 5) -> NetCharacter:
    """Vacuum character of the twisted orbifold: (Z1 + Z2)/2 + beta1.

    The orbifold net is holomorphic, so its character times eta^d is a
    modular form of weight d/2 (Zhu), as Theta is for the lattice net.  The
    pieces are expanded only the d/24 q-steps that fix that form, and
    netchar's completion gives the rest.
    """
    d = code.length
    top = d // 24
    vacuum = vacuum_char_from_pieces(orbifold_pieces(code, variant, top)).series
    # exact below q^{top + 1/48}, past the form's last fitted coefficient
    form = vacuum * eta_power(d, Fraction(top + 1) + Fraction(d, 24))
    return _holomorphic_char(form, d, steps)


def vacuum_char_from_pieces(p: OrbifoldPieces) -> NetCharacter:
    """The orbifold vacuum character (Z1 + Z2)/2 + beta1 of computed pieces."""
    a_plus, _, b1, _ = fixed_point_sector_chars(p)
    series = a_plus + b1
    _assert_vacuum(series, p.d)
    return NetCharacter(series, Fraction(p.d))
