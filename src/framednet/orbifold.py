"""The order-2 twisted orbifold of a lattice net.

The four trace functions Z1..Z4 of the orbifold construction, the sector
characters of the fixed-point net, and the orbifold vacuum character
(Z1 + Z2)/2 + beta1.  The sign convention selecting beta1 among the
twisted combinations is validated only at ranks 8 and 24; other ranks
are computed but flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .codes import BinaryCode, check_holomorphic_hypotheses
from .netchar import NetCharacter, _char_order_num, theta_over_eta
from .qseries import DEN, QSeries, product_form, to_num

VALIDATED_RANKS = (8, 24)


@dataclass(frozen=True)
class OrbifoldPieces:
    """The four trace functions of the order-2 orbifold at rank d.

    z1 is the untwisted character, z2 its sign-twisted trace, z3 and z4
    the two twisted-sector traces.  `sign_validated` is False at ranks
    where the beta1 sign convention is not pinned down (all but 8, 24).
    """

    d: int
    z1: NetCharacter
    z2: NetCharacter
    z3: NetCharacter
    z4: NetCharacter
    sign_validated: bool

    def twisted_ground_weight(self) -> Fraction:
        return Fraction(self.d, 16)


def orbifold_pieces(code: BinaryCode, variant: str, steps: int = 5) -> OrbifoldPieces:
    """Compute Z1..Z4 for the lattice built from `code`.

    Z1 = Theta/eta^d, Z2 = q^{-d/24} prod(1+q^n)^{-d},
    Z3 = 2^{d/2} q^{d/48} prod(1-q^{n-1/2})^{-d},
    Z4 = 2^{d/2} q^{d/48} prod(1+q^{n-1/2})^{-d}.

    The construction needs a holomorphic lattice net, so `code` must be
    self-dual as well as pass the lattice hypotheses.
    """
    check_holomorphic_hypotheses(code)
    d = code.length
    z1 = theta_over_eta(code, variant, steps)
    order = Fraction(_char_order_num(Fraction(-d, 24), steps), DEN)
    c = Fraction(d)
    z2 = product_form("1+q^n", -d, order + Fraction(d, 24)).shift(Fraction(-d, 24))
    tw_order = Fraction(_char_order_num(Fraction(d, 48), steps), DEN)
    z3 = (
        product_form("1-q^{n-1/2}", -d, tw_order - Fraction(d, 48))
        .shift(Fraction(d, 48))
        .scale(1 << (d // 2))
    )
    z4 = (
        product_form("1+q^{n-1/2}", -d, tw_order - Fraction(d, 48))
        .shift(Fraction(d, 48))
        .scale(1 << (d // 2))
    )
    return OrbifoldPieces(
        d,
        NetCharacter(z1.series, c),
        NetCharacter(z2, c),
        NetCharacter(z3, c),
        NetCharacter(z4, c),
        d in VALIDATED_RANKS,
    )


def fixed_point_sector_chars(
    p: OrbifoldPieces,
) -> Tuple[NetCharacter, NetCharacter, NetCharacter, NetCharacter]:
    """Characters of the four sectors of the fixed-point net.

    Untwisted pair (Z1 +- Z2)/2; twisted pair beta1, beta2 where beta1 is
    the integer-weight member: (Z3 - Z4)/2 when the twisted ground weight
    d/16 is a half-integer, else (Z3 + Z4)/2.
    """
    c = Fraction(p.d)
    a_plus = (p.z1.series + p.z2.series).half()
    a_minus = (p.z1.series - p.z2.series).half()
    ground_is_half_integer = (2 * p.twisted_ground_weight()) % 1 == 0 and (
        p.twisted_ground_weight() % 1 != 0
    )
    if ground_is_half_integer:
        b1 = (p.z3.series - p.z4.series).half()
        b2 = (p.z3.series + p.z4.series).half()
    else:
        b1 = (p.z3.series + p.z4.series).half()
        b2 = (p.z3.series - p.z4.series).half()
    return (
        NetCharacter(a_plus, c),
        NetCharacter(a_minus, c),
        NetCharacter(b1, c),
        NetCharacter(b2, c),
    )


def orbifold_vacuum_char(code: BinaryCode, variant: str, steps: int = 5) -> NetCharacter:
    """Vacuum character of the twisted orbifold: (Z1 + Z2)/2 + beta1."""
    return vacuum_char_from_pieces(orbifold_pieces(code, variant, steps))


def vacuum_char_from_pieces(p: OrbifoldPieces) -> NetCharacter:
    """The orbifold vacuum character (Z1 + Z2)/2 + beta1 of computed pieces."""
    a_plus, _, b1, _ = fixed_point_sector_chars(p)
    series = a_plus.series + b1.series
    low = series.lowest()
    if low != to_num(Fraction(-p.d, 24)) or series.terms[low] != 1:
        raise AssertionError("orbifold vacuum normalization failed")
    return NetCharacter(series, Fraction(p.d))
