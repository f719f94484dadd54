"""Order-two orbifold pieces, sector characters of the fixed-point net,
and the vacuum character of the twisted orbifold.

The independent oracles here are generalized binomial convolutions of
the product forms (tests/oracles.py) combined in dict arithmetic, plus
closed-form expectations for the rank-8 case where the orbifold
reproduces the original net.  Production expands only Z3 and splits it
by half-steps; Z4's own product form is the oracle of Z4 = Z3(-q^{1/2})
and of the twisted sectors (Z3 +- Z4)/2.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings

from framednet.codes import builtin_code
from framednet.fusion import fusion_group_disambiguation
from framednet.netchar import NetCharacter, theta_over_eta
from framednet.orbifold import (
    fixed_point_sector_chars,
    orbifold_pieces,
    orbifold_vacuum_char,
    vacuum_char_from_pieces,
)
from framednet.qseries import DEN, QSeries, to_num
from oracles import leading, product_oracle, self_dual_codes
from test_acceptance import MODULAR_CODES

GOLAY = builtin_code("golay24")
H8 = builtin_code("h8")


class TestPieces:
    def test_z1_is_untwisted_character(self):
        p = orbifold_pieces(GOLAY, "Ltilde", steps=4)
        direct = theta_over_eta(GOLAY, "Ltilde", steps=4)
        assert p.z1.first_difference(direct.series) is None

    def test_z2_golay(self):
        p = orbifold_pieces(GOLAY, "Ltilde", steps=4)
        got = [p.z2.coeff(Fraction(-1) + k) for k in range(4)]
        assert got == [1, -24, 276, -2048]

    def test_z3_golay_leading(self):
        p = orbifold_pieces(GOLAY, "Ltilde", steps=4)
        # the twisted ground state has weight d/16 = 3/2, so Z3 starts at 3/2 - d/24
        assert leading(p.z3) == (Fraction(p.d, 16) - Fraction(p.d, 24), 4096)
        assert leading(p.z3) == (Fraction(1, 2), 4096)
        got = [p.z3.coeff(Fraction(1, 2) + Fraction(k, 2)) for k in range(3)]
        assert got == [4096, 98304, 1228800]

    def test_z3_matches_product_form(self):
        p = orbifold_pieces(GOLAY, "Ltilde", steps=4)
        oracle = (
            product_oracle(-1, -24, True, p.z3.order)
            .shift(Fraction(1, 2))
            .scale(2 ** 12)
        )
        assert p.z3.agrees_with(oracle)

    def test_z4_alternates_z3(self):
        p = orbifold_pieces(GOLAY, "Ltilde", steps=4)
        for n, c in p.z3.terms.items():
            m = (n - DEN // 2) // (DEN // 2)  # steps of 1/2 above the ground
            flip = -1 if m % 2 else 1
            assert p.z4.terms.get(n, 0) == flip * c

    def test_h8_twisted_ground(self):
        p = orbifold_pieces(H8, "L", steps=4)
        # weight d/16 = 1/2, less d/24
        assert leading(p.z3) == (Fraction(p.d, 16) - Fraction(p.d, 24), 16)
        assert leading(p.z3) == (Fraction(1, 6), 16)
        assert leading(p.z4) == (Fraction(1, 6), 16)

    def test_vacuum_normalization_enforced(self):
        ch = orbifold_vacuum_char(H8, "L", steps=3)
        assert leading(ch.series) == (Fraction(-1, 3), 1)

    def test_negative_vacuum_coefficient_refused(self):
        # beta1 doubled and negated: q^1 gets 98580 - 2 * 98304 < 0, and the
        # leading 1 * q^-1 is untouched
        p = orbifold_pieces(GOLAY, "Ltilde", steps=2)
        bad = p._replace(z3=p.z3.scale(-2))
        with pytest.raises(AssertionError, match="negative coefficient"):
            vacuum_char_from_pieces(bad)


def twisted_oracle(kind, series, d):
    """2^{d/2} q^{d/48} prod(1 -+ q^{n-1/2})^{-d} expanded to the order of `series`."""
    sign = {"1-q^{n-1/2}": -1, "1+q^{n-1/2}": 1}[kind]
    ground = Fraction(d, 48)
    oracle = product_oracle(sign, -d, True, series.order - to_num(ground))
    return oracle.shift(ground).scale(2 ** (d // 2))


class TestTwistedSector:
    """Z4 and beta1/beta2 are read off the one Z3 expansion; Z4's product
    form checks both, at every rank of the modular oracle."""

    @pytest.mark.parametrize("piece, kind", [("z3", "1-q^{n-1/2}"), ("z4", "1+q^{n-1/2}")])
    @pytest.mark.parametrize("name", list(MODULAR_CODES))
    def test_twisted_piece_matches_product_form(self, name, piece, kind):
        code = MODULAR_CODES[name]()
        series = getattr(orbifold_pieces(code, "L", steps=4), piece)
        assert series == twisted_oracle(kind, series, code.length)

    @pytest.mark.parametrize("variant", ["L", "Ltilde"])
    @pytest.mark.parametrize("name", list(MODULAR_CODES))
    def test_beta1_is_the_integer_weight_combination(self, name, variant):
        code = MODULAR_CODES[name]()
        d = code.length
        p = orbifold_pieces(code, variant, steps=4)
        _, _, b1, b2 = fixed_point_sector_chars(p)
        vacuum = to_num(Fraction(-d, 24))
        assert b1.terms and all((n - vacuum) % DEN == 0 for n in b1.terms)
        z3 = p.z3
        z4 = twisted_oracle("1+q^{n-1/2}", z3, d)
        assert {b1, b2} == {(z3 + z4).half(), (z3 - z4).half()}


class TestSectors:
    def test_sector_sums(self):
        # the untwisted pair sums back to Z1 and the twisted pair to Z3
        p = orbifold_pieces(GOLAY, "Ltilde", steps=4)
        a_plus, a_minus, b1, b2 = fixed_point_sector_chars(p)
        untw = a_plus + a_minus
        assert untw.first_difference(p.z1) is None
        tw = b1 + b2
        assert tw.first_difference(p.z3) is None

    def test_twisted_parity_selection_rank24(self):
        # beta1 keeps the integer weights, beta2 the half-odd-integer ones
        p = orbifold_pieces(GOLAY, "Ltilde", steps=4)
        _, _, b1, b2 = fixed_point_sector_chars(p)
        assert b1.coeff(Fraction(1, 2)) == 0
        assert b2.coeff(Fraction(1, 2)) == 4096
        assert b1.coeff(1) == 98304
        assert b2.coeff(1) == 0

    def test_twisted_parity_selection_rank8(self):
        # at rank 8 the ground weight 1/2 is itself a half-integer, so the
        # beta1 combination is the difference
        p = orbifold_pieces(H8, "L", steps=4)
        _, _, b1, b2 = fixed_point_sector_chars(p)
        diff = (p.z3 - p.z4).half()
        assert b1.first_difference(diff) is None
        assert b2.coeff(Fraction(1, 6)) == 16

    def test_only_the_vacuum_sector_after_beta1(self):
        # the paper's claim from computed characters: the fixed-point net has
        # four sectors, whose lowest weights read mod 1 fit only Z2xZ2, so
        # each is a simple current of dimension 1 and mu = 4; beta1 has
        # integer weight and order 2, and extending by it leaves
        # mu = 4 / 2^2 = 1, the vacuum sector alone
        chars = fixed_point_sector_chars(orbifold_pieces(GOLAY, "Ltilde", steps=4))
        lowest = [leading(ch) for ch in chars]
        weights = [e + Fraction(GOLAY.length, 24) for e, _ in lowest]
        assert weights == [0, 1, 2, Fraction(3, 2)]
        assert [m for _, m in lowest] == [1, 24, 98304, 4096]
        assert fusion_group_disambiguation(weights) == "Z2xZ2"
        mu, beta1 = len(chars), weights[2]
        assert beta1.denominator == 1
        assert Fraction(mu, 2 ** 2) == 1


class TestVacuumChar:
    def test_moonshine_coefficients(self):
        ch = orbifold_vacuum_char(GOLAY, "Ltilde", steps=5)
        got = [ch.series.coeff(Fraction(-1) + k) for k in range(5)]
        assert got == [1, 0, 196884, 21493760, 864299970]

    def test_moonshine_decomposition(self):
        # 196884 splits across the untwisted and twisted parity sectors
        p = orbifold_pieces(GOLAY, "Ltilde", steps=4)
        a_plus, _, b1, _ = fixed_point_sector_chars(p)
        assert (a_plus.coeff(1), b1.coeff(1)) == (98580, 98304)

    def test_e8_orbifold_reproduces_itself(self):
        ch = orbifold_vacuum_char(H8, "L", steps=4)
        direct = theta_over_eta(H8, "L", steps=4)
        assert ch.series.first_difference(direct.series) is None

    def test_only_integer_exponent_offsets(self):
        ch = orbifold_vacuum_char(GOLAY, "Ltilde", steps=4)
        for n in ch.series.terms:
            assert (n + DEN) % DEN == 0


class TestCompletion:
    """Production expands the pieces only to the d/24 q-steps that fix the
    modular form ch * eta^d and completes the rest in E4 / eta^8; the
    vacuum read off pieces expanded to full order is its oracle."""

    @pytest.mark.parametrize("variant", ["L", "Ltilde"])
    @pytest.mark.parametrize("name", list(MODULAR_CODES))
    def test_matches_the_pieces_route(self, name, variant):
        code = MODULAR_CODES[name]()
        top = code.length // 24
        for steps in sorted({0, top, top + 1, 30, 150}):
            got = orbifold_vacuum_char(code, variant, steps).series
            oracle = vacuum_char_from_pieces(orbifold_pieces(code, variant, steps)).series
            assert got == oracle, f"steps {steps}"

    @pytest.mark.parametrize("name", ["h8", "golay24", "rm25"])
    def test_pieces_expanded_only_to_the_fit_bound(self, name, monkeypatch):
        from framednet import orbifold

        pieces_steps, orders = [], []
        real_pieces, real_product = orbifold.orbifold_pieces, orbifold.product_form

        def pieces_spy(code, variant, steps):
            pieces_steps.append(steps)
            return real_pieces(code, variant, steps)

        def product_spy(first, step, power, order):
            orders.append(Fraction(order))
            return real_product(first, step, power, order)

        monkeypatch.setattr(orbifold, "orbifold_pieces", pieces_spy)
        monkeypatch.setattr(orbifold, "product_form", product_spy)
        code = MODULAR_CODES[name]()
        top = code.length // 24
        orbifold_vacuum_char(code, "Ltilde", 150)
        assert pieces_steps == [top]
        assert len(orders) == 2 and max(orders) <= top + 1, orders


class TestDrawnSelfDualCodes:
    """The orbifold identities on doubly-even self-dual codes of length
    8-40, drawn as Kneser neighbours of h8^k, in L and Ltilde."""

    @settings(deadline=None, derandomize=True, max_examples=8)
    @given(self_dual_codes())
    def test_completion_matches_the_pieces_route(self, code):
        for variant in ("L", "Ltilde"):
            for steps in (code.length // 24 + 1, 5):
                got = orbifold_vacuum_char(code, variant, steps).series
                oracle = vacuum_char_from_pieces(orbifold_pieces(code, variant, steps)).series
                assert got == oracle, f"{variant}, steps {steps}"

    @settings(deadline=None, derandomize=True, max_examples=8)
    @given(self_dual_codes())
    def test_orbifold_of_l_has_the_character_of_ltilde(self, code):
        assert orbifold_vacuum_char(code, "L", 5) == theta_over_eta(code, "Ltilde", 5)

    @settings(deadline=None, derandomize=True, max_examples=8)
    @given(self_dual_codes())
    def test_fixed_point_sectors_read_as_z2xz2(self, code):
        # lowest weights 0, 1, ceil(d/16) and a half-odd integer: beta1 has
        # integer weight at every rank
        d = code.length
        for variant in ("L", "Ltilde"):
            chars = fixed_point_sector_chars(orbifold_pieces(code, variant, 2))
            weights = [leading(ch)[0] + Fraction(d, 24) for ch in chars]
            assert weights[:3] == [0, 1, -(-d // 16)] and weights[3] % 1 == Fraction(1, 2), weights
            assert fusion_group_disambiguation(weights) == "Z2xZ2", weights


# Conway-Norton's McKay-Thompson series of the Monster class 2B,
# eta(tau)^24 / eta(2 tau)^24 + 24, at q^-1 .. q^5.
T_2B = [1, 0, 276, -2048, 11202, -49152, 184024]


class TestInvolutionTrace:
    """The orbifold net's dual involution acts as +1 on the untwisted part
    and -1 on beta1, so its trace is (Z1 + Z2)/2 - beta1 = Z1 + Z2 - ch,
    with ch from the completion.  On the moonshine net it is the Monster's
    T_2B, a published series the construction does not derive from."""

    def test_moonshine_trace_is_t2b(self):
        p = orbifold_pieces(GOLAY, "Ltilde", steps=6)
        ch = orbifold_vacuum_char(GOLAY, "Ltilde", steps=6)
        trace = p.z1 + p.z2 - ch.series
        assert [trace.coeff(k) for k in range(-1, 6)] == T_2B

    @pytest.mark.parametrize("variant, constant", [("Ltilde", 24), ("L", 48)])
    def test_trace_is_z2_plus_a_constant(self, variant, constant):
        # Z2 = eta(tau)^24 / eta(2 tau)^24; Z1 - ch is the weight-one count
        # the orbifold loses, 24 of the Leech net's 24 and 48 of L's 72
        p = orbifold_pieces(GOLAY, variant, steps=150)
        ch = orbifold_vacuum_char(GOLAY, variant, steps=150)
        trace = p.z1 + p.z2 - ch.series
        z2 = p.z2
        assert trace == z2 + QSeries({0: constant}, z2.order)


def weight_parity_split(x):
    """Split by weight parity: integer-weight part, half-integer part.

    Weights are exponents shifted by c/24; all must be half-integers.
    """
    shift = to_num(x.central_charge / 24)
    integer = {}
    half = {}
    for n, coeff in x.series.terms.items():
        w = n + shift
        if w % (DEN // 2) != 0:
            raise ValueError(f"weight {Fraction(w, DEN)} off the half-integer grid")
        (integer if w % DEN == 0 else half)[n] = coeff
    return (
        NetCharacter(QSeries(integer, x.series.order), x.central_charge),
        NetCharacter(QSeries(half, x.series.order), x.central_charge),
    )


class TestParitySplit:
    def test_split_sums_to_whole(self):
        ch = theta_over_eta(GOLAY, "Ltilde", steps=4)
        integer, half = weight_parity_split(ch)
        total = integer.series + half.series
        assert total.first_difference(ch.series) is None
        # a lattice-net character has only integer weights
        assert half.series == QSeries({}, ch.series.order)

    def test_split_separates_twisted_sector(self):
        p = orbifold_pieces(GOLAY, "Ltilde", steps=4)
        integer, half = weight_parity_split(NetCharacter(p.z3, Fraction(p.d)))
        assert integer.series.coeff(1) == 98304
        assert half.series.coeff(Fraction(1, 2)) == 4096

    def test_split_off_grid_rejected(self):
        bad = NetCharacter(QSeries({1: 1}, 100), Fraction(0))
        with pytest.raises(ValueError):
            weight_parity_split(bad)


@dataclass(frozen=True)
class DistinctnessReport:
    identical: bool
    first_exponent: Fraction | None
    untwisted_coeff: int | None
    orbifold_coeff: int | None


def pair_distinctness_check(code, variant, steps=5):
    """Compare the lattice-net and orbifold vacuum characters termwise."""
    a = theta_over_eta(code, variant, steps)
    b = orbifold_vacuum_char(code, variant, steps)
    e = a.series.first_difference(b.series)
    if e is None:
        return DistinctnessReport(True, None, None, None)
    return DistinctnessReport(False, e, a.series.coeff(e), b.series.coeff(e))


class TestDistinctness:
    def test_moonshine_differs_from_leech_net(self):
        report = pair_distinctness_check(GOLAY, "Ltilde", steps=3)
        assert not report.identical
        assert report.first_exponent == 0
        assert (report.untwisted_coeff, report.orbifold_coeff) == (24, 0)

    def test_e8_pair_identical(self):
        report = pair_distinctness_check(H8, "L", steps=3)
        assert report.identical
        assert report.first_exponent is None
