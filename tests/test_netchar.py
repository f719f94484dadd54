"""Building-block characters, the two lattice-net character routes, and
the branching graph of the orbifold's sectors (fusion.emit_branching_graph).

The independent oracles here are partition-style DPs and binomial
product convolutions (tests/oracles.py) for the c = 1/2 characters, a
brute-force lattice-vector enumeration for the rank-8
theta series, and the weight-enumerator sum to full order, divided by
eta^d, for the character that production expands in E4 / eta^8.
"""

import operator
import re
from collections import Counter, defaultdict
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import framednet.netchar as netchar
from framednet.codes import CodeError, builtin_code, builtin_delta, delta_code
from framednet.fusion import emit_branching_graph, orbifold_census
from framednet.netchar import (
    _holomorphic_char,
    frame_char,
    ising_branching_mismatch,
    ising_char,
    _sum_of_products,
    lattice_net_char,
    theta_over_eta,
    theta_series,
    u14_sector_char,
)
from framednet.orbifold import orbifold_pieces, orbifold_vacuum_char
from framednet.qseries import DEN, QSeries, eisenstein_e4, eta_power, to_num
from oracles import binary_codewords, leading, product_oracle, self_dual_codes
from test_acceptance import MODULAR_CODES, _j_coefficients, _mul, _theta_over_eta_by_full_sum
from test_codes import _golay24_pairs_permuted, _h8_plus_ones8, _ones8

HALF = Fraction(1, 2)
SIXTEENTH = Fraction(1, 16)


def distinct_part_counts(n2_max, parts, signed):
    """Number of partitions into distinct parts from `parts` (exponents on
    the doubled grid), weighted by (-1)^(number of parts) when signed."""
    acc = {0: 1}
    for p in parts:
        nxt = dict(acc)
        for e, c in acc.items():
            if e + p <= n2_max:
                nxt[e + p] = nxt.get(e + p, 0) + (-c if signed else c)
        acc = nxt
    return acc


class TestIsingChars:
    def test_weight_half_leading_term(self):
        ch = ising_char(HALF)
        e, c = leading(ch)
        assert e == Fraction(23, 48) and c == 1

    def test_vacuum_expansion_oracle(self):
        # chi_0: distinct half-odd parts, even number of parts
        ch = ising_char(0, steps=6)
        n2_max = 12
        plus = distinct_part_counts(n2_max, [2 * n - 1 for n in range(1, 8)], False)
        minus = distinct_part_counts(n2_max, [2 * n - 1 for n in range(1, 8)], True)
        for n2 in range(n2_max + 1):
            expected = (plus.get(n2, 0) + minus.get(n2, 0)) // 2
            assert ch.coeff(Fraction(-1, 48) + Fraction(n2, 2)) == expected
        assert [ch.coeff(Fraction(-1, 48) + k) for k in range(5)] == [1, 0, 1, 1, 2]

    def test_half_expansion_oracle(self):
        ch = ising_char(HALF, steps=6)
        n2_max = 12
        plus = distinct_part_counts(n2_max, [2 * n - 1 for n in range(1, 8)], False)
        minus = distinct_part_counts(n2_max, [2 * n - 1 for n in range(1, 8)], True)
        for n2 in range(n2_max + 1):
            expected = (plus.get(n2, 0) - minus.get(n2, 0)) // 2
            assert ch.coeff(Fraction(-1, 48) + Fraction(n2, 2)) == expected

    def test_sixteenth_expansion_oracle(self):
        # chi_{1/16} / q^{1/24}: partitions into distinct positive integers
        ch = ising_char(SIXTEENTH, steps=6)
        counts = distinct_part_counts(12, [2 * n for n in range(1, 7)], False)
        for n in range(6):
            assert ch.coeff(Fraction(1, 24) + n) == counts[2 * n]
        assert [ch.coeff(Fraction(1, 24) + k) for k in range(4)] == [1, 1, 1, 2]

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            ising_char(Fraction(1, 3))

    @pytest.mark.parametrize("steps", [0, 1, 6, 30])
    def test_matches_binomial_products(self, steps):
        # chi_0, chi_{1/2} = q^{-1/48} (prod (1 + q^{n-1/2}) +- prod (1 - q^{n-1/2})) / 2
        # and chi_{1/16} = q^{1/24} prod (1 + q^n), each kept `steps` q-steps
        # above its leading term; terms and order
        def order(h):
            return to_num(h - Fraction(1, 48)) + steps * DEN + 1

        def half_odd(h, sign):
            plus, minus = (product_oracle(s, 1, True, order(h) + 1) for s in (1, -1))
            return (plus + minus.scale(sign)).half().shift(Fraction(-1, 48))

        assert ising_char(0, steps) == half_odd(0, 1)
        assert ising_char(HALF, steps) == half_odd(HALF, -1)
        sixteenth = product_oracle(1, 1, False, order(SIXTEENTH) - 2).shift(Fraction(1, 24))
        assert ising_char(SIXTEENTH, steps) == sixteenth


class TestU14Chars:
    def test_leading_terms(self):
        assert leading(u14_sector_char(0)) == (Fraction(-1, 24), 1)
        assert leading(u14_sector_char(1)) == (Fraction(1, 8) - Fraction(1, 24), 1)
        assert leading(u14_sector_char(2)) == (HALF - Fraction(1, 24), 2)
        assert leading(u14_sector_char(3)) == (Fraction(1, 8) - Fraction(1, 24), 1)

    def test_j1_equals_j3(self):
        a = u14_sector_char(1, 8)
        b = u14_sector_char(3, 8)
        assert a.first_difference(b) is None

    def test_branching_identities(self):
        assert ising_branching_mismatch(2) is None
        assert ising_branching_mismatch(8) is None


def e8_theta_oracle(norm2_max):
    """Theta coefficients of the rank-8 code lattice by direct enumeration
    of lattice vectors m/sqrt(2), m = c mod 2, with 2*norm <= norm2_max."""
    counts = {}

    def rec2(i, c, acc):
        if acc > norm2_max * 2:
            return
        if i == 8:
            counts[acc] = counts.get(acc, 0) + 1
            return
        m = c[i] % 2
        v = m
        vals = set()
        while v * v + acc <= norm2_max * 2:
            vals.add(v)
            vals.add(-v)
            v += 2
        for v in sorted(vals):
            rec2(i + 1, c, acc + v * v)

    for c in binary_codewords(builtin_code("h8")):
        rec2(0, c, 0)
    # acc is sum m_i^2 = 4 * exponent; return map exponent*4 -> count
    return counts


class TestThetaRoutes:
    def test_e8_theta_against_brute_force(self):
        bound = Fraction(4)
        theta = theta_series(builtin_code("h8"), "L", bound)
        oracle = e8_theta_oracle(4)
        for acc, count in oracle.items():
            e = Fraction(acc, 4)
            if e < bound:
                assert theta.coeff(e) == count, f"norm sum {acc}"
        # no vectors at non-integer exponents, and E8 kissing number at q^1
        assert theta.coeff(1) == 240

    def test_e8_character_coefficients(self):
        ch = theta_over_eta(builtin_code("h8"), "L", steps=4)
        got = [ch.series.coeff(Fraction(-1, 3) + k) for k in range(4)]
        assert got == [1, 248, 4124, 34752]

    def test_leech_has_no_norm_two_vectors(self):
        theta = theta_series(builtin_code("golay24"), "Ltilde", Fraction(3))
        assert theta.coeff(1) == 0
        assert theta.coeff(2) == 196560

    def test_two_routes_h8(self):
        for variant in ("L", "Ltilde"):
            a = lattice_net_char(builtin_delta("h8", variant), steps=5)
            b = theta_over_eta(builtin_code("h8"), variant, steps=5)
            assert a.series.first_difference(b.series) is None

    def test_two_routes_golay_ltilde(self):
        a = frame_char(builtin_code("golay24"), "Ltilde", steps=4)
        b = theta_over_eta(builtin_code("golay24"), "Ltilde", steps=4)
        assert a.series.first_difference(b.series) is None

    @settings(deadline=None, derandomize=True, max_examples=8)
    @given(self_dual_codes())
    def test_two_routes_on_drawn_self_dual_codes(self, code):
        # lengths 8-40: Kneser neighbours of h8^k
        for variant in ("L", "Ltilde"):
            assert frame_char(code, variant, 3) == theta_over_eta(code, variant, 3)

    def test_vacuum_normalization(self):
        for variant in ("L", "Ltilde"):
            ch = lattice_net_char(builtin_delta("h8", variant), steps=3)
            assert leading(ch.series) == (Fraction(-8, 24), 1)
            assert all(c >= 0 for c in ch.series.terms.values())

    def test_integer_exponent_support(self):
        ch = lattice_net_char(builtin_delta("h8", "L"), steps=4)
        for n in ch.series.terms:
            assert (n + 8 * DEN // 24) % DEN == 0

    def test_code_sums_divide_once_by_eta(self, monkeypatch):
        # a code-summed character is one theta sum over the code divided
        # once by eta^d: it builds no sector character chi_j = theta_j / eta
        etas = []
        real_eta = netchar.eta_power

        def no_sector(j, steps=5):
            raise AssertionError(f"u14_sector_char({j}, {steps}) called")

        def eta_spy(k, order):
            etas.append(k)
            return real_eta(k, order)

        monkeypatch.setattr(netchar, "u14_sector_char", no_sector)
        monkeypatch.setattr(netchar, "eta_power", eta_spy)
        golay, h8 = builtin_code("golay24"), builtin_code("h8")
        for variant in ("L", "Ltilde"):
            frame_char(golay, variant, 150)
            assert etas == [-24], (variant, etas)
            etas.clear()
            lattice_net_char(delta_code(h8, variant), 30)
            assert etas == [-8], (variant, etas)
            etas.clear()


@pytest.mark.parametrize(
    "char",
    [
        lambda steps: frame_char(builtin_code("h8"), "L", steps),
        lambda steps: theta_over_eta(builtin_code("h8"), "L", steps),
        lambda steps: orbifold_pieces(builtin_code("h8"), "L", steps),
        lambda steps: orbifold_vacuum_char(builtin_code("h8"), "L", steps),
        lambda steps: ising_char(0, steps),
        lambda steps: u14_sector_char(0, steps),
    ],
    ids=["frame_char", "theta_over_eta", "orbifold_pieces", "orbifold_vacuum_char",
         "ising_char", "u14_sector_char"],
)
def test_negative_steps_refused(char):
    # each entry point keeps exponents `steps` q-steps above its leading
    # term, so a negative count is bad input, not a failed normalization
    # or an empty series
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        char(-1)


COMPLETION_CODES = {**MODULAR_CODES, "golay24-pairs-permuted": _golay24_pairs_permuted}


class TestThetaCompletion:
    """Theta fitted on its first d/24 + 1 coefficients and expanded as a
    polynomial in E4 / eta^8, against the weight enumerator summed to full
    order and divided by eta^d."""

    @pytest.mark.parametrize("variant", ["L", "Ltilde"])
    @pytest.mark.parametrize("name", list(COMPLETION_CODES))
    def test_matches_full_enumerator_sum(self, name, variant):
        code = COMPLETION_CODES[name]()
        top = code.length // 24
        for steps in sorted({0, top, top + 1, 30, 150}):
            got = theta_over_eta(code, variant, steps).series
            assert got == _theta_over_eta_by_full_sum(code, variant, steps), f"steps {steps}"

    def test_production_never_sums_to_full_order(self, monkeypatch):
        bounds, etas = [], []
        real_theta, real_eta = netchar.theta_series, netchar.eta_power

        def theta_spy(code, variant, bound):
            bounds.append(bound)
            return real_theta(code, variant, bound)

        def eta_spy(k, order):
            etas.append((k, Fraction(order)))
            return real_eta(k, order)

        monkeypatch.setattr(netchar, "theta_series", theta_spy)
        monkeypatch.setattr(netchar, "eta_power", eta_spy)
        golay = builtin_code("golay24")
        fit_bound = golay.length // 24 + 1
        theta_over_eta(golay, "Ltilde", 150)
        orbifold_pieces(golay, "L", 150)
        assert len(bounds) == 2 and max(bounds) <= fit_bound
        assert all(order <= fit_bound for k, order in etas if k == 24), etas
        assert not any(k == -golay.length for k, _ in etas), etas

    @pytest.mark.parametrize("variant", ["L", "Ltilde"])
    @pytest.mark.parametrize("make", [_ones8, _h8_plus_ones8], ids=["1^8", "h8+1^8"])
    def test_refuses_codes_that_are_not_self_dual(self, make, variant):
        with pytest.raises(CodeError, match="not self-dual"):
            theta_over_eta(make(), variant, 4)


def _power(series, k, order):
    return reduce(operator.mul, [series] * k, QSeries.one(order))


class TestHolomorphicCompletion:
    """The fit and the chi expansion at d/24 = 2 and 3, which no named code
    reaches, so the third and fourth coefficients of the fit are checked
    only here.  Each form E4^a Delta^b of weight d/2 is completed against
    E4^a eta^(24b - d) expanded directly; a character starts 1 * q^{-d/24},
    so a monomial with b > 0 rides on E4^(d/8)."""

    STEPS = 12

    @pytest.mark.parametrize("d, b", [(48, b) for b in range(3)] + [(72, b) for b in range(4)])
    def test_e4_delta_monomials(self, d, b):
        low = Fraction(d // 24 + 1)
        e4, delta = eisenstein_e4(low), eta_power(24, low)

        def form(a, b):
            return _power(e4, a, low) * _power(delta, b, low)

        def direct(a, b):  # E4^a eta^(24b - d), exact well past the character's order
            bound = Fraction(self.STEPS + 2)
            return _power(eisenstein_e4(bound), a, bound) * eta_power(24 * b - d, bound)

        a = d // 8 - 3 * b
        given, expected = form(d // 8, 0), direct(d // 8, 0)
        if b:
            given, expected = given + form(a, b), expected + direct(a, b)
        got = _holomorphic_char(given, d, self.STEPS)
        assert leading(got.series) == (Fraction(-d, 24), 1)
        assert expected.order >= got.series.order
        assert got.series == QSeries(expected.terms, got.series.order)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_powers_of_j(self, k):
        # J^k * eta^(24k) = (E4^3 - 744 Delta)^k, against J from plain integers
        d = 24 * k
        low = Fraction(k + 1)
        j_delta = _power(eisenstein_e4(low), 3, low) - eta_power(24, low).scale(744)
        got = _holomorphic_char(_power(j_delta, k, low), d, self.STEPS).series
        n = self.STEPS + 1
        j = _j_coefficients(self.STEPS)[:n]  # q^-1 .. q^(STEPS - 1)
        expected = reduce(lambda x, y: _mul(x, y, n), [j] * k)
        assert [got.coeff(i - k) for i in range(n)] == expected

    def test_form_must_reach_the_fit_bound(self):
        # the fit reads q^0 .. q^(d/24); a form known only below q^2 is refused at d = 48
        e4 = eisenstein_e4(2)
        with pytest.raises(ValueError, match="beyond order"):
            _holomorphic_char(_power(e4, 6, 2), 48, 3)


KERNEL_ORDER = 30  # numerator over 48, like the orders kernel_series draws


@st.composite
def kernel_series(draw):
    """A series with exponents >= 0 known at least to KERNEL_ORDER, zero
    one time in four."""
    order = draw(st.integers(KERNEL_ORDER, 2 * KERNEL_ORDER))
    if draw(st.integers(0, 3)) == 0:
        return QSeries({}, order)
    terms = draw(st.dictionaries(st.integers(0, order - 1), st.integers(-3, 3), max_size=5))
    return QSeries(terms, order)


class TestSumOfProducts:
    @settings(deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_naive_sum(self, data):
        pool = data.draw(st.lists(kernel_series(), min_size=1, max_size=3))
        # drawn with replacement, so bases repeat
        bases = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        # exponents up to 12 take odd steps and shared squarings on the ladder
        enumerator = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 12)] * len(bases)), st.integers(-4, 4), max_size=5
        ))
        naive = {}
        for exponents, count in enumerator.items():
            term = QSeries({0: 1}, KERNEL_ORDER)
            for base, k in zip(bases, exponents):
                for _ in range(k):
                    term = term * base
            for n, c in term.terms.items():
                if n < KERNEL_ORDER:
                    naive[n] = naive.get(n, 0) + count * c
        got = _sum_of_products(enumerator, bases, Fraction(KERNEL_ORDER, DEN))
        assert got == QSeries(naive, KERNEL_ORDER)


def parse_graph(text):
    """The nodes {name: (shape, label)} and the edges [(tail, head)] of a DOT text."""
    nodes, edges = {}, []
    for line in text.splitlines()[2:-1]:
        m = re.fullmatch(r'  (\w+) \[shape=(\w+), label="([^"]*)"\];', line)
        if m:
            nodes[m[1]] = (m[2], m[3])
        else:
            tail, head = re.fullmatch(r"  (\w+) -> (\w+);", line).groups()
            edges.append((tail, head))
    return nodes, edges


def graph_counts(d):
    """Node counts by shape and label kind, from the census (none at d = 0)."""
    if d == 0:
        return {}
    c = orbifold_census(d)
    return {
        ("circle", "A"): 4 ** d,
        ("diamond", "S"): 2 ** d,
        ("box", "dim2"): c.dim2_count,
        ("box", "dim1"): c.dim1_count,
        ("box", "tw"): c.twisted_count,
    }


class TestBranchingGraph:
    def test_d1_counts(self):
        assert graph_counts(1) == {
            ("circle", "A"): 4,
            ("diamond", "S"): 2,
            ("box", "dim2"): 1,
            ("box", "dim1"): 4,
            ("box", "tw"): 4,
        }
        text = emit_branching_graph(1)
        assert text.startswith("digraph")
        assert text.count("shape=box") == 9
        assert text.count("shape=circle") == 4
        assert text.count("shape=diamond") == 2
        assert text.count("->") == 10

    def test_d1_edges(self):
        _, edges = parse_graph(emit_branching_graph(1))
        assert edges[:2] == [("two0", "up1"), ("two0", "up3")]
        assert {t: h for t, h in edges if t.startswith("one")} == {
            "one0": "up0", "one1": "up0", "one2": "up2", "one3": "up2",
        }

    def test_d2_counts_match_formulas(self):
        text = emit_branching_graph(2)
        assert text.count("shape=box") == 6 + 8 + 8
        assert text.count("->") == 2 * 6 + 8 + 8

    @pytest.mark.parametrize("d", range(6))
    def test_nodes_match_the_census(self, d):
        nodes, edges = parse_graph(emit_branching_graph(d))
        kinds = Counter((shape, label.split(":")[0]) for shape, label in nodes.values())
        counts = graph_counts(d)
        assert kinds == counts
        assert {n for edge in edges for n in edge} <= set(nodes)
        lower = [counts.get(("box", k), 0) for k in ("dim2", "dim1", "tw")]
        assert len(edges) == 2 * lower[0] + lower[1] + lower[2]

    @pytest.mark.parametrize("d", range(6))
    def test_edges_follow_negation(self, d):
        # a word x = -x is reached from two dim-1 sectors; any other word from
        # one dim-2 sector, whose other edge goes to -x
        nodes, edges = parse_graph(emit_branching_graph(d))
        up = {nodes[n][1][2:]: n for n in nodes if n.startswith("up")}
        tails, heads = defaultdict(list), defaultdict(list)
        for t, h in edges:
            tails[h].append(t)
            heads[t].append(h)
        for x, n in up.items():
            kinds = sorted(nodes[t][1].split(":")[0] for t in tails[n])
            minus_x = x.translate(str.maketrans("13", "31"))
            if minus_x == x:
                assert kinds == ["dim1", "dim1"]
            else:
                assert kinds == ["dim2"]
                assert sorted(heads[tails[n][0]]) == sorted([n, up[minus_x]])
        for n, (shape, _) in nodes.items():
            if shape == "diamond":
                assert [nodes[t][1].split(":")[0] for t in tails[n]] == ["tw", "tw"]

    def test_empty_graph(self):
        assert emit_branching_graph(0) == "digraph branching {\n  rankdir=BT;\n}"

    def test_deterministic(self):
        assert emit_branching_graph(2) == emit_branching_graph(2)
