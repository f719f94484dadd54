"""Extensions, the orbifold census, involutions, and the framed-structure
counts.

The pointed systems (a finite abelian group with a weight map), the
rank-one system, the spin power rule and the Miyamoto sign involutions
have no caller in the program; they live here as test helpers, and so
does the integer diagonalization that checks the Z4 duals of
`oracles.z4_dual_code`.  The weight check on symbol tuples, which `codes`
now does on bit planes, stays here as its oracle, and so does a
presentation of H-perp / H by generators, whose orders `codes` reads off
without building it or H-perp.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Callable, List, NamedTuple, Sequence, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from framednet import codes
from framednet.codes import (
    BinaryCode,
    Z4Code,
    builtin_code,
    builtin_delta,
    delta_code,
    non_integral_element,
    quotient_orders,
    sigma2_code,
    validate_binary_code,
)
from framednet.fusion import (
    FusionError,
    framed_from_code,
    framed_structure,
    fusion_group_disambiguation,
    ising_decomposition,
    orbifold_census,
    simple_current_extension,
)
from framednet.netchar import frame_char, theta_over_eta
from framednet.orbifold import orbifold_vacuum_char
from oracles import (
    _d16_plus,
    _d24_plus,
    _h8_cubed,
    _h8_plus_d16_plus,
    _h8_squared,
    all_pairs_non_integral_element,
    self_dual_codes,
    z4_dual_code,
    z4_generators,
)
from test_acceptance import MODULAR_CODES

HALF = Fraction(1, 2)
SIXTEENTH = Fraction(1, 16)

U14_WEIGHT_TABLE = (Fraction(0), Fraction(1, 8), HALF, Fraction(1, 8))

GROUP_ENUM_LIMIT = 1 << 20

Element = Tuple[int, ...]
Label = Tuple[Fraction, ...]


def h(x: Element) -> Fraction:
    """The weight on Z4^d: sum x_i^2 / 8 mod 1."""
    return Fraction(sum((a % 4) ** 2 for a in x), 8) % 1


class PointedSystem(NamedTuple):
    """Finite abelian group of sector labels with a weight map h mod 1.

    `orders` lists the cyclic factor orders; elements are coordinate
    tuples.  `weight` returns h(x), reduced mod 1 by `h`.
    """

    orders: Tuple[int, ...]
    weight: Callable[[Element], Fraction]

    def size(self) -> int:
        return math.prod(self.orders)

    def identity(self) -> Element:
        return (0,) * len(self.orders)

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % o for a, b, o in zip(x, y, self.orders))

    def h(self, x: Element) -> Fraction:
        return self.weight(x) % 1


def z4_power_system(d: int) -> PointedSystem:
    """d-th tensor power: group Z4^d with h(gamma) = sum gamma_i^2 / 8 mod 1."""
    return PointedSystem((4,) * d, h)


def u14_system() -> PointedSystem:
    """The Z4 sector system of the rank-one net, h = (0, 1/8, 1/2, 1/8)."""
    return PointedSystem((4,), lambda x: U14_WEIGHT_TABLE[x[0] % 4])


def elements(sys_: PointedSystem):
    """Every element of a pointed system, as coordinate tuples."""
    if sys_.size() > GROUP_ENUM_LIMIT:
        raise FusionError("system too large to enumerate")
    return product(*(range(o) for o in sys_.orders))


def rehren_relation_holds(sys_: PointedSystem, x, n: int) -> bool:
    """h(n x) = n^2 h(x) mod 1 (the spin power rule for simple currents)."""
    nx = sys_.identity()
    for _ in range(n):
        nx = sys_.add(nx, x)
    return sys_.h(nx) == (n * n * sys_.weight(x)) % 1


def _quotient_basis(H: Z4Code, dual: Z4Code) -> List[Tuple[Element, int]]:
    """Generators of dual / H with their orders, presenting it as Z4^a x Z2^b.

    H is isotropic and dual is H-perp.  The quotient Q is killed by 4, so
    a = dim 2Q and b = dim Q[2] - dim 2Q.  One span, a copy of H, grows as
    the generators are found:

    - the order-4 generators are generators x of H-perp whose doubles are
      independent modulo the span; those doubles span 2Q;
    - Q[2] is (H-perp cap B) / H with B = {b : 2b in H}.  Since
      x.(2y) = (2x).y, x is orthogonal to 2*H-perp iff 2x is in
      H-perp-perp = H, so B = (2*H-perp)-perp and H-perp cap B =
      (H + 2*H-perp)-perp, the dual of the span once every double is in.
      The order-2 generators are generators y of this second dual that
      are independent modulo the span.

    A relation sum c_i x_i + sum e_j y_j in H forces every c_i even (double
    it), then every e_j zero and every c_i = 0 mod 4, so the presentation
    is faithful; 2a + b = log2 |Q| checks that it is onto.
    """
    span = Z4Code(H.length, z4_generators(H))
    basis: List[Tuple[Element, int]] = []
    for x in z4_generators(dual):
        double = tuple(2 * a % 4 for a in x)
        if double not in span:
            span = Z4Code(H.length, [*z4_generators(span), double])
            basis.append((x, 4))
    two_torsion = z4_dual_code(span)
    for y in z4_generators(two_torsion):
        if y not in span:
            span = Z4Code(H.length, [*z4_generators(span), y])
            basis.append((y, 2))
    if sum(2 if o == 4 else 1 for _, o in basis) != dual.log2_size - H.log2_size:
        raise FusionError("quotient generators do not present H-perp / H")
    return basis


def integral(H: Z4Code) -> bool:
    """Whether every element of H has integer weight, by the plane check,
    which must return the tuple oracle's element."""
    offending = non_integral_element(H)
    assert offending == all_pairs_non_integral_element(H)
    return offending is None


def _basis(H: Z4Code) -> List[Tuple[Element, int]]:
    """The tuple oracle's presentation of H-perp / H, whose orders must be
    the ones quotient_orders reads off the planes."""
    basis = _quotient_basis(H, z4_dual_code(H))
    assert quotient_orders(H) == tuple(o for _, o in basis)
    return basis


class SignedDecomposition(NamedTuple):
    entries: Tuple[Tuple[Label, int, int], ...]  # (label, multiplicity, sign)
    is_identity: bool


def miyamoto_involution(
    decomp: Sequence[Tuple[Label, int]], k: int, variant: str
) -> SignedDecomposition:
    """Sign map on an Ising-labelled decomposition at tensor position k.

    variant "tau" flips labels with 1/16 at position k; "tau_prime" flips
    labels with 1/2 there and requires that no label carries 1/16 at k.
    """
    if variant not in ("tau", "tau_prime"):
        raise FusionError(f"unknown involution variant {variant!r}")
    flip = SIXTEENTH if variant == "tau" else HALF
    entries = []
    for label, mult in decomp:
        if not 0 <= k < len(label):
            raise FusionError("position k out of range")
        if variant == "tau_prime" and label[k] == SIXTEENTH:
            raise FusionError("tau_prime undefined: a label carries 1/16 at k")
        sign = -1 if label[k] == flip else 1
        entries.append((tuple(label), mult, sign))
    return SignedDecomposition(tuple(entries), all(s == 1 for *_, s in entries))


class TestPointedSystems:
    def test_u14_weights(self):
        sys_ = u14_system()
        assert [sys_.h((j,)) for j in range(4)] == [0, Fraction(1, 8), HALF, Fraction(1, 8)]
        assert sys_.size() == 4

    def test_tensor_power_weight_additivity(self):
        sys_ = z4_power_system(2)
        # hat-map images have weights 0, 1/4, 1/4, 1/2
        assert sys_.h((0, 0)) == 0
        assert sys_.h((1, 1)) == Fraction(1, 4)
        assert sys_.h((3, 1)) == Fraction(1, 4)
        assert sys_.h((2, 0)) == HALF

    def test_mu_index_tensor_power(self):
        assert simple_current_extension(Z4Code(3, [(0, 0, 0)])).mu_before == 64
        assert z4_power_system(3).size() == 64

    def test_polarized_form_biadditive(self):
        sys_ = z4_power_system(2)

        def b(x, y):
            return (sys_.h(sys_.add(x, y)) - sys_.h(x) - sys_.h(y)) % 1

        els = list(elements(sys_))
        for x in els[:16]:
            for y in els:
                for z in els[:8]:
                    lhs = b(sys_.add(x, y), z)
                    rhs = (b(x, z) + b(y, z)) % 1
                    assert lhs == rhs

    def test_rehren_relation_exhaustive_small(self):
        for d in (1, 2, 3):
            sys_ = z4_power_system(d)
            for x in elements(sys_):
                for n in range(4):
                    assert rehren_relation_holds(sys_, x, n)


class TestIntegerWeightSubgroup:
    def test_trivial_subgroup(self):
        assert integral(Z4Code(2, [(0, 0)]))

    def test_h8_delta_all_integral(self):
        H = builtin_delta("h8", "L")
        assert integral(H)
        # cross-check by explicit enumeration of all 256 codewords
        assert all(h(w) == 0 for w in H.codewords())

    def test_unit_vector_not_integral(self):
        assert not integral(Z4Code(3, [(1, 0, 0)]))

    @pytest.mark.parametrize(
        "gens, expected",
        [
            ([(2, 2)], True),
            ([(1,) * 8, (2, 2, 0, 0, 0, 0, 0, 0)], True),
            ([(3,) * 8, (1, 1, 1, 1, 3, 3, 3, 3)], True),
            ([(2, 2, 0, 0, 0, 0, 0, 0), (0, 2, 2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 2, 2, 2, 2)], True),
            ([(1, 1, 1, 1)], False),
            ([(2, 2), (2, 0)], False),
            # each generator has integer weight, but their polar form does not
            ([(1,) * 8 + (0,) * 8, (0,) * 6 + (1,) * 8 + (0,) * 2], False),
        ],
    )
    def test_generator_check_matches_enumeration(self, gens, expected):
        H = Z4Code(len(gens[0]), gens)
        assert all(h(w) == 0 for w in H.codewords()) is expected
        assert integral(H) is expected


class TestExtensions:
    def test_golay_ltilde_holomorphic(self):
        result = simple_current_extension(builtin_delta("golay24", "Ltilde"))
        assert result.allowed
        assert result.mu_before == 4 ** 24
        assert result.mu_after == 1
        assert result.quotient_orders == ()

    def test_h8_holomorphic(self):
        result = simple_current_extension(builtin_delta("h8", "L"))
        assert result.allowed and result.mu_after == 1

    def test_trivial_subgroup_keeps_system(self):
        result = simple_current_extension(Z4Code(2, [(0, 0)]))
        assert result.allowed and result.quotient_orders == (4, 4)
        assert result.mu_after == result.mu_before == 16
        assert sorted(h(x) for x in _quotient_words(Z4Code(2, [(0, 0)]))) == sorted(
            h(x) for x in elements(z4_power_system(2))
        )

    def test_non_isotropic_rejected_with_offender(self):
        result = simple_current_extension(Z4Code(2, [(1, 0)]))
        assert not result.allowed
        assert result.offending == (1, 0)

    def test_offender_of_a_pair_of_integral_generators(self):
        H = Z4Code(16, [(1,) * 8 + (0,) * 8, (0,) * 6 + (1,) * 8 + (0,) * 2])
        assert all(h(g) == 0 for g in z4_generators(H))
        r = simple_current_extension(H)
        assert not r.allowed and r.quotient_orders is None
        assert r.offending in H and h(r.offending) != 0

    def test_mu_arithmetic_invariant(self):
        for H in (Z4Code(2, [(2, 2)]), Z4Code(2, [(0, 0)])):
            r = simple_current_extension(H)
            assert r.mu_after * len(H) ** 2 == r.mu_before

    @pytest.mark.parametrize(
        "subgroup",
        [
            lambda: builtin_delta("golay24", "L"),
            lambda: builtin_delta("golay24", "Ltilde"),
            lambda: Z4Code(2, [(0, 0)]),
            lambda: sigma2_code(32, zero_variant=True),
        ],
        ids=["golay24-L", "golay24-Ltilde", "trivial", "2222-blocks-32"],
    )
    def test_no_z4_code_besides_h(self, subgroup, monkeypatch):
        # the quotient's orders come from H's two rows: no dual is built
        H, built = subgroup(), []
        init = Z4Code.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(Z4Code, "__init__", counted)
        assert simple_current_extension(H).allowed
        assert built == []

    def test_intermediate_quotient(self):
        # H = <(2,2)> inside Z4^2: index-4 quotient with orders (2,2)
        H = Z4Code(2, [(2, 2)])
        r = simple_current_extension(H)
        assert r.allowed and r.mu_after == 4
        assert sorted(r.quotient_orders) == [2, 2]
        weights = sorted(h(x) for x in _quotient_words(H))
        assert weights == [0, Fraction(1, 4), Fraction(1, 4), HALF]


# The quotient oracle: every word of H-perp reduced to its coset minimum over
# all of H, and the list of cosets decomposed by element orders.


def _coset_minimum(x, H):
    return min(tuple((a + b) % 4 for a, b in zip(x, h)) for h in H.codewords())


def _abelian_basis(elements, add, identity):
    """Cyclic decomposition of a small abelian group given as an element list."""

    def order_of(x):
        n, y = 1, x
        while y != identity:
            y = add(y, x)
            n += 1
        return n

    if len(elements) == 1:
        return []
    x = max(elements, key=order_of)
    n = order_of(x)
    cyclic = []
    y = identity
    for _ in range(n):
        cyclic.append(y)
        y = add(y, x)
    reps = {e: min(add(e, c) for c in cyclic) for e in elements}
    sub = _abelian_basis(sorted(set(reps.values())), lambda p, q: reps[add(p, q)], reps[identity])
    out = [(x, n)]
    for g, o in sub:
        # lift to an element of the same order; <x> is a direct summand
        for c in cyclic:
            cand = add(g, c)
            acc = cand
            for _ in range(o - 1):
                acc = add(acc, cand)
            if acc == identity:
                out.append((cand, o))
                break
        else:
            raise AssertionError("no order-preserving lift found")
    return out


def _oracle_quotient(H):
    """(orders, coset minima) of H-perp / H by enumeration."""
    reps = sorted({_coset_minimum(w, H) for w in z4_dual_code(H).codewords()})

    def add(x, y):
        return _coset_minimum(tuple((a + b) % 4 for a, b in zip(x, y)), H)

    basis = _abelian_basis(reps, add, _coset_minimum((0,) * H.length, H))
    return tuple(o for _, o in basis), reps


@st.composite
def _isotropic_codes(draw):
    """A random isotropic Z4 code of length d <= 6: each drawn vector, or
    else its double, joins the generators if b(x, y) = sum x_i y_i / 4
    stays 0 on them (and, for half the codes, h(x) stays integral)."""
    d = draw(st.integers(1, 6))
    modulus = draw(st.sampled_from((4, 8)))
    vectors = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    gens = []
    for v in draw(st.lists(vectors, max_size=6)):
        for x in (tuple(v), tuple(2 * a % 4 for a in v)):
            if sum(a * a for a in x) % modulus == 0 and all(
                sum(a * b for a, b in zip(x, g)) % 4 == 0 for g in gens
            ):
                gens.append(x)
                break
    return Z4Code(d, gens or [(0,) * d])


def _combinations(basis, d):
    """sum c_i g_i over every coefficient vector c with 0 <= c_i < o_i."""
    for coeffs in product(*(range(o) for _, o in basis)):
        yield tuple(sum(c * g[i] for c, (g, _) in zip(coeffs, basis)) % 4 for i in range(d))


def _quotient_words(H):
    """One word of H-perp for each coset of H, from the quotient's presentation."""
    return list(_combinations(_basis(H), H.length))


class TestQuotientAgainstEnumeration:
    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(_isotropic_codes())
    @example(Z4Code(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]))  # self-dual, not integral
    @example(builtin_delta("h8", "Ltilde"))  # index 1
    def test_matches_coset_enumeration(self, H):
        dual = z4_dual_code(H)
        orders, reps = _oracle_quotient(H)
        basis = _basis(H)
        assert tuple(o for _, o in basis) == quotient_orders(H) == orders
        # faithful: the combinations hit distinct cosets, all inside H-perp
        cosets = set()
        weights = Counter()
        for x in _combinations(basis, H.length):
            assert x in dual
            cosets.add(_coset_minimum(x, H))
            weights[h(x)] += 1
        assert len(cosets) == len(reps)
        r = simple_current_extension(H)
        if r.allowed:
            assert r.quotient_orders == orders
            assert weights == Counter(h(x) for x in reps)


def _diagonalize(rows: List[List[int]], d: int) -> Tuple[List[List[int]], List[List[int]]]:
    """Integer diagonalization A -> U A V by row and column operations.

    Returns (S, V) with S diagonal; V accumulates the column operations,
    so solution sets of A y = 0 (mod anything) are V * solutions of S.
    """
    a = [r[:] for r in rows]
    m = len(a)
    v = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    t = 0
    while t < min(m, d):
        # find a nonzero pivot of minimal magnitude in the submatrix
        best = None
        for i in range(t, m):
            for j in range(t, d):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        a[t], a[i] = a[i], a[t]
        if j != t:
            swap_cols(t, j)
        done = True
        for i in range(t + 1, m):
            q = a[i][t] // a[t][t]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t]:
                done = False
        for j in range(t + 1, d):
            q = a[t][j] // a[t][t]
            if q:
                add_col(t, j, -q)
            if a[t][j]:
                done = False
        if done:
            t += 1
    return a, v


def _diagonalization_dual(code: Z4Code) -> Z4Code:
    """The Z4 dual by integer diagonalization of the generator matrix."""
    d = code.length
    s, v = _diagonalize([list(g) for g in z4_generators(code)], d)
    gens = []
    for i in range(d):
        pivot = s[i][i] if i < len(s) else 0
        step = 4 // math.gcd(4, abs(pivot))
        if step < 4:
            gens.append(tuple((v[r][i] * step) % 4 for r in range(d)))
    return Z4Code(d, gens or [(0,) * d])


@st.composite
def _z4_codes(draw):
    """A random Z4 code of length d <= 9; about half its rows are doubled."""
    d = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), max_size=7))
    doubled = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    gens = [[2 * a % 4 for a in r] if twice else r for r, twice in zip(rows, doubled)]
    return Z4Code(d, gens or [(0,) * d])


@st.composite
def _integral_generator_codes(draw):
    """A random Z4 code of length d <= 9 whose generators each have integer
    weight, |lo| + 4 |hi & ~lo| = 0 (mod 8): u = 0, 4 or 8 unit symbols
    and a number of 2s of the parity of u / 4, so that only the pairs of
    generators decide.  The rows with u = 0 are doubled."""
    d = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        units = draw(st.sampled_from([u for u in (0, 4, 8) if u + u // 4 % 2 <= d]))
        parity = units // 4 % 2
        twos = parity + 2 * draw(st.integers(0, (d - units - parity) // 2))
        places = draw(st.permutations(range(d)))
        row = [0] * d
        for i in places[:units]:
            row[i] = draw(st.sampled_from((1, 3)))
        for i in places[units:units + twos]:
            row[i] = 2
        rows.append(row)
    return Z4Code(d, rows)


class TestDualCodes:
    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(_z4_codes())
    @example(Z4Code(4, [(2, 2, 0, 0), (0, 2, 2, 0)]))  # only doubled rows
    @example(Z4Code(3, [(1, 2, 3), (0, 0, 2)]))
    @example(Z4Code(2, [(1, 0), (0, 1)]))  # the whole of Z4^2
    def test_matches_diagonalization(self, code):
        dual, oracle = z4_dual_code(code), _diagonalization_dual(code)
        assert dual.log2_size == oracle.log2_size == 2 * code.length - code.log2_size
        assert all(g in oracle for g in z4_generators(dual))
        assert all(g in dual for g in z4_generators(oracle))

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(_z4_codes())
    @example(Z4Code(2, [(2, 2)]))  # isotropic
    def test_subcode_order_reads_isotropy(self, code):
        gens = z4_generators(code)
        isotropic = all(sum(a * b for a, b in zip(g, k)) % 4 == 0 for g in gens for k in gens)
        bigger = Z4Code(code.length, [(1,) * code.length, *gens])
        assert all(g in code and g in bigger for g in gens)
        dual = z4_dual_code(code)
        assert all(g in dual for g in gens) is isotropic
        assert not any(g in Z4Code(code.length + 1, [(1,) * (code.length + 1)]) for g in gens)

    def test_dual_pairing_vanishes(self):
        H = builtin_delta("h8", "Ltilde")
        dual = z4_dual_code(H)
        for g in z4_generators(H):
            for y in z4_generators(dual):
                assert sum(a * b for a, b in zip(g, y)) % 4 == 0

    def test_dual_size_product(self):
        for code in (Z4Code(2, [(1, 1)]), Z4Code(2, [(2, 0)]), Z4Code(3, [(1, 2, 3)])):
            dual = z4_dual_code(code)
            assert len(code) * len(dual) == 4 ** code.length


def _pair_failing():
    """Every generator has integer weight, but the polar form of the first
    and second, and of the second and third, does not."""
    return Z4Code(16, [(1,) * 8 + (0,) * 8, (0,) * 6 + (1,) * 8 + (0,) * 2, (0,) * 8 + (1,) * 8])


class TestAgainstTupleOracles:
    """The plane versions of the weight check and the quotient orders
    against the tuple versions, on codes too large to enumerate."""

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(_z4_codes())
    @example(_pair_failing())
    @example(builtin_delta("golay24", "L"))
    def test_same_offender_and_quotient(self, H):
        if integral(H):
            basis = _basis(H)
            assert simple_current_extension(H).quotient_orders == tuple(o for _, o in basis)

    @pytest.mark.parametrize("n", [8, 32])
    def test_2222_blocks(self, n):
        # 2222 on pairs i and i + 1 for i < n - 1, at d = 2n: |H| = 2^(n-1),
        # so log2 |H-perp / H| = 4n - 2(n - 1), as Z4^2 x Z2^(2n-2)
        H = sigma2_code(n, zero_variant=True)
        assert integral(H)
        assert [o for _, o in _basis(H)] == [4, 4] + [2] * (2 * n - 2)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(_z4_codes())
    # the shapes of `extend`'s timing inputs at d = 1600, scaled to d = 12
    @example(sigma2_code(6, zero_variant=True))  # 2222 on pairs i and i + 1
    @example(Z4Code(12, [(0,) * i + (2, 2) + (0,) * (10 - i) for i in range(11)]))  # 22 on i, i + 1
    @example(sigma2_code(6))  # 22 on each pair
    @example(Z4Code(12, [(2, 2) + (0,) * 10]))  # one row 22 0...0
    # fails only on the pair of the second doubled row and the unit row
    @example(Z4Code(9, [(2, 2) + (0,) * 7, (0,) * 7 + (2, 2), (1,) * 8 + (0,)]))
    @example(_pair_failing())
    def test_weight_check_skips_only_pairs_that_cannot_fail(self, H):
        # two doubled generators are never visited as a pair
        assert non_integral_element(H) == all_pairs_non_integral_element(H)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(_integral_generator_codes())
    def test_pairs_decide_on_integral_generators(self, H):
        assert non_integral_element(H) == all_pairs_non_integral_element(H)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(_z4_codes())
    # the shapes of `extend`'s timing inputs at d = 1600, scaled to d = 12
    @example(sigma2_code(6, zero_variant=True))  # 2222 on pairs i and i + 1
    @example(Z4Code(12, [(0,) * i + (2, 2) + (0,) * (10 - i) for i in range(11)]))  # 22 on i, i + 1
    @example(sigma2_code(6))  # 22 on each pair
    @example(Z4Code(12, [(2, 2) + (0,) * 10]))  # one row 22 0...0
    def test_integral_codes_are_isotropic(self, H):
        # the extension checks neither H <= H-perp nor builds H-perp
        if non_integral_element(H) is None:
            dual = _diagonalization_dual(H)
            assert all(g in dual for g in z4_generators(H))
            orders = quotient_orders(H)
            assert orders == tuple(o for _, o in _quotient_basis(H, dual))
            assert math.prod(orders) * len(H) ** 2 == 4 ** H.length


class TestDrawnSelfDualCodes:
    """The delta codes of doubly-even self-dual codes of length 8-40, drawn
    as Kneser neighbours of h8^k, extend to a holomorphic net, and their
    lattice nets have framed index 1."""

    @settings(deadline=None, derandomize=True, max_examples=8)
    @given(self_dual_codes())
    def test_delta_code_extends_with_index_one(self, code):
        report = validate_binary_code(code)
        assert report.doubly_even and report.self_dual and report.contains_all_ones
        for variant in ("L", "Ltilde"):
            r = simple_current_extension(delta_code(code, variant))
            assert r.allowed and r.quotient_orders == () and r.mu_after == 1

    @settings(deadline=None, derandomize=True, max_examples=8)
    @given(self_dual_codes())
    def test_framed_k_plus_l_is_twice_the_rank(self, code):
        for variant in ("L", "Ltilde"):
            framed = framed_from_code(delta_code(code, variant))
            assert framed.k + framed.l == 2 * code.length


# framed (k, l) of the delta codes of the nine codes of length 24, in the
# coordinates of test_acceptance.MODULAR_CODES
LENGTH24_FRAMED = {
    "golay24": {"L": (37, 11), "Ltilde": (36, 12)},
    "d4^6": {"L": (38, 10), "Ltilde": (37, 11)},
    "d6^4": {"L": (43, 5), "Ltilde": (42, 6)},
    "d8^3": {"L": (44, 4), "Ltilde": (43, 5)},
    "d10e7^2": {"L": (41, 7), "Ltilde": (40, 8)},
    "d12^2": {"L": (38, 10), "Ltilde": (37, 11)},
    "h8+d16+": {"L": (46, 2), "Ltilde": (45, 3)},
    "h8+h8+h8": {"L": (45, 3), "Ltilde": (44, 4)},
    "d24+": {"L": (47, 1), "Ltilde": (46, 2)},
}


@pytest.mark.parametrize("name", list(LENGTH24_FRAMED))
def test_length24_framed(name):
    code = MODULAR_CODES[name]()
    for variant in ("L", "Ltilde"):
        framed = framed_from_code(delta_code(code, variant))
        assert (framed.k, framed.l) == LENGTH24_FRAMED[name][variant]
        assert framed.k + framed.l == 48


class TestDisambiguation:
    def test_z4_pattern(self):
        assert fusion_group_disambiguation([0, Fraction(1, 8), HALF, Fraction(1, 8)]) == "Z4"

    def test_z2z2_pattern(self):
        assert fusion_group_disambiguation([0, 0, 0, HALF]) == "Z2xZ2"

    def test_inconsistent(self):
        third = Fraction(1, 3)
        assert fusion_group_disambiguation([0, third, third, third]) == "inconsistent"

    def test_ambiguous_when_both_fit(self):
        assert fusion_group_disambiguation([0, 0, 0, 0]) == "ambiguous"

    def test_requires_vacuum(self):
        with pytest.raises(FusionError):
            fusion_group_disambiguation([Fraction(1, 8)] * 4)


def _negate(x):
    return tuple(-a % 4 for a in x)


class TestCensus:
    def test_d1(self):
        c = orbifold_census(1)
        assert (c.dim2_count, c.dim1_count, c.twisted_count) == (1, 4, 4)
        assert c.mu_balance == 16 and c.balanced
        assert c.total_sectors() == 9  # the explicit nine-sector list

    def test_d2(self):
        c = orbifold_census(2)
        assert (c.dim2_count, c.dim1_count, c.twisted_count) == (6, 8, 8)
        assert c.total_sectors() == 22

    @pytest.mark.parametrize("d", range(1, 6))
    def test_counts_match_negation_on_z4d(self, d):
        # x = -x splits into two sectors of dimension 1; each other orbit
        # {x, -x} is one sector of dimension 2
        words = list(product(range(4), repeat=d))
        fixed = sum(1 for x in words if _negate(x) == x)
        orbits = {frozenset((x, _negate(x))) for x in words}
        c = orbifold_census(d)
        assert (c.dim2_count, c.dim1_count) == (len(orbits) - fixed, 2 * fixed)
        assert c.twisted_count == 2 ** (d + 1)
        assert c.mu_balance == 4 * c.dim2_count + c.dim1_count + 2 ** d * c.twisted_count

    def test_mu_balance_up_to_12(self):
        for d in range(1, 13):
            c = orbifold_census(d)
            assert c.balanced
            assert c.mu_balance == 4 ** (d + 1)

    def test_invalid_rank(self):
        with pytest.raises(FusionError):
            orbifold_census(0)


class TestMiyamoto:
    def test_identity_without_sixteenth(self):
        decomp = [((Fraction(0), Fraction(0)), 1), ((HALF, HALF), 1)]
        signed = miyamoto_involution(decomp, 1, "tau")
        assert signed.is_identity

    def test_flips_sixteenth(self):
        decomp = [((Fraction(0), Fraction(0)), 1), ((SIXTEENTH, SIXTEENTH), 1)]
        signed = miyamoto_involution(decomp, 1, "tau")
        assert [s for *_, s in signed.entries] == [1, -1]
        assert not signed.is_identity

    def test_applying_twice_is_identity(self):
        decomp = [((Fraction(0), SIXTEENTH), 2), ((HALF, SIXTEENTH), 3)]
        once = miyamoto_involution(decomp, 1, "tau")
        squared = [(label, mult, s * s) for label, mult, s in once.entries]
        assert all(s == 1 for *_, s in squared)

    def test_tau_prime_flips_half(self):
        decomp = [((Fraction(0), Fraction(0)), 1), ((HALF, HALF), 1)]
        signed = miyamoto_involution(decomp, 0, "tau_prime")
        assert [s for *_, s in signed.entries] == [1, -1]

    def test_tau_prime_rejects_sixteenth(self):
        decomp = [((SIXTEENTH, SIXTEENTH), 1)]
        with pytest.raises(FusionError):
            miyamoto_involution(decomp, 0, "tau_prime")

    def test_position_out_of_range(self):
        with pytest.raises(FusionError):
            miyamoto_involution([((Fraction(0),), 1)], 3, "tau")


class TestFramedStructure:
    def test_trivial_decomposition(self):
        fs = framed_structure([((Fraction(0),) * 4, 1)])
        assert fs.k == 0 and fs.l == 0

    def test_all_sixteenth_pattern_rank_one(self):
        decomp = [
            ((Fraction(0),) * 4, 1),
            ((SIXTEENTH,) * 4, 7),
        ]
        fs = framed_structure(decomp)
        assert fs.l == 1 and fs.k == 0

    def test_e8_framed_data(self):
        # derived count: 2^7 even codewords, each branching into 2^8 inner
        # labels, gives k = 15; all odd codewords share the all-ones
        # 1/16-pattern, so l = 1; the index identity 4^16 = (2^k 2^l)^2 holds
        decomp = ising_decomposition(builtin_delta("h8", "L"))
        fs = framed_structure(decomp)
        assert fs.num_factors == 16
        assert (fs.k, fs.l) == (15, 1)
        assert 4 ** fs.num_factors == (2 ** fs.k) ** 2 * (2 ** fs.l) ** 2
        assert fs.sign_matrix == ((1,) * 16,)

    def test_inner_multiplicity_must_be_one(self):
        decomp = [((Fraction(0),) * 2, 1), ((HALF, HALF), 2)]
        with pytest.raises(FusionError):
            framed_structure(decomp)

    def test_requires_vacuum_label(self):
        with pytest.raises(FusionError):
            framed_structure([((HALF, HALF), 1)])

    def test_decomposition_too_large(self):
        with pytest.raises(FusionError):
            ising_decomposition(builtin_delta("golay24", "Ltilde"))

    def test_decomposition_multiplicities(self):
        decomp = dict(ising_decomposition(builtin_delta("h8", "L")))
        assert decomp[(Fraction(0),) * 16] == 1
        assert decomp[(SIXTEENTH,) * 16] == 128
        assert sum(decomp.values()) == 2 ** 15 + 128

    def test_sign_matrix_is_reduced_basis(self):
        zero, s = Fraction(0), SIXTEENTH
        decomp = [
            ((zero,) * 4, 1),
            ((s, s, zero, zero), 1),
            ((zero, zero, s, s), 1),
            ((s, s, s, s), 1),
        ]
        fs = framed_structure(decomp)
        assert fs.l == 2
        assert fs.sign_matrix == ((1, 1, 0, 0), (0, 0, 1, 1))


def _permuted(code, perm):
    """The binary code with coordinate i moved to position perm[i]."""
    rows = []
    for g in code.generators:
        row = [0] * code.length
        for i, bit in enumerate(g):
            row[perm[i]] = bit
        rows.append(row)
    return BinaryCode(code.length, rows)


def _span(rows):
    """Every nonzero vector of the F2 row space of `rows`."""
    span = {tuple(0 for _ in rows[0])} if rows else set()
    for r in rows:
        span |= {tuple(a ^ b for a, b in zip(v, r)) for v in span}
    return {v for v in span if any(v)}


class TestFramedFromCode:
    """framed_from_code reads (k, l) off the Z4 basis; the label expansion
    and a codeword count are its oracles."""

    @pytest.mark.parametrize(
        "perm, variant",
        [
            ((0, 1, 2, 3, 4, 5, 6, 7), "L"),
            ((0, 1, 2, 3, 4, 5, 6, 7), "Ltilde"),
            ((4, 5, 0, 1, 6, 7, 2, 3), "Ltilde"),  # pairs reordered
            ((0, 2, 1, 3, 4, 6, 5, 7), "Ltilde"),  # pairs broken up
        ],
        ids=["h8-L", "h8-Ltilde", "h8-pairs-permuted-Ltilde", "h8-shuffled-Ltilde"],
    )
    def test_matches_label_expansion(self, perm, variant):
        G = delta_code(_permuted(builtin_code("h8"), perm), variant)
        decomp = ising_decomposition(G)
        fs, oracle = framed_from_code(G), framed_structure(decomp)
        assert (fs.num_factors, fs.k, fs.l) == (oracle.num_factors, oracle.k, oracle.l)
        assert fs.sign_matrix == oracle.sign_matrix
        patterns = {
            tuple(1 if e == SIXTEENTH else 0 for e in label) for label, _ in decomp
        }
        assert _span(fs.sign_matrix) == patterns - {(0,) * 16}

    @pytest.mark.parametrize("variant, kl", [("L", (30, 2)), ("Ltilde", (29, 3))])
    def test_h8_squared_against_codeword_count(self, variant, kl):
        d = 16
        G = delta_code(_h8_squared(), variant)
        fs = framed_from_code(G)
        assert (fs.num_factors, fs.k, fs.l) == (2 * d, *kl)
        words = list(G.codewords())
        assert sum(all(a % 2 == 0 for a in w) for w in words) == 2 ** (fs.k - d)
        supports = {tuple(a % 2 for a in w) for w in words}
        assert len(supports) == 2 ** fs.l  # G mod 2 is a group
        undoubled = [row[::2] for row in fs.sign_matrix]
        assert all(row[::2] == row[1::2] for row in fs.sign_matrix)
        assert _span(undoubled) == supports - {(0,) * d}

    @pytest.mark.parametrize(
        "variant, kls", [("L", [(30, 2), (31, 1)]), ("Ltilde", [(29, 3), (30, 2)])]
    )
    def test_milnor_pair(self, variant, kls):
        # h8+h8 and d16+ share their weight enumerator, so their characters by
        # both routes and their orbifold characters agree; (k, l) tells them apart
        pair = (_h8_squared(), _d16_plus())
        enumerators = [codes.check_holomorphic_hypotheses(c).weight_enumerator for c in pair]
        assert enumerators[0] == enumerators[1]
        for char in (frame_char, theta_over_eta, orbifold_vacuum_char):
            assert char(pair[0], variant, 8) == char(pair[1], variant, 8), char.__name__
        framed = [framed_from_code(delta_code(c, variant)) for c in pair]
        assert [(fs.num_factors, fs.k, fs.l) for fs in framed] == [(32, *kl) for kl in kls]

    @pytest.mark.parametrize(
        "variant, kls",
        [("L", [(45, 3), (46, 2), (47, 1)]), ("Ltilde", [(44, 4), (45, 3), (46, 2)])],
    )
    def test_rank24_codes_characters_cannot_tell_apart(self, variant, kls):
        # the q^0 coefficient of each character counts weight-one states:
        # 24 plus the 48 + 16 A_4 roots for L, 24 + 8 A_4 for Ltilde and
        # for the orbifold of L, and 4 A_4 for the orbifold of Ltilde
        golay, h8_cubed, h8_d16, d24 = (
            builtin_code("golay24"), _h8_cubed(), _h8_plus_d16_plus(), _d24_plus()
        )
        for code, a4 in ((golay, 0), (h8_cubed, 42), (h8_d16, 42), (d24, 66)):
            assert codes.check_holomorphic_hypotheses(code).weight_enumerator.get(4, 0) == a4
            ch = frame_char(code, variant, 3)
            assert ch == theta_over_eta(code, variant, 3)
            orbifold = orbifold_vacuum_char(code, variant, 3)
            if variant == "L":
                assert (ch.series.coeff(0), orbifold.series.coeff(0)) == (72 + 16 * a4, 24 + 8 * a4)
            else:
                assert (ch.series.coeff(0), orbifold.series.coeff(0)) == (24 + 8 * a4, 4 * a4)
        # the Milnor pair h8+h8+h8 and h8+d16+: equal characters, unequal (k, l)
        for char in (theta_over_eta, orbifold_vacuum_char):
            assert char(h8_cubed, variant, 8) == char(h8_d16, variant, 8), char.__name__
        framed = [framed_from_code(delta_code(c, variant)) for c in (h8_cubed, h8_d16, d24)]
        assert [(fs.num_factors, fs.k, fs.l) for fs in framed] == [(48, *kl) for kl in kls]

    @pytest.mark.parametrize("variant, kl", [("L", (37, 11)), ("Ltilde", (36, 12))])
    def test_golay24(self, variant, kl):
        fs = framed_from_code(builtin_delta("golay24", variant))
        assert (fs.num_factors, fs.k, fs.l) == (48, *kl)
        assert len(fs.sign_matrix) == fs.l
        assert fs.k + fs.l == fs.num_factors
