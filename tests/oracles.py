"""Product expansions shared by the series, character and orbifold tests,
coded independently of framednet.qseries.product_form; codewords and the
glue word built from their definitions, independently of framednet.codes;
a Z4 code's generators as symbol tuples, its dual and its weight check
over every pair of generators; codes shared by the acceptance and fusion
tests; and random doubly-even self-dual codes.
"""

import math
from itertools import combinations

from hypothesis import strategies as st

from framednet import codes
from framednet.codes import BinaryCode, Z4Code, binary_code_from_text, builtin_code
from framednet.qseries import DEN, QSeries


def gen_binom(power, k):
    """Generalized binomial coefficient C(power, k) for any integer power."""
    num = 1
    for i in range(k):
        num *= power - i
    return num // math.factorial(k)


def binomial_product_coeffs(sign, power, exps, n2_max):
    """Coefficients of prod (1 + sign*q^e)^power over the given exponents
    (doubled to stay integral), each factor expanded by the generalized
    binomial series and convolved with plain dict arithmetic."""
    acc = {0: 1}
    for e2 in exps:
        factor = {}
        k = 0
        while k * e2 <= n2_max and (power < 0 or k <= power):
            factor[k * e2] = gen_binom(power, k) * sign ** k
            k += 1
        nxt = {}
        for a, ca in acc.items():
            for b, cb in factor.items():
                if a + b <= n2_max:
                    nxt[a + b] = nxt.get(a + b, 0) + ca * cb
        acc = nxt
    return acc


def product_oracle(sign, power, half, order_num):
    """prod_{n>=1} (1 + sign*q^{e_n})^power exact below q^(order_num/48), with
    e_n = n - 1/2 if `half` else n, from binomial_product_coeffs."""
    n2_max = (order_num - 1) // (DEN // 2)  # largest doubled exponent below the order
    exps = range(1 if half else 2, n2_max + 1, 2)
    coeffs = binomial_product_coeffs(sign, power, exps, n2_max)
    return QSeries({n2 * (DEN // 2): c for n2, c in coeffs.items()}, order_num)


def leading(series):
    """The lowest exponent of a series and its coefficient."""
    return series.items()[0]


def binary_codewords(code):
    """Every word of a binary code as a symbol tuple: the sums mod 2 of
    every subset of code.generators, one generator doubling the list."""
    words = [(0,) * code.length]
    for g in code.generators:
        words += [tuple(a ^ b for a, b in zip(w, g)) for w in words]
    return words


def z4_generators(code):
    """The generators a Z4 code was built from, in order, as symbol tuples."""
    return tuple(codes._word(lo, hi, code.length) for lo, hi in code._gens)


def all_pairs_non_integral_element(code):
    """An element of a Z4 code whose weight sum x_i^2 / 8 is not an integer,
    or None: the first generator that fails, else g + k for the first pair
    (g, k) of generators, in order, whose polar form sum g_i k_i / 4 is
    not an integer.  Every pair is visited."""
    gens = z4_generators(code)
    for g in gens:
        if sum(a * a for a in g) % 8:
            return g
    for g, k in combinations(gens, 2):
        if sum(a * b for a, b in zip(g, k)) % 4:
            return tuple((a + b) % 4 for a, b in zip(g, k))
    return None


def z4_dual_code(code):
    """Dual under the pairing b(x, y) = sum x_i y_i / 4 mod 1, over F2.

    With unit rows u and two rows 2t, y = k + 2w (k, w binary) is in the
    dual iff t.k = 0 (mod 2) and u.k + 2 u.w = 0 (mod 4).  So k runs over
    the F2 kernel K of the rows t, which span the u mod 2, and each k
    lifts with a w solving (u mod 2).w = (u.k mod 4) / 2.  The lifts of a
    basis of K and 2z for a basis of the kernel of (u mod 2) generate the
    dual.  The u mod 2 are independent, so one reduction of them,
    augmented by the right-hand sides of every k, solves every system.
    In planes u.k = |u_lo & k| + 2 |u_hi & k|, where |u_lo & k| is even.
    """
    d = code.length
    kernel = codes._kernel(codes._rref(code._twos.values()), d)
    augmented = [
        lo | sum(1 << d + j for j, k in enumerate(kernel)
                 if ((lo & k).bit_count() >> 1) + (hi & k).bit_count() & 1)
        for lo, hi in code._units.values()
    ]
    solved = codes._rref(augmented).items()
    gens = [(k, sum(p for p, row in solved if row >> d + j & 1)) for j, k in enumerate(kernel)]
    gens += [(0, z) for z in codes._kernel(codes._rref(lo for lo, _ in code._units.values()), d)]
    return Z4Code._from_planes(d, gens or [(0, 0)])


def glue_word(d):
    """The extra coset representative of the second lattice construction:
    1 on the even coordinates, and the last pair 3 2 when d = 8 (mod 16)."""
    word = [1, 0] * (d // 2)
    if d % 16 == 8:
        word[-2:] = [3, 2]
    return tuple(word)


def _direct_sum(*parts):
    """The direct sum of binary codes, in this order."""
    rows, offset, d = [], 0, sum(c.length for c in parts)
    for c in parts:
        rows += [[0] * offset + list(g) + [0] * (d - offset - c.length) for g in c.generators]
        offset += c.length
    return BinaryCode(d, rows)


def _d_plus(d):
    """d_d+: the blocks 1111 at the even offsets 0 .. d - 4 and the glue
    0101...01."""
    rows = [[1 if 2 * i <= j < 2 * i + 4 else 0 for j in range(d)] for i in range(d // 2 - 1)]
    return BinaryCode(d, rows + [[0, 1] * (d // 2)])


def _d16_plus():
    """d16+, the Milnor partner of h8+h8: the same weight enumerator, so the
    same characters, but a different pair profile."""
    return _d_plus(16)


def _h8_squared():
    h8 = builtin_code("h8")
    return _direct_sum(h8, h8)


def _h8_cubed():
    h8 = builtin_code("h8")
    return _direct_sum(h8, h8, h8)


def _h8_plus_d16_plus():
    """The Milnor partner of h8+h8+h8, as d16+ is of h8+h8."""
    return _direct_sum(builtin_code("h8"), _d16_plus())


def _d24_plus():
    """d24+: the blocks 1111 at pair offsets 0-20 and the glue 0101...01."""
    return _d_plus(24)


# The other five doubly-even self-dual codes of length 24 (Pless and Sloane
# 1975), named by the components of their weight-4 words: generators in
# reduced row echelon form of codes a seeded Kneser walk from h8^3 reached.
LENGTH24_TEXTS = {
    "d4^6": """\
100000000000011001101101
010000000000110100001111
001000000000010111101010
000100000000001011110110
000010000000011010101101
000001000000011100110011
000000100000000000010101
000000010000011111001010
000000001000100111010011
000000000100001111110100
000000000010110011011100
000000000001001100111011
""",
    "d6^4": """\
100100010001000001011001
010100000000001101001011
001100010001001100010010
000010000001000000000011
000001010000001101001011
000000100001001100011101
000000001001011001011010
000000000101010101011010
000000000011001101010101
000000000000111100000000
000000000000000011001100
000000000000000000110011
""",
    "d8^3": """\
100100110000001100010001
010100000000001100011110
001100110000000000001111
000010100000001100011110
000001010000001100011110
000000001001011000001111
000000000101010100001111
000000000011001100000000
000000000000111100000000
000000000000000010011001
000000000000000001010101
000000000000000000110011
""",
    "d10e7^2": """\
100000010000000101101011
010000000000110100001111
001000010000001000100000
000100000000000101000100
000010000000000001000110
000001010000001101001011
000000100000001101101011
000000001000100100011111
000000000100010100011111
000000000010110000010000
000000000001000001000101
000000000000000011001100
""",
    "d12^2": """\
100000000000000010110000
010000000000110011100101
001000000000110000001000
000100000000000001110000
000010000000110000000010
000001000000111000000000
000000100100011000111010
000000010100110000000000
000000001100101000111010
000000000010110011010101
000000000001000000110001
000000000000000100110100
""",
}


def length24_code(name):
    """The code of LENGTH24_TEXTS called `name`."""
    return binary_code_from_text(LENGTH24_TEXTS[name])


def weight_four_signature(code):
    """(A_4, rank): the number of words of weight 4 and the F2 rank of their
    span, from every codeword.  It tells the nine codes of length 24 apart."""
    basis = []  # reduced rows with distinct leading bits, highest first
    fours = [w for w in binary_codewords(code) if sum(w) == 4]
    for w in fours:
        x = int("".join(map(str, w)), 2)
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis = sorted([*basis, x], reverse=True)
    return len(fours), len(basis)


@st.composite
def self_dual_codes(draw, max_k=5, steps=3):
    """A doubly-even self-dual code of length 8k, 1 <= k <= max_k: h8^k,
    then `steps` Kneser neighbour steps C -> (C cap v-perp) + <v> (Kneser
    1957; Conway-Sloane, SPLAG ch. 16), v drawn of weight 0 mod 4.  Since C
    is self-dual, a v outside C is outside C-perp, so C cap v-perp has
    index 2 in C, and the neighbour is doubly even and self-dual again and
    holds the all-ones word; a v in C leaves C as it is."""
    k = draw(st.integers(1, max_k))
    d = 8 * k
    code = _direct_sum(*[builtin_code("h8")] * k)
    for _ in range(steps):
        support = draw(st.permutations(range(d)))[:4 * draw(st.integers(1, 2 * k - 1))]
        v = [int(i in support) for i in range(d)]
        if v in code:
            continue
        odd = [g for g in code.generators if sum(a & b for a, b in zip(g, v)) % 2]
        even = [g for g in code.generators if g not in odd]
        code = BinaryCode(d, [*even, *(tuple(a ^ b for a, b in zip(g, odd[0])) for g in odd[1:]), v])
    return code
