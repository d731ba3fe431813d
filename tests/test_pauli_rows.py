"""A PauliSum held as packed rows and a coefficient vector.

``PauliSum.from_rows``, the bulk text parser and the all-pairs
``multiply`` are each checked against a per-term oracle kept here: the
dict merge, the line-by-line parser and the pair-by-pair product loop that
the package used before sums were held as arrays. The oracle parser has
one addition, the rule that numerals are ASCII.
"""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paulibridge.pauli import (
    EmptyInput,
    InconsistentLength,
    MalformedLine,
    PauliError,
    PauliSum,
    SYMBOLS,
    multiply,
    n_words,
    parse_pauli_sum,
    pauli_product,
    serialize_pauli_sum,
)

from conftest import BYTE_IDENTITY, int_rows, row_ints, sum_terms


def same_bytes(a: PauliSum, b: PauliSum) -> bool:
    """Equal strings in equal order and bit-equal coefficients, signed zeros included."""
    return (
        a.n_sites == b.n_sites
        and np.array_equal(a.rows, b.rows)
        and a.coeffs.view(np.uint8).tobytes() == b.coeffs.view(np.uint8).tobytes()
    )


# ---------------------------------------------------------------------------
# from_rows against the dict merge

SIGNED = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                          complex(-0.0, 1.0), complex(1.0, -0.0), 5e-324 + 0j, 1 + 0j])
COEFFS = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False) | SIGNED


def dict_merge(terms) -> tuple[list[int], list[complex]]:
    """Strings (base-4 integers) and coefficients of ``(coeff, value)`` terms merged in a dict:
    first-occurrence order, each string's coefficients added in input order from 0j, exact
    zeros dropped."""
    merged = {}
    for coeff, value in terms:
        merged[value] = merged.get(value, 0j) + complex(coeff)
    kept = [(value, c) for value, c in merged.items() if c != 0]
    return [value for value, _ in kept], [c for _, c in kept]


def from_terms(n: int, terms) -> PauliSum:
    """``from_rows`` on ``(coeff, value)`` terms, the rows through int_rows."""
    coeffs = np.array([c for c, _ in terms], dtype=np.complex128).reshape(-1)
    return PauliSum.from_rows(n, int_rows([value for _, value in terms], n), coeffs)


@st.composite
def term_lists(draw):
    """Terms over a few strings, so duplicates are common, with some terms
    repeated negated, so whole strings cancel exactly."""
    n = draw(st.sampled_from([1, 31, 32, 33, 64, 65]))
    pool = draw(st.lists(st.integers(0, 4**n - 1), min_size=1, max_size=5))
    terms = []
    for coeff, bits in draw(st.lists(st.tuples(COEFFS, st.sampled_from(pool)), max_size=16)):
        terms.append((coeff, bits))
        if draw(st.booleans()):
            terms.append((-coeff, bits))
    return n, terms


def coeff_bits(coeffs) -> bytes:
    return np.array(coeffs, dtype=np.complex128).reshape(-1).view(np.uint8).tobytes()


class TestConstructors:
    @BYTE_IDENTITY
    @given(term_lists())
    def test_term_list_and_rows_agree(self, case):
        n, terms = case
        values, coeffs = dict_merge(terms)
        packed = from_terms(n, terms)
        assert row_ints(packed.rows) == values
        assert coeff_bits(packed.coeffs) == coeff_bits(coeffs)
        assert packed.coeffs.tolist() == coeffs

    def test_arrays_are_read_only(self):
        op = PauliSum.from_rows(2, np.array([[7]], dtype=np.uint64), [1.0])
        with pytest.raises(ValueError):
            op.rows[0, 0] = 0
        with pytest.raises(ValueError):
            op.coeffs[0] = 0

    def test_merge_keeps_first_occurrence_order(self):
        op = PauliSum.from_rows(3, np.array([[9], [5], [9], [5]], dtype=np.uint64), [0.5, 1.0, 0.25, 2.0])
        assert sum_terms(op) == [(0.75, "IYX"), (3.0, "IXX")]

    def test_equality_ignores_term_order(self):
        rows = np.array([[5], [9]], dtype=np.uint64)
        op = PauliSum.from_rows(3, rows, [1.0, 0.5])
        assert op == PauliSum.from_rows(3, rows[::-1], [0.5, 1.0])
        assert op != PauliSum.from_rows(3, rows, [1.0, 0.25])
        assert op != PauliSum.from_rows(3, rows[:1], [1.0])
        assert op != PauliSum.from_rows(4, rows, [1.0, 0.5])

    def test_merge_keeps_overflow(self):
        op = PauliSum.from_rows(1, np.array([[1], [1]], dtype=np.uint64), [1e308, 1e308])
        assert op.coeffs.tolist() == [complex(math.inf, 0.0)]

    @pytest.mark.parametrize("n_sites, rows, coeffs, message", [
        (2, np.zeros((2, 1), dtype=np.uint64), [1.0], "do not fit 2 sites"),
        (33, np.zeros((1, 1), dtype=np.uint64), [1.0], "do not fit 33 sites"),
        (0, np.zeros((1, 0), dtype=np.uint64), [1.0], "do not fit 0 sites"),
        (2, np.array([[16]], dtype=np.uint64), [1.0], r"rows \(1, 1\) and coeffs \(1,\) do not fit 2 sites"),
        (33, np.array([[4, 0]], dtype=np.uint64), [1.0], "do not fit 33 sites"),
    ])
    def test_rows_must_fit_the_site_count(self, n_sites, rows, coeffs, message):
        with pytest.raises(PauliError, match=message):
            PauliSum.from_rows(n_sites, rows, coeffs)


# ---------------------------------------------------------------------------
# multiply: one packed_product over all pairs against the pair-by-pair loop

def pairwise_multiply(a: PauliSum, b: PauliSum) -> tuple[list[int], list[complex]]:
    """The products of every pair of terms by pauli_product, merged in a dict."""
    out = []
    for ca, ra in zip(a.coeffs.tolist(), a.rows):
        for cb, rb in zip(b.coeffs.tolist(), b.rows):
            phase, row = pauli_product(ra, rb)
            out.append((ca * cb * phase, row_ints(row[None])[0]))
    return dict_merge(out)


class TestMultiplyBytes:
    @BYTE_IDENTITY
    @given(term_lists(), st.data())
    def test_bytes_equal_pairwise_product(self, case, data):
        n, terms = case
        other = data.draw(st.lists(st.tuples(COEFFS, st.integers(0, 4**n - 1)), max_size=6))
        a, b = from_terms(n, terms), from_terms(n, other)
        product = multiply(a, b)
        values, coeffs = pairwise_multiply(a, b)
        assert row_ints(product.rows) == values and coeff_bits(product.coeffs) == coeff_bits(coeffs)


    @pytest.mark.parametrize("a, b, label", [
        ("1e200 XZ\n", "1e200 XZ\n", "II"),  # inf times the i-power 1 + 0j is inf + nan j
        ("1e200 XZ\n0.5 ZZ\n", "0.25 XX\n1e200 ZX\n", "YY"),
        ("1e308 XI\n1e308 YI\n", "1 XI\n1 YI\n", "II"),  # finite products whose merge overflows
    ])
    def test_overflowing_product_names_its_string(self, a, b, label):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning escapes
            with pytest.raises(ValueError, match=f"^the product coefficient of {label} overflows$"):
                multiply(parse_pauli_sum(a), parse_pauli_sum(b))


# ---------------------------------------------------------------------------
# parse_pauli_sum against the line-by-line parser

def oracle_coeff(token: str) -> complex:
    if not token.isascii() or "_" in token:  # the format's numerals are ASCII, with no separators
        raise PauliError(f"bad coefficient {token!r}")
    try:
        value = float(token)
    except ValueError:
        pass
    else:
        if math.isfinite(value):
            return complex(value)
        raise PauliError(f"non-finite coefficient {token!r}")
    if token.endswith("i"):
        try:
            value = complex(token[:-1] + "j")
        except ValueError:
            raise PauliError(f"bad coefficient {token!r}") from None
        if math.isfinite(value.real) and math.isfinite(value.imag):
            return value
    raise PauliError(f"bad coefficient {token!r}")


def oracle_parse(text: str) -> PauliSum:
    """One line at a time, merged in a dict; an overflowing merge is replayed to name its line."""
    entries = []
    n_sites = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedLine(
                f"expected '<coeff> <STRING>', got {len(tokens)} tokens", line_no, line.index(tokens[0]) + 1
            )
        try:
            coeff = oracle_coeff(tokens[0])
        except PauliError as exc:
            raise MalformedLine(str(exc), line_no, line.index(tokens[0]) + 1) from None
        label = tokens[1]
        bad = [ch for ch in label if ch not in SYMBOLS]
        if bad:
            string_col = line.index(label, line.index(tokens[0]) + len(tokens[0])) + 1
            raise MalformedLine(f"invalid Pauli symbol {bad[0]!r} in {label!r}", line_no, string_col)
        if n_sites is None:
            n_sites = len(label)
        elif len(label) != n_sites:
            raise InconsistentLength(f"line {line_no}: string length {len(label)} != {n_sites}")
        entries.append((line_no, raw, coeff, label))
    if n_sites is None:
        raise EmptyInput("no terms in input")
    totals = {}
    for line_no, raw, coeff, label in entries:
        totals[label] = totals.get(label, 0j) + coeff
        if not cmath.isfinite(totals[label]):
            raise MalformedLine(
                f"coefficient of {label} is not finite once merged with earlier lines",
                line_no, len(raw) - len(raw.lstrip()) + 1,
            )
    digits = str.maketrans(SYMBOLS, "0123")
    values, coeffs = dict_merge([(c, int(label.translate(digits), 4)) for _, _, c, label in entries])
    return PauliSum.from_rows(n_sites, int_rows(values, n_sites), np.array(coeffs, dtype=np.complex128))


TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)).map(lambda p: f"{p[0]!r}{p[1]:+}i"),
    st.sampled_from([
        "1", "-0.0", "+.5", "5.", "1E3", "1i", "-1i", "0.5-0.25i", "-0.0-0.0i", "1e308", "-1e308",
        "1e308i", "-1e308+1e308i", "nan", "inf", "-inf", "Infinity", "1e400", "1e400i", "nan+1i",
        "1_0", "0.5_5+1_0i", "٣", "１.5", "abc", "1j", "(1+2j)i", "--1", "1+", "i",
    ]),
)
BAD_SYMBOLS = st.sampled_from(list("QxI0_٣É\ud800") + ["Xé"])


@st.composite
def pauli_texts(draw):
    """Text in the format, corrupted in the ways a line can be: token counts,
    coefficients, symbols and lengths, with comments, blank lines and CRLF."""
    width = draw(st.integers(1, 5))
    labels = draw(st.lists(st.text("IXYZ", min_size=width, max_size=width), min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["term"] * 6 + ["blank", "comment", "count", "symbol", "length"]))
        coeff, label = draw(TOKENS), draw(st.sampled_from(labels))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  # 1.0 QQ"])))
            continue
        if kind == "symbol":
            k = draw(st.integers(0, width - 1))
            label = label[:k] + draw(BAD_SYMBOLS) + label[k + 1 :]
        elif kind == "length":
            label = draw(st.sampled_from([label + "I", label[1:] or "XX"]))
        words = [coeff, label]
        if kind == "count":
            words = draw(st.sampled_from([[coeff], [coeff, label, label], [label, coeff, "1"]]))
        pad = draw(st.sampled_from(["", " ", "  ", "\t"]))
        tail = draw(st.sampled_from(["", "  # trailing", "#x"]))
        lines.append(pad + draw(st.sampled_from([" ", "  ", "\t"])).join(words) + tail)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def outcome(parse, text):
    try:
        return parse(text)
    except PauliError as exc:
        return type(exc), str(exc)


class TestParserOracle:
    @BYTE_IDENTITY
    @given(pauli_texts())
    @example("1e308 XZ\n1e308 XZ\n0.5 ZZ\n")
    @example("0.5 ZZ\n1e308i XZ\n  -1e308+1e308i XZ\n")
    @example("1.0 XX\n-1.0 XX\r\n\r\n# c\n")
    @example("1.0 XX YY\n1_0 ZZ\n")
    @example("1.0 XX\n1.0 XXX\n1_0 ZZ\n")
    @example("1.0 XX\n1.0 X\ud800\n")
    def test_same_sum_or_same_error(self, text):
        got, want = outcome(parse_pauli_sum, text), outcome(oracle_parse, text)
        if isinstance(want, PauliSum):
            assert isinstance(got, PauliSum) and got == want and same_bytes(got, want)
        else:
            assert got == want

    @pytest.mark.parametrize("n_sites", [1, 31, 32, 33, 64, 65])
    def test_rows_of_wide_labels(self, n_sites):
        rng = np.random.default_rng(n_sites)
        labels = ["".join(rng.choice(list("IXYZ"), n_sites)) for _ in range(6)]
        op = parse_pauli_sum("".join(f"{k + 1}.5 {label}\n" for k, label in enumerate(labels)))
        assert op.rows.shape == (len(set(labels)), n_words(n_sites))
        assert [label for _, label in sum_terms(op)] == list(dict.fromkeys(labels))
        assert serialize_pauli_sum(op) == serialize_pauli_sum(oracle_parse(serialize_pauli_sum(op)))


class TestAsciiNumerals:
    @pytest.mark.parametrize("token", ["1_0", "٣", "0.5_5+1_0i", "1e1_0", "１.5", "1+٣i"])
    def test_token_is_refused(self, token):
        with pytest.raises(MalformedLine, match=re.escape(f"line 2, column 3: bad coefficient {token!r}")):
            parse_pauli_sum(f"1.0 XZ\n  {token} ZZ\n")

    def test_ascii_literals_still_read(self):
        op = parse_pauli_sum("10 XZ\n3 ZZ\n0.55+10i XX\n+.5e1 YY\n")
        assert op.coeffs.tolist() == [10, 3, 0.55 + 10j, 5]
