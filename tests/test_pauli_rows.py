"""A PauliSum held as packed rows and a coefficient vector.

``PauliSum.from_rows``, the text parser and the all-pairs
``multiply`` are each checked against a per-term oracle kept here: the
dict merge, the line-by-line parser and the pair-by-pair product loop that
the package used before sums were held as arrays. The oracle parser has
one addition, the rule that numerals are ASCII.
"""

import cmath
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paulibridge import pauli
from paulibridge.pauli import (
    EmptyInput,
    InconsistentLength,
    MalformedLine,
    PauliError,
    PauliSum,
    SYMBOLS,
    label_rows,
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


# ---------------------------------------------------------------------------
# the reader's one rule per line, and its shortcut

# The verdict on each refused text, pinned as the bulk reader that the one rule replaced gave it:
# (text, class, line, column, message); line and column are None where the class carries none.
REFUSALS = [
    # token counts
    ("1.0\n", MalformedLine, 1, 1, "line 1, column 1: expected '<coeff> <STRING>', got 1 tokens"),
    ("1.0 XX YY\n", MalformedLine, 1, 1, "line 1, column 1: expected '<coeff> <STRING>', got 3 tokens"),
    ("1.0 XX\n  XX 1.0 1\n", MalformedLine, 2, 3, "line 2, column 3: expected '<coeff> <STRING>', got 3 tokens"),
    ("1.0 XX\n\t-2.5\n", MalformedLine, 2, 2, "line 2, column 2: expected '<coeff> <STRING>', got 1 tokens"),
    ("0.5#c XX\n", MalformedLine, 1, 1, "line 1, column 1: expected '<coeff> <STRING>', got 1 tokens"),
    # coefficients
    ("1.0 XX\nnan ZZ\n", MalformedLine, 2, 1, "line 2, column 1: non-finite coefficient 'nan'"),
    ("1.0 XX\n inf ZZ\n", MalformedLine, 2, 2, "line 2, column 2: non-finite coefficient 'inf'"),
    ("1.0 XX\n1e400 ZZ\n", MalformedLine, 2, 1, "line 2, column 1: non-finite coefficient '1e400'"),
    ("1.0 XX\n1+2j ZZ\n", MalformedLine, 2, 1, "line 2, column 1: bad coefficient '1+2j'"),
    ("1.0 XX\n1_0 ZZ\n", MalformedLine, 2, 1, "line 2, column 1: bad coefficient '1_0'"),
    ("1.0 XX\n٣ ZZ\n", MalformedLine, 2, 1, "line 2, column 1: bad coefficient '٣'"),
    ("nan XX\n", MalformedLine, 1, 1, "line 1, column 1: non-finite coefficient 'nan'"),
    ("1.0 XX\n-inf ZZ\n", MalformedLine, 2, 1, "line 2, column 1: non-finite coefficient '-inf'"),
    ("1.0 XX\n1e400i ZZ\n", MalformedLine, 2, 1, "line 2, column 1: bad coefficient '1e400i'"),
    ("1.0 XX\nnan+1i ZZ\n", MalformedLine, 2, 1, "line 2, column 1: bad coefficient 'nan+1i'"),
    ("1.0 XX\n1+٣i ZZ\n", MalformedLine, 2, 1, "line 2, column 1: bad coefficient '1+٣i'"),
    # symbols
    ("1.0 XQ\n", MalformedLine, 1, 5, "line 1, column 5: invalid Pauli symbol 'Q' in 'XQ'"),
    ("1.0 XX\n1.0 xx\n", MalformedLine, 2, 5, "line 2, column 5: invalid Pauli symbol 'x' in 'xx'"),
    ("1.0 XX\n  2.0   Zé\n", MalformedLine, 2, 9, "line 2, column 9: invalid Pauli symbol 'é' in 'Zé'"),
    ("1.0 XX\n1.0 X\ud800\n", MalformedLine, 2, 5, "line 2, column 5: invalid Pauli symbol '\\ud800' in 'X\\ud800'"),
    ("1.0 XX\n1.0 XX\n2.0 IQZ\n", MalformedLine, 3, 5, "line 3, column 5: invalid Pauli symbol 'Q' in 'IQZ'"),
    # widths: the first line's last token sets it
    ("1.0 XX\n1.0 XXX\n", InconsistentLength, None, None, "line 2: string length 3 != 2"),
    ("1.0 XXX\n\n# c\n0.5 XX\n", InconsistentLength, None, None, "line 4: string length 2 != 3"),
    ("0.5+1i XX\n  0.25 X # short\n", InconsistentLength, None, None, "line 2: string length 1 != 2"),
    # comment-only and blank lines
    ("# only a comment\n\n", EmptyInput, None, None, "no terms in input"),
    ("", EmptyInput, None, None, "no terms in input"),
    ("  \n\t\n# 1.0 QQ\n", EmptyInput, None, None, "no terms in input"),
    ("# head\n\n1.0 XX\n# mid\n1.0 XQ\n", MalformedLine, 5, 5, "line 5, column 5: invalid Pauli symbol 'Q' in 'XQ'"),
    # line separators: CRLF, and \x0b and \x1c, which str.splitlines also breaks at
    ("1.0 XX\r\n1.0 XQ\r\n", MalformedLine, 2, 5, "line 2, column 5: invalid Pauli symbol 'Q' in 'XQ'"),
    ("1.0 XX\x0b1.0 XQ\n", MalformedLine, 2, 5, "line 2, column 5: invalid Pauli symbol 'Q' in 'XQ'"),
    ("1.0 XX\x1c2.0 ZZ\x1cnan ZZ\n", MalformedLine, 3, 1, "line 3, column 1: non-finite coefficient 'nan'"),
    ("1.0 XX\r\n\r\n  1.0 XXX\r\n", InconsistentLength, None, None, "line 3: string length 3 != 2"),
    ("1.0\x0bXX\n", MalformedLine, 1, 1, "line 1, column 1: expected '<coeff> <STRING>', got 1 tokens"),
    ("1.0\x1cXX\n", MalformedLine, 1, 1, "line 1, column 1: expected '<coeff> <STRING>', got 1 tokens"),
    # the first bad line wins, whatever its clause
    ("1.0 XX\n1.0 XQ\n1.0\n", MalformedLine, 2, 5, "line 2, column 5: invalid Pauli symbol 'Q' in 'XQ'"),
    ("1.0 XX\n1.0 XXX\n1_0 ZZ\n", InconsistentLength, None, None, "line 2: string length 3 != 2"),
    ("1.0 XX YY\n1_0 ZZ\n", MalformedLine, 1, 1, "line 1, column 1: expected '<coeff> <STRING>', got 3 tokens"),
    # merges that overflow, named at the line that overflows and its first token
    ("1e308 XZ\n1e308 XZ\n0.5 ZZ\n", MalformedLine, 2, 1,
     "line 2, column 1: coefficient of XZ is not finite once merged with earlier lines"),
    ("0.5 ZZ\n1e308i XZ\n  -1e308+1e308i XZ\n", MalformedLine, 3, 3,
     "line 3, column 3: coefficient of XZ is not finite once merged with earlier lines"),
]


def rule_parse(text: str) -> PauliSum:
    """Every body line through the rule alone, merged; the sum parse_pauli_sum must return."""
    body = [(no, line) for no, raw in enumerate(text.splitlines(), 1) if (line := raw.split("#", 1)[0]).split()]
    width = len(body[0][1].split()[-1])
    coeffs, labels = zip(*(pauli._read_line(line, no, width) for no, line in body))
    return PauliSum.from_rows(width, label_rows(labels, width), np.array(coeffs, dtype=np.complex128))


@st.composite
def mutated_texts(draw):
    """A valid text with one line past the first mutated, and that line's number."""
    width = draw(st.integers(1, 6))
    lines = []
    for _ in range(draw(st.integers(2, 7))):
        coeff = draw(st.floats(-1e3, 1e3).map(repr) | st.sampled_from(["1", "-.5e1", "0.5-0.25i", "1i", "-0.0+0i"]))
        label = draw(st.text("IXYZ", min_size=width, max_size=width))
        lines.append([draw(st.sampled_from(["", " ", "\t"])), coeff, draw(st.sampled_from([" ", "\t "])), label,
                      draw(st.sampled_from(["", "  ", " # note"]))])
    k = draw(st.integers(1, len(lines) - 1))
    pad, coeff, sep, label, tail = lines[k]
    kind = draw(st.sampled_from(["coeff", "symbol", "length", "count", "cut"]))
    if kind == "coeff":
        coeff = draw(TOKENS)
    elif kind == "symbol":
        at = draw(st.integers(0, width - 1))
        label = label[:at] + draw(BAD_SYMBOLS) + label[at + 1 :]
    elif kind == "length":
        label = draw(st.sampled_from([label + "Z", label[1:]]))
    elif kind == "count":
        label = draw(st.sampled_from(["", label + sep + label, label + " 1"]))
    lines = ["".join(line) for line in lines]
    lines[k] = pad + coeff + sep + label + (tail if kind != "cut" else "")
    if kind == "cut":  # a "#", a whitespace that is not ASCII, or a line break, anywhere in the line
        at = draw(st.integers(0, len(lines[k])))
        cut = draw(st.sampled_from(["#", "\x1f", "\u3000", "\x0b", "\x1c", "\x85"]))
        lines[k] = lines[k][:at] + cut + lines[k][at:]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n", k + 1


class TestLineRule:
    @pytest.mark.parametrize("text, cls, line, column, message", REFUSALS)
    def test_refusal_is_the_pinned_verdict(self, text, cls, line, column, message):
        with pytest.raises(PauliError) as err:
            parse_pauli_sum(text)
        assert type(err.value) is cls and str(err.value) == message
        assert (getattr(err.value, "line", None), getattr(err.value, "column", None)) == (line, column)

    @BYTE_IDENTITY
    @given(mutated_texts())
    @example(("1.0 XX\n2.0 X\x0bX\n", 2))
    @example(("1.0 XX\n\x852.0 ZZ\n", 2))
    def test_a_mutated_line_is_refused_at_its_number_or_read_by_the_rule(self, case):
        text, line_no = case
        try:
            op = parse_pauli_sum(text)
        except (MalformedLine, InconsistentLength) as exc:
            assert re.match(rf"line {line_no}\b", str(exc))
            assert outcome(rule_parse, text) == (type(exc), str(exc))
        else:
            assert same_bytes(op, rule_parse(text))

    @BYTE_IDENTITY
    @given(st.lists(st.tuples(st.floats(-1e300, 1e300) | SIGNED.map(lambda c: c.real),
                              st.text("IXYZ", min_size=3, max_size=3)), min_size=1, max_size=8))
    @example([(-0.0, "XYZ"), (5e-324, "IZZ"), (0.0, "XYZ"), (1.5, "IZZ")])
    def test_reals_written_as_complex_read_bit_equal_through_the_rule(self, terms):
        plain = "".join(f"{c!r} {label}\n" for c, label in terms)
        ruled = "".join(f"{c!r}+0i {label}\n" for c, label in terms)
        with mock.patch.object(pauli, "_read_line", wraps=pauli._read_line) as rule:
            op = parse_pauli_sum(plain)
            assert rule.call_count == 0  # every plain line takes the shortcut
            ruled_op = parse_pauli_sum(ruled)
            assert rule.call_count == len(terms)  # and every a+0i line the rule
        assert op.rows.tobytes() == ruled_op.rows.tobytes() and op.coeffs.tobytes() == ruled_op.coeffs.tobytes()
