import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulibridge.bridge import compile as compile_bridge
from paulibridge.lcu import block_encoding_dense, compile_lcu, select_dense, select_factorized_dense
from paulibridge.mpo import Mpo, mpo_to_dense
from paulibridge.mps import Mps, ground_state_reference, mps_to_dense
from paulibridge.pauli import (
    DimensionMismatch,
    EmptyInput,
    InconsistentLength,
    LengthMismatch,
    MalformedLine,
    NotNormalized,
    PauliError,
    PauliString,
    PauliSum,
    TooLarge,
    apply_string,
    PAULI_MATRICES,
    SYMBOLS,
    dense_string,
    expectation,
    json_text,
    multiply,
    pack_strings,
    packed_product,
    parse_pauli_sum,
    pauli_product,
    serialize_pauli_sum,
    to_dense,
    unpack_strings,
)

from conftest import BYTE_IDENTITY, random_pauli_sum, random_state, thirteen_qubit_op


def identity_sum(n_sites):
    return PauliSum(n_sites, [(1.0, PauliString.identity(n_sites))])


def thirteen_qubit_program():
    prog = compile_lcu(compile_bridge(thirteen_qubit_op(), 2))
    assert prog.n_sites + prog.a_total == 13
    return prog


PHASES = {1 + 0j, -1 + 0j, 1j, -1j}


def all_strings(n):
    return [PauliString.from_label("".join(w)) for w in itertools.product("IXYZ", repeat=n)]


labels = st.integers(1, 5).flatmap(
    lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)
)


class TestProductAgainstDense:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_homomorphism(self, n):
        strings = all_strings(n)
        for a in strings:
            for b in strings:
                phase, c = pauli_product(a, b)
                assert phase in PHASES
                lhs = dense_string(a) @ dense_string(b)
                rhs = phase * dense_string(c)
                assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_single_site_example(self):
        phase, c = pauli_product(PauliString.from_label("X"), PauliString.from_label("Y"))
        assert phase == 1j
        assert c.label == "Z"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pauli_product(PauliString.from_label("X"), PauliString.from_label("XY"))


def packed_pair(a, b):
    """(phase, string) of the batched rule for one pair."""
    n = a.n_sites
    exponent, codes = packed_product(pack_strings([a], n), pack_strings([b], n))
    return 1j ** int(exponent[0]), unpack_strings(codes, n)[0]


def sitewise_product(a, b):
    """Per-site 2x2 matrix products, the phases multiplied together."""
    phase = 1 + 0j
    for ca, cb in zip(a.codes, b.codes):
        m = PAULI_MATRICES[ca] @ PAULI_MATRICES[cb]
        phase *= np.trace(m @ PAULI_MATRICES[ca ^ cb].conj().T) / 2
    return phase, PauliString(a.n_sites, a.bits ^ b.bits)


long_pairs = st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.integers(0, 4**n - 1), st.integers(0, 4**n - 1)).map(
        lambda bits: (PauliString(n, bits[0]), PauliString(n, bits[1]))
    )
)


class TestBatchedProduct:
    def test_single_site_pairs(self):
        strings = all_strings(1)
        packed = pack_strings(strings, 1)
        exponent, codes = packed_product(packed[:, None], packed[None, :])
        assert exponent.shape == (4, 4) and codes.shape == (4, 4, 1)
        for i, a in enumerate(strings):
            for j, b in enumerate(strings):
                lhs = dense_string(a) @ dense_string(b)
                rhs = 1j ** int(exponent[i, j]) * dense_string(unpack_strings(codes[i, j, None], 1)[0])
                assert np.max(np.abs(lhs - rhs)) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(long_pairs.filter(lambda pair: pair[0].n_sites <= 4))
    def test_random_against_dense(self, pair):
        a, b = pair
        phase, c = packed_pair(a, b)
        lhs = dense_string(a) @ dense_string(b)
        assert np.max(np.abs(lhs - phase * dense_string(c))) < 1e-13

    @settings(max_examples=100, deadline=None)
    @given(long_pairs)
    def test_scalar_batched_and_sitewise_agree(self, pair):
        a, b = pair
        scalar = pauli_product(a, b)
        assert packed_pair(*pair) == scalar
        phase, c = sitewise_product(a, b)
        assert c == scalar[1]
        assert abs(phase - scalar[0]) < 1e-13

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65])
    def test_pack_round_trip(self, n):
        rng = np.random.default_rng(n)
        strings = [PauliString(n, int(rng.integers(0, 2**62)) ** 3 % 4**n) for _ in range(8)]
        packed = pack_strings(strings, n)
        assert packed.shape == (8, -(-n // 32)) and packed.dtype == np.uint64
        assert unpack_strings(packed, n) == strings
        assert pack_strings([], n).shape == (0, -(-n // 32))


class TestStringBasics:
    def test_weight(self):
        assert PauliString.from_label("XIZY").weight == 3
        assert PauliString.identity(4).weight == 0

    @given(labels, labels)
    def test_weight_subadditive(self, la, lb):
        if len(la) != len(lb):
            return
        a, b = PauliString.from_label(la), PauliString.from_label(lb)
        _, c = pauli_product(a, b)
        assert c.weight <= a.weight + b.weight

    def test_is_diagonal(self):
        assert PauliString.from_label("IZZI").is_diagonal
        assert not PauliString.from_label("IXZI").is_diagonal
        assert not PauliString.from_label("ZZYZ").is_diagonal
        assert PauliString.identity(3).is_diagonal

    def test_lexicographic_order(self):
        strings = all_strings(2)
        by_value = sorted(strings)
        by_label = sorted(strings, key=lambda s: s.label)
        assert [s.label for s in by_value] == [s.label for s in by_label]

    def test_from_numpy_codes_past_one_word(self):
        codes = np.random.default_rng(3).integers(0, 4, 40)
        s = PauliString.from_codes(codes)
        assert s.label == "".join("IXYZ"[c] for c in codes)

    def test_needs_at_least_one_site(self):
        with pytest.raises(ValueError):
            PauliString.from_label("")


def sitewise_bits(label):
    """The per-site label codec: two bits per symbol, site 0 first."""
    bits = 0
    for ch in label:
        bits = (bits << 2) | SYMBOLS.index(ch)
    return bits


def sitewise_label(s):
    return "".join(SYMBOLS[(s.bits >> 2 * (s.n_sites - 1 - j)) & 3] for j in range(s.n_sites))


class TestLabelCodec:
    # up to 70 sites: one and several 32-site words, and odd counts, whose
    # first hex digit is half padding
    @BYTE_IDENTITY
    @given(st.integers(1, 70).flatmap(lambda n: st.text(alphabet=SYMBOLS, min_size=n, max_size=n)))
    def test_round_trip_against_sitewise_codec(self, label):
        s = PauliString.from_label(label)
        assert (s.n_sites, s.bits) == (len(label), sitewise_bits(label))
        assert s.label == sitewise_label(s) == label

    @pytest.mark.parametrize("label, message", [
        ("", "empty Pauli label"),
        # once translated, int() would accept the digits, the underscore, the
        # outer space and the Arabic-Indic three: each must be refused first
        ("0123", "invalid Pauli symbol '0' in '0123'"),
        ("X_Y", "invalid Pauli symbol '_' in 'X_Y'"),
        (" X", "invalid Pauli symbol ' ' in ' X'"),
        ("xI", "invalid Pauli symbol 'x' in 'xI'"),
        ("\u0663X", "invalid Pauli symbol '\u0663' in '\u0663X'"),
    ])
    def test_rejects_with_first_bad_symbol(self, label, message):
        with pytest.raises(PauliError) as err:
            PauliString.from_label(label)
        assert str(err.value) == message


class TestDense:
    def test_kron_ordering(self):
        # site 0 is the most significant qubit
        zi = to_dense(PauliSum(2, [(1.0, PauliString.from_label("ZI"))]))
        assert np.allclose(zi, np.diag([1, 1, -1, -1]))
        iz = to_dense(PauliSum(2, [(1.0, PauliString.from_label("IZ"))]))
        assert np.allclose(iz, np.diag([1, -1, 1, -1]))

    def test_too_large(self):
        op = PauliSum(13, [(1.0, PauliString.identity(13))])
        with pytest.raises(TooLarge):
            to_dense(op)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12))
    def test_matches_kronecker_sum(self, seed, n_sites, n_terms):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms, complex_coeffs=True)
        kron = {t.string: functools.reduce(np.kron, (PAULI_MATRICES[c] for c in t.string.codes)) for t in op}
        want = sum(t.coeff * kron[t.string] for t in op.terms)
        np.testing.assert_array_equal(to_dense(op), want)
        for string, matrix in kron.items():
            np.testing.assert_array_equal(dense_string(string), matrix)

    @pytest.mark.parametrize("densify", [
        pytest.param(lambda: to_dense(identity_sum(13)), id="to_dense"),
        pytest.param(lambda: dense_string(PauliString.identity(13)), id="dense_string"),
        pytest.param(lambda: mpo_to_dense(Mpo([np.ones((1, 1, 2, 2))] * 13)), id="mpo_to_dense"),
        pytest.param(lambda: ground_state_reference(identity_sum(13)), id="ground_state_reference"),
        pytest.param(lambda: select_dense(thirteen_qubit_program()), id="select_dense"),
        pytest.param(lambda: select_factorized_dense(thirteen_qubit_program()),
                     id="select_factorized_dense"),
        pytest.param(lambda: block_encoding_dense(thirteen_qubit_program()), id="block_encoding_dense"),
        pytest.param(lambda: mps_to_dense(Mps([np.ones((1, 1, 2))] * 21)), id="mps_to_dense"),
    ])
    def test_fixed_dense_limits(self, densify):
        # matrices stop at DENSE_LIMIT = 12 qubits, system plus ancilla;
        # state vectors at STATE_DENSE_LIMIT = 20 sites
        with pytest.raises(TooLarge):
            densify()

    @pytest.mark.parametrize("n", [1, 2])
    def test_apply_string_matches_dense(self, n):
        rng = np.random.default_rng(11)
        vec = random_state(rng, n)
        for s in all_strings(n):
            assert np.allclose(apply_string(s, vec), dense_string(s) @ vec, atol=1e-13)

    def test_apply_string_random_four_sites(self):
        rng = np.random.default_rng(12)
        vec = random_state(rng, 4)
        for _ in range(50):
            codes = rng.integers(0, 4, size=4)
            s = PauliString.from_codes(int(c) for c in codes)
            assert np.allclose(apply_string(s, vec), dense_string(s) @ vec, atol=1e-13)


class TestExpectation:
    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            op = random_pauli_sum(rng, 3, 6, complex_coeffs=True)
            vec = random_state(rng, 3)
            want = np.vdot(vec, to_dense(op) @ vec)
            assert abs(expectation(op, vec) - want) < 1e-12

    def test_rejects_unnormalized(self):
        op = PauliSum(2, [(1.0, PauliString.identity(2))])
        with pytest.raises(NotNormalized):
            expectation(op, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_wrong_dimension(self):
        op = PauliSum(2, [(1.0, PauliString.identity(2))])
        with pytest.raises(DimensionMismatch):
            expectation(op, np.array([1.0, 0.0]))


class TestMultiply:
    def test_against_dense(self):
        rng = np.random.default_rng(7)
        a = random_pauli_sum(rng, 3, 4, complex_coeffs=True)
        b = random_pauli_sum(rng, 3, 5, complex_coeffs=True)
        assert np.allclose(to_dense(multiply(a, b)), to_dense(a) @ to_dense(b), atol=1e-12)


class TestTextFormat:
    def test_parse_two_terms(self):
        op = parse_pauli_sum("-0.098864 IIII\n+0.171198 ZIII\n")
        assert op.n_terms == 2
        assert op.terms[0].coeff == -0.098864
        assert op.terms[0].string.label == "IIII"
        assert op.terms[1].coeff == 0.171198

    def test_merge_to_zero_drops_term(self):
        op = parse_pauli_sum("1.0 II\n-1.0 II\n")
        assert op.n_terms == 0
        assert op.n_sites == 2

    def test_merge_accumulates(self):
        op = parse_pauli_sum("0.5 XZ\n0.25 XZ\n")
        assert op.n_terms == 1
        assert op.terms[0].coeff == 0.75
        assert op.terms[0].string.label == "XZ"

    def test_first_occurrence_order(self):
        op = parse_pauli_sum("1.0 ZZ\n2.0 XX\n3.0 ZZ\n")
        assert [t.string.label for t in op.terms] == ["ZZ", "XX"]

    def test_comments_and_blank_lines(self):
        op = parse_pauli_sum("# header\n\n1.0 XY  # trailing\n")
        assert op.n_terms == 1

    def test_complex_coefficients(self):
        op = parse_pauli_sum("0.5-0.25i XY\n1i ZZ\n")
        assert op.terms[0].coeff == 0.5 - 0.25j
        assert op.terms[1].coeff == 1j

    def test_malformed_line_position(self):
        with pytest.raises(MalformedLine) as err:
            parse_pauli_sum("1.0 XX\nbogus ZZ\n")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_malformed_bad_symbol(self):
        with pytest.raises(MalformedLine) as err:
            parse_pauli_sum("1.0 XQ\n")
        assert err.value.line == 1
        assert err.value.column == 5

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "-1e400"])
    def test_non_finite_real_coefficient(self, token):
        with pytest.raises(MalformedLine) as err:
            parse_pauli_sum(f"1.0 XX\n  {token} ZZ\n")
        assert err.value.line == 2
        assert err.value.column == 3

    @pytest.mark.parametrize("text, line, column", [
        ("1e308 XZ\n1e308 XZ\n0.5 ZZ\n", 2, 1),
        ("0.5 ZZ\n1e308i XZ\n  -1e308+1e308i XZ\n", 3, 3),
    ])
    def test_merge_that_overflows_names_its_line(self, text, line, column):
        with pytest.raises(MalformedLine, match="not finite once merged") as err:
            parse_pauli_sum(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_malformed_token_count(self):
        with pytest.raises(MalformedLine):
            parse_pauli_sum("1.0 XX YY\n")

    def test_inconsistent_length(self):
        with pytest.raises(InconsistentLength):
            parse_pauli_sum("1.0 XX\n1.0 XXX\n")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_pauli_sum("# only a comment\n\n")

    def test_h2_fixture_parses(self, h2_subset):
        assert h2_subset.n_sites == 4
        assert h2_subset.n_terms == 9

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_roundtrip(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, 8))
        op = random_pauli_sum(rng, n, k, complex_coeffs=data.draw(st.booleans()))
        assert parse_pauli_sum(serialize_pauli_sum(op)) == op

    def test_roundtrip_exact_decimals(self, h2_text, h2_subset):
        assert parse_pauli_sum(serialize_pauli_sum(h2_subset)) == h2_subset


# strings holding every character the indent-2 layout writes or escapes
_json_strings = st.text(st.one_of(st.sampled_from('"\\{}[],: \n\t\x00\x1f\x7fé€'), st.characters()))
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _json_strings,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-05, 5e-324, 1e16, 2**80]),
)
_json_docs = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_json_strings, inner, max_size=4),
        # the row lists of bridge-v1 and lcu-v1, with differing and empty rows
        st.lists(st.dictionaries(_json_strings, _json_scalars, max_size=4), max_size=4),
    ),
    max_leaves=24,
)


class TestJsonText:
    @BYTE_IDENTITY
    @given(_json_docs)
    @example({"rows": [{"a": -0.0, "b": 1e-05}, {}, {"c": 5e-324, '"\\{},:\n\t\x01é': 1e16}],
              "big": 2**80, "flags": [True, False, None], "empty": {"e": {}, "l": [[], [{}]]}})
    @example([{"s": "},\n    {"}, {"s": "x}"}])
    def test_equals_json_dumps_indent_2(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("place", [
        pytest.param(lambda v: v, id="top"),
        pytest.param(lambda v: {"format": "x", "n": v}, id="mixed-object"),
        pytest.param(lambda v: [1.0, v], id="flat-list"),
        pytest.param(lambda v: {"rows": [{"a": 1, "re": v}]}, id="row"),
        pytest.param(lambda v: {"a": [[v]]}, id="nested"),
    ])
    def test_non_finite_raises(self, value, place):
        with pytest.raises(ValueError):
            json_text(place(value))
