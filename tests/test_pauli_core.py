import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulibridge import pauli
from paulibridge.bridge import compile as compile_bridge
from paulibridge.lcu import block_encoding_dense, compile_lcu, select_dense
from paulibridge.mpo import Mpo, mpo_to_dense
from paulibridge.mps import Mps, ground_state_reference
from paulibridge.pauli import (
    DimensionMismatch,
    EmptyInput,
    InconsistentLength,
    LengthMismatch,
    MalformedLine,
    PauliError,
    PauliSum,
    TooLarge,
    apply_string,
    PAULI_MATRICES,
    SYMBOLS,
    dense_string,
    diagonal_rows,
    json_text,
    label_rows,
    multiply,
    packed_product,
    parse_pauli_sum,
    pauli_product,
    serialize_pauli_sum,
    to_dense,
)

from conftest import (
    BYTE_IDENTITY,
    field_bytes,
    from_rows_sums,
    int_label,
    int_rows,
    kron_dense,
    kron_string,
    mps_to_dense,
    pauli_sum,
    random_pauli_sum,
    random_state,
    row_codes,
    row_ints,
    row_labels,
    scatter_dense,
    select_factorized_dense,
    sum_terms,
    thirteen_qubit_op,
)


def identity_sum(n_sites):
    return pauli_sum(n_sites, [(1.0, "I" * n_sites)])


def thirteen_qubit_program():
    prog = compile_lcu(compile_bridge(thirteen_qubit_op(), 2))
    assert prog.n_sites + prog.a_total == 13
    return prog


PHASES = {1 + 0j, -1 + 0j, 1j, -1j}


def all_strings(n):
    """Packed rows of every n-site string, in label order."""
    return label_rows(["".join(w) for w in itertools.product("IXYZ", repeat=n)], n)


@st.composite
def dense_operators(draw):
    """Sums on 1 to 6 sites with complex coefficients spread over 32 orders
    of magnitude, so that the order in which an entry's terms add shows."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = random_pauli_sum(rng, n, draw(st.integers(1, 40)), complex_coeffs=True)
    scales = 10.0 ** rng.integers(-16, 17, op.n_terms)
    return PauliSum.from_rows(n, op.rows, op.coeffs * scales)


def action_by_terms(op, vec):
    """``op @ vec`` one term at a time from its label: |b> -> i^{#Y} (-1)^{|b & z|} |b ^ x>."""
    idx = np.arange(vec.size)
    out = np.zeros(vec.size, dtype=np.complex128)
    for coeff, label in sum_terms(op):
        x = int("".join("1" if c in "XY" else "0" for c in label), 2)
        z = int("".join("1" if c in "YZ" else "0" for c in label), 2)
        signs = np.where(np.bitwise_count(idx & z) & 1, -1, 1)
        out[idx ^ x] += coeff * 1j ** label.count("Y") * signs * vec
    return out


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
                lhs = dense_string(a, n) @ dense_string(b, n)
                rhs = phase * dense_string(c, n)
                assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_single_site_example(self):
        x, y, z = label_rows(["X", "Y", "Z"], 1)
        phase, c = pauli_product(x, y)
        assert phase == 1j
        assert c.tolist() == z.tolist()

    def test_length_mismatch(self):
        # a row knows its word count, not its site count
        with pytest.raises(LengthMismatch):
            pauli_product(label_rows(["X"], 1)[0], label_rows(["X" * 33], 33)[0])


def sitewise_product(n, a, b):
    """Per-site 2x2 matrix products of two base-4 integers, the phases multiplied together."""
    phase = 1 + 0j
    for ca, cb in zip(*row_codes(int_rows([a, b], n), n)):
        m = PAULI_MATRICES[ca] @ PAULI_MATRICES[cb]
        phase *= np.trace(m @ PAULI_MATRICES[ca ^ cb].conj().T) / 2
    return phase, a ^ b


# (n, a, b): two n-site strings as base-4 integers
long_pairs = st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 4**n - 1), st.integers(0, 4**n - 1))
)


class TestBatchedProduct:
    def test_single_site_pairs(self):
        packed = all_strings(1)
        exponent, codes = packed_product(packed[:, None], packed[None, :])
        assert exponent.shape == (4, 4) and codes.shape == (4, 4, 1)
        for i, a in enumerate(packed):
            for j, b in enumerate(packed):
                lhs = dense_string(a, 1) @ dense_string(b, 1)
                rhs = 1j ** int(exponent[i, j]) * dense_string(codes[i, j], 1)
                assert np.max(np.abs(lhs - rhs)) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(long_pairs.filter(lambda pair: pair[0] <= 4))
    def test_random_against_dense(self, pair):
        n, a, b = pair
        phase, c = pauli_product(*int_rows([a, b], n))
        lhs = dense_string(int_rows([a], n)[0], n) @ dense_string(int_rows([b], n)[0], n)
        assert np.max(np.abs(lhs - phase * dense_string(c, n))) < 1e-13

    @settings(max_examples=100, deadline=None)
    @given(long_pairs)
    def test_scalar_batched_and_sitewise_agree(self, pair):
        n, a, b = pair
        rows = int_rows([a, b], n)
        phase, c = pauli_product(*rows)
        exponent, codes = packed_product(rows[:1], rows[1:])
        assert (1j ** int(exponent[0]), row_ints(codes)) == (phase, row_ints(c[None]))
        want_phase, want = sitewise_product(n, a, b)
        assert row_ints(c[None]) == [want]
        assert abs(phase - want_phase) < 1e-13

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65])
    def test_pack_round_trip(self, n):
        # label_rows packs, pauli._row_labels unpacks
        rng = np.random.default_rng(n)
        values = [int(rng.integers(0, 2**62)) ** 3 % 4**n for _ in range(8)]
        labels = [int_label(v, n) for v in values]
        packed = label_rows(labels, n)
        assert packed.shape == (8, -(-n // 32)) and packed.dtype == np.uint64
        assert np.array_equal(packed, int_rows(values, n))
        assert pauli._row_labels(packed, n).tolist() == labels
        assert label_rows([], n).shape == (0, -(-n // 32))


class TestStringBasics:
    @given(labels, labels)
    def test_weight_subadditive(self, la, lb):
        if len(la) != len(lb):
            return
        _, c = pauli_product(*label_rows([la, lb], len(la)))

        def weight(label):
            return len(label) - label.count("I")

        assert weight(row_labels(c[None], len(la))[0]) <= weight(la) + weight(lb)

    def test_is_diagonal(self):
        # diagonal_rows: I or Z on every site, in either word of a two-word row
        rows = label_rows(["IZZI", "IXZI", "ZZYZ"], 4)
        assert diagonal_rows(rows).tolist() == [True, False, False]
        assert diagonal_rows(label_rows(["III"], 3)).tolist() == [True]
        wide = ["Z" * 40, "X" + "Z" * 39, "Z" * 39 + "Y", "I" * 40]
        assert diagonal_rows(label_rows(wide, 40)).tolist() == [True, False, False, True]

    def test_lexicographic_order(self):
        # compile_bridge sorts rows word by word to put labels in order; 33 sites take two words
        rng = np.random.default_rng(2)
        for n in (2, 33):
            labels = ["".join(w) for w in rng.choice(list(SYMBOLS), (40, n))]
            rows = label_rows(labels, n)
            assert [labels[k] for k in np.lexsort(rows.T[::-1])] == sorted(labels)

    def test_from_numpy_codes_past_one_word(self):
        codes = np.random.default_rng(3).integers(0, 4, 40)
        assert row_labels(pauli._pack_codes(codes[None]), 40) == ["".join("IXYZ"[c] for c in codes)]

    def test_needs_at_least_one_site(self):
        with pytest.raises(PauliError):
            label_rows([""], 0)
        with pytest.raises(PauliError, match="do not fit 0 sites"):
            PauliSum.from_rows(0, np.zeros((1, 0), dtype=np.uint64), [1.0])


def sitewise_bits(label):
    """The per-site label codec: two bits per symbol, site 0 first."""
    bits = 0
    for ch in label:
        bits = (bits << 2) | SYMBOLS.index(ch)
    return bits


def sitewise_label(bits, n_sites):
    return "".join(SYMBOLS[(bits >> 2 * (n_sites - 1 - j)) & 3] for j in range(n_sites))


class TestLabelCodec:
    # up to 70 sites: one and several 32-site words, and odd counts
    @BYTE_IDENTITY
    @given(st.integers(1, 70).flatmap(lambda n: st.text(alphabet=SYMBOLS, min_size=n, max_size=n)))
    def test_round_trip_against_sitewise_codec(self, label):
        n = len(label)
        packed = label_rows([label], n)
        assert row_ints(packed) == [sitewise_bits(label)]
        assert pauli._row_labels(packed, n).tolist() == [sitewise_label(sitewise_bits(label), n)] == [label]

    @pytest.mark.parametrize("label, message", [
        ("0123", "invalid Pauli symbol '0' in '0123'"),
        ("X_Y", "invalid Pauli symbol '_' in 'X_Y'"),
        ("xI", "invalid Pauli symbol 'x' in 'xI'"),
        ("\u0663X", "invalid Pauli symbol '\u0663' in '\u0663X'"),
    ])
    def test_rejects_with_first_bad_symbol(self, label, message):
        # the parser names a label's first bad symbol; a label is one whitespace-free token
        with pytest.raises(MalformedLine) as err:
            parse_pauli_sum(f"1.0 {label}\n")
        assert str(err.value) == f"line 1, column 5: {message}"

    @pytest.mark.parametrize("labels, n_sites", [
        # int() would accept digits, an underscore, spaces and the Arabic-Indic three
        (["0123"], 4), (["X_Y"], 3), ([" X"], 2), (["xI"], 2), (["\u0663X"], 2),
        (["\u00c9"], 1), (["X\ud800"], 2), (["XI", "X"], 2), (["XY", "XYZ"], 2),
    ])
    def test_label_rows_refuses(self, labels, n_sites):
        with pytest.raises(PauliError, match=f"^not {n_sites}-site Pauli labels$"):
            label_rows(labels, n_sites)


class TestDense:
    def test_kron_ordering(self):
        # site 0 is the most significant qubit
        zi = to_dense(pauli_sum(2, [(1.0, "ZI")]))
        assert np.allclose(zi, np.diag([1, 1, -1, -1]))
        iz = to_dense(pauli_sum(2, [(1.0, "IZ")]))
        assert np.allclose(iz, np.diag([1, -1, 1, -1]))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            to_dense(identity_sum(13))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12))
    def test_matches_kronecker_sum(self, seed, n_sites, n_terms):
        # the dense forms equal it exactly, the actions on a state to 1e-12
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms, complex_coeffs=True)
        vec = random_state(rng, n_sites)
        np.testing.assert_array_equal(to_dense(op), kron_dense(op))
        assert abs(np.vdot(vec, pauli._act(op, vec)) - np.vdot(vec, kron_dense(op) @ vec)) <= 1e-12
        for row, codes in zip(op.rows, row_codes(op.rows, n_sites)):
            np.testing.assert_array_equal(dense_string(row, n_sites), kron_string(codes))
            np.testing.assert_allclose(apply_string(row, vec), kron_string(codes) @ vec, rtol=0, atol=1e-12)

    @BYTE_IDENTITY
    @given(dense_operators())
    @example(pauli_sum(3, [(0.5, "XYZ"), (-0.5, "XYZ")]))
    def test_bytes_match_per_term_scatter(self, op):
        # the flip-mask groups add each entry's terms in the order the
        # per-term scatter does, so not one bit moves
        assert to_dense(op).tobytes() == scatter_dense(op).tobytes()

    @pytest.mark.parametrize("densify", [
        pytest.param(lambda: to_dense(identity_sum(13)), id="to_dense"),
        pytest.param(lambda: dense_string(label_rows(["I" * 13], 13)[0], 13), id="dense_string"),
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
        # state vectors, through the test oracle, at conftest.STATE_DENSE_LIMIT = 20 sites
        with pytest.raises(TooLarge):
            densify()

    @pytest.mark.parametrize("n", [1, 2])
    def test_apply_string_matches_dense(self, n):
        rng = np.random.default_rng(11)
        vec = random_state(rng, n)
        for s in all_strings(n):
            assert np.allclose(apply_string(s, vec), dense_string(s, n) @ vec, atol=1e-13)

    def test_apply_string_random_four_sites(self):
        rng = np.random.default_rng(12)
        vec = random_state(rng, 4)
        for _ in range(50):
            codes = rng.integers(0, 4, size=4)
            s = label_rows(["".join(SYMBOLS[c] for c in codes)], 4)[0]
            assert np.allclose(apply_string(s, vec), dense_string(s, 4) @ vec, atol=1e-13)


class TestExpectation:
    """<psi|op|psi> through the one action rule, pauli._act."""

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            op = random_pauli_sum(rng, 3, 6, complex_coeffs=True)
            vec = random_state(rng, 3)
            want = np.vdot(vec, to_dense(op) @ vec)
            assert abs(np.vdot(vec, pauli._act(op, vec)) - want) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 60), st.integers(1, 4))
    def test_mask_blocks_match_dense(self, seed, n_sites, n_terms, masks_per_block):
        # blocks of one to four masks, so most operators cross many block
        # boundaries; the blocked dense form keeps every bit
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms, complex_coeffs=True)
        vec = random_state(rng, n_sites)
        dense = to_dense(op)
        with mock.patch.object(pauli, "CHUNK_ENTRIES", masks_per_block * 2**n_sites):
            np.testing.assert_allclose(pauli._act(op, vec), dense @ vec, rtol=0, atol=1e-12)
            assert to_dense(op).tobytes() == dense.tobytes()

    def test_sixteen_sites_in_bounded_memory(self):
        # one block of diagonals at a time: holding every mask's diagonal
        # peaked at 500 MiB on this operator
        rng = np.random.default_rng(16)
        op = random_pauli_sum(rng, 16, 200, complex_coeffs=True)
        vec = random_state(rng, 16)
        tracemalloc.start()
        try:
            value = np.vdot(vec, pauli._act(op, vec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        assert abs(value - np.vdot(vec, action_by_terms(op, vec))) <= 1e-12

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            pauli._act(identity_sum(2), np.array([1.0, 0.0]))


class TestMultiply:
    def test_against_dense(self):
        rng = np.random.default_rng(7)
        a = random_pauli_sum(rng, 3, 4, complex_coeffs=True)
        b = random_pauli_sum(rng, 3, 5, complex_coeffs=True)
        assert np.allclose(to_dense(multiply(a, b)), to_dense(a) @ to_dense(b), atol=1e-12)


class TestTextFormat:
    def test_parse_two_terms(self):
        op = parse_pauli_sum("-0.098864 IIII\n+0.171198 ZIII\n")
        assert sum_terms(op) == [(-0.098864, "IIII"), (0.171198, "ZIII")]

    def test_merge_to_zero_drops_term(self):
        op = parse_pauli_sum("1.0 II\n-1.0 II\n")
        assert op.n_terms == 0
        assert op.n_sites == 2

    def test_merge_accumulates(self):
        op = parse_pauli_sum("0.5 XZ\n0.25 XZ\n")
        assert sum_terms(op) == [(0.75, "XZ")]

    def test_first_occurrence_order(self):
        op = parse_pauli_sum("1.0 ZZ\n2.0 XX\n3.0 ZZ\n")
        assert [label for _, label in sum_terms(op)] == ["ZZ", "XX"]

    def test_comments_and_blank_lines(self):
        op = parse_pauli_sum("# header\n\n1.0 XY  # trailing\n")
        assert op.n_terms == 1

    def test_complex_coefficients(self):
        op = parse_pauli_sum("0.5-0.25i XY\n1i ZZ\n")
        assert op.coeffs.tolist() == [0.5 - 0.25j, 1j]

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

    @BYTE_IDENTITY
    @given(from_rows_sums())
    def test_serialize_parse_roundtrip(self, op):
        # the reader returns the written sum field for field, in its order, so the CLI hands jw's sum on
        # unparsed; a sum the reader would refuse, with no terms or a coefficient not finite, is not written
        if op.n_terms and np.isfinite(op.coeffs).all():
            assert field_bytes(parse_pauli_sum(serialize_pauli_sum(op))) == field_bytes(op)
        else:
            with pytest.raises(ValueError, match="^no terms to write$|^coefficient .* is not finite$"):
                serialize_pauli_sum(op)

    def test_roundtrip_exact_decimals(self, h2_text, h2_subset):
        assert parse_pauli_sum(serialize_pauli_sum(h2_subset)) == h2_subset


# strings holding every character the indent-2 layout writes or escapes
_json_strings = st.text(st.one_of(st.sampled_from('"\\{}[],: \n\t\x00\x1f\x7fé€'), st.characters()))
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _json_strings,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-05, 5e-324, 1e16, 2**80]),
)
# json_text's documents: dicts nested at any depth, lists of scalars only (a row list is a JsonText)
_json_docs = st.recursive(
    st.one_of(_json_scalars, st.lists(_json_scalars, max_size=4)),
    lambda inner: st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=24,
)


class TestJsonText:
    @BYTE_IDENTITY
    @given(_json_docs)
    @example({"rows": {"a": {"x": -0.0, "b": 1e-05}, "e": {}, "c": {"c": 5e-324, '"\\{},:\n\t\x01é': 1e16}},
              "big": 2**80, "flags": [True, False, None], "empty": {"e": {}, "l": []}})
    @example({"a": {"s": "},\n    {"}, "b": {"s": "x}"}})
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


# any JSON value: ints past the float range and non-finite floats included; test_bridge_columns puts
# one into a row of each cut format
_json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-10**400, 10**400), st.floats(), _json_strings,
        st.sampled_from([10**400, -10**400, 2**1024, 2**1023, 2**63, -1, 4, 5]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_json_strings, inner, max_size=3)),
    max_leaves=8,
)
