import functools
import itertools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulibridge import bridge, pauli
from paulibridge.fermion import (
    FermionTerm,
    IndexOutOfRange,
    NonHermitianInput,
    jordan_wigner_op,
    load_fermion_terms,
    map_hamiltonian,
)
from paulibridge.pauli import PauliSum, multiply, to_dense

from conftest import BYTE_IDENTITY, field_bytes, term_dict


def added(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a + b``, merged."""
    return PauliSum.from_rows(a.n_sites, np.vstack([a.rows, b.rows]), np.concatenate([a.coeffs, b.coeffs]))


def dense_annihilation(p: int, n: int) -> np.ndarray:
    """Occupation-basis oracle: a_p with the usual lower-mode sign string."""
    dim = 2**n
    m = np.zeros((dim, dim), dtype=np.complex128)
    site_bit = 1 << (n - 1 - p)
    for b in range(dim):
        if b & site_bit:
            sign = (-1) ** ((b >> (n - p)).bit_count() if p > 0 else 0)
            m[b ^ site_bit, b] = sign
    return m


class TestModeOperators:
    def test_single_mode_dense(self):
        ann = to_dense(jordan_wigner_op("annihilate", 0, 1))
        cre = to_dense(jordan_wigner_op("create", 0, 1))
        assert np.allclose(ann, [[0, 1], [0, 0]])
        assert np.allclose(cre, [[0, 0], [1, 0]])

    def test_tail_and_padding(self):
        op = jordan_wigner_op("annihilate", 2, 4)
        assert term_dict(op) == {"ZZXI": 0.5, "ZZYI": 0.5j}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_occupation_oracle(self, n):
        for p in range(n):
            want = dense_annihilation(p, n)
            assert np.max(np.abs(to_dense(jordan_wigner_op("annihilate", p, n)) - want)) < 1e-13
            assert np.max(np.abs(to_dense(jordan_wigner_op("create", p, n)) - want.conj().T)) < 1e-13

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            jordan_wigner_op("create", 2, 2)

    def test_index_out_of_range_is_one_class(self):
        # bridge and fermion re-export the class that pauli defines
        assert IndexOutOfRange is bridge.IndexOutOfRange is pauli.IndexOutOfRange

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            jordan_wigner_op("destroy", 0, 2)


class TestAnticommutators:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mixed(self, n):
        eye = np.eye(2**n)
        for p, q in itertools.product(range(n), repeat=2):
            a_p = jordan_wigner_op("annihilate", p, n)
            c_q = jordan_wigner_op("create", q, n)
            anti = added(multiply(a_p, c_q), multiply(c_q, a_p))
            want = eye if p == q else 0 * eye
            assert np.max(np.abs(to_dense(anti) - want)) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_same_kind(self, n):
        for p, q in itertools.product(range(n), repeat=2):
            a_p = jordan_wigner_op("annihilate", p, n)
            a_q = jordan_wigner_op("annihilate", q, n)
            anti = added(multiply(a_p, a_q), multiply(a_q, a_p))
            assert np.max(np.abs(to_dense(anti))) < 1e-13


class TestMapHamiltonian:
    def test_number_operator(self):
        out = map_hamiltonian([FermionTerm("one_body", (0, 0), 1.0)], 1)
        assert term_dict(out) == {"I": 0.5, "Z": -0.5}

    def test_hopping_pair(self):
        terms = [
            FermionTerm("one_body", (0, 1), 1.0),
            FermionTerm("one_body", (1, 0), 1.0),
        ]
        out = map_hamiltonian(terms, 2)
        got = term_dict(out)
        assert set(got) == {"XX", "YY"}
        assert got["XX"] == pytest.approx(0.5, abs=1e-15)
        assert got["YY"] == pytest.approx(0.5, abs=1e-15)

    def test_density_density(self):
        # g (a0+ a1+ a1 a0 + a1+ a0+ a0 a1) / 2 = g n0 n1
        g = 0.8
        terms = [
            FermionTerm("two_body", (0, 1, 1, 0), g),
            FermionTerm("two_body", (1, 0, 0, 1), g),
        ]
        out = map_hamiltonian(terms, 2)
        want = g * np.diag([0.0, 0.0, 0.0, 1.0])
        assert np.max(np.abs(to_dense(out) - want)) < 1e-13

    def test_random_hermitian_ensemble_against_oracle(self):
        rng = np.random.default_rng(42)
        n = 3
        a = [dense_annihilation(p, n) for p in range(n)]
        for _ in range(5):
            h = rng.standard_normal((n, n))
            h = h + h.T
            g = rng.standard_normal((n, n, n, n))
            terms = []
            dense = np.zeros((2**n, 2**n), dtype=np.complex128)
            for p, q in itertools.product(range(n), repeat=2):
                terms.append(FermionTerm("one_body", (p, q), h[p, q]))
                dense += h[p, q] * a[p].conj().T @ a[q]
            # hermitian closure of the quartic part: g_pqrs paired with conj at (s,r,q,p)
            for p, q, r, s in itertools.product(range(n), repeat=4):
                coeff = g[p, q, r, s] + g[s, r, q, p]
                terms.append(FermionTerm("two_body", (p, q, r, s), coeff))
                dense += 0.5 * coeff * a[p].conj().T @ a[q].conj().T @ a[r] @ a[s]
            with warnings.catch_warnings():
                warnings.simplefilter("error", NonHermitianInput)
                out = map_hamiltonian(terms, n)
            assert np.max(np.abs(to_dense(out) - dense)) < 1e-12
            assert np.max(np.abs(out.coeffs.imag)) < 1e-13

    def test_non_hermitian_warns(self):
        with pytest.warns(NonHermitianInput):
            map_hamiltonian([FermionTerm("one_body", (0, 1), 1.0)], 2)

    def test_zero_terms_dropped(self):
        out = map_hamiltonian(
            [
                FermionTerm("one_body", (0, 0), 1.0),
                FermionTerm("one_body", (0, 0), -1.0),
            ],
            1,
        )
        assert out.n_terms == 0


LADDERS = {
    "one_body": ("create", "annihilate"),
    "two_body": ("create", "create", "annihilate", "annihilate"),
}


def sequential_map(terms, n):
    """map_hamiltonian one term at a time: the mode operators multiplied in order, then one merge."""
    rows, coeffs = [np.zeros((0, pauli.n_words(n)), dtype=np.uint64)], []
    for term in terms:
        factors = (jordan_wigner_op(k, p, n) for k, p in zip(LADDERS[term.kind], term.indices))
        product = functools.reduce(multiply, factors)
        scale = complex(term.coeff) if term.kind == "one_body" else 0.5 * complex(term.coeff)
        rows.append(product.rows)
        coeffs += [scale * c for c in product.coeffs.tolist()]
    return PauliSum.from_rows(n, np.vstack(rows), np.array(coeffs, dtype=np.complex128).reshape(-1))


# signed zeros and a subnormal next to ordinary complex values
coefficients = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False) | (
    st.sampled_from([0j, complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0), 5e-324 + 0j])
)


@st.composite
def fermion_documents(draw):
    """Up to 40 modes; indices from a few modes, so repeats, p == q and
    vanishing products such as a+_p a+_p are common, and terms repeated
    with the opposite sign, so whole strings cancel."""
    # half the draws on at most four modes, where strings of different terms meet
    n = draw(st.integers(1, 4) | st.integers(5, 40))
    modes = st.sampled_from(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)))
    terms = []
    for kind in draw(st.lists(st.sampled_from(sorted(LADDERS)), max_size=12)):
        indices = tuple(draw(modes) for _ in LADDERS[kind])
        coeff = draw(coefficients)
        terms.append(FermionTerm(kind, indices, coeff))
        if draw(st.booleans()):
            terms.append(FermionTerm(kind, indices, -coeff))
    return n, terms


@settings(deadline=None)
@given(fermion_documents())
# an imaginary part of 1e-11 is within require_hermitian's bound, 1e-9 is not
@example((1, [FermionTerm("one_body", (0, 0), 1 + 1e-11j)]))
@example((1, [FermionTerm("one_body", (0, 0), 1 + 1e-9j)]))
def test_warns_exactly_when_require_hermitian_refuses(doc):
    n, terms = doc
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = map_hamiltonian(terms, n)
    try:
        pauli.require_hermitian(out)
    except ValueError:
        refused = True
    else:
        refused = False
    assert [w.category for w in caught] == [NonHermitianInput] * refused


class TestBatchedMap:
    @BYTE_IDENTITY
    @given(fermion_documents())
    # a vanishing first term: its strings must not fix the output order
    @example((2, [
        FermionTerm("two_body", (0, 0, 1, 1), 0.5),
        FermionTerm("two_body", (0, 1, 1, 0), 0.5),
        FermionTerm("one_body", (1, 1), -1.0),
        FermionTerm("two_body", (1, 0, 0, 0), -1 + 1j),
    ]))
    def test_bytes_equal_sequential_product(self, doc):
        n, terms = doc
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonHermitianInput)
            batched, sequential = map_hamiltonian(terms, n), sequential_map(terms, n)
        assert field_bytes(batched) == field_bytes(sequential)  # also for a sum the text cannot hold
        assert batched == sequential

    def test_empty_term_list(self):
        assert map_hamiltonian([], 3) == PauliSum.from_rows(3, np.zeros((0, 1), dtype=np.uint64), [])

    def test_vanishing_products(self):
        terms = [FermionTerm("two_body", (1, 1, 0, 2), 1.0), FermionTerm("one_body", (2, 2), 0.0)]
        assert map_hamiltonian(terms, 3).n_terms == 0


class TestJsonFormat:
    def test_number_fixture(self, h2_text=None):
        from conftest import FIXTURES

        n, terms = load_fermion_terms((FIXTURES / "number_op.json").read_text())
        assert n == 1
        assert terms == [FermionTerm("one_body", (0, 0), 1.0)]

    def test_complex_coeff_pair(self):
        n, terms = load_fermion_terms(
            '{"n": 2, "terms": [{"kind": "one_body", "indices": [0, 1], "coeff": [0.5, -0.25]}]}'
        )
        assert terms[0].coeff == 0.5 - 0.25j

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            load_fermion_terms(
                '{"n": 1, "terms": [{"kind": "three_body", "indices": [0, 0], "coeff": 1.0}]}'
            )

    def test_kind_and_index_count_messages(self):
        # one table gives each kind its index count; the reader names the entry it refuses
        cases = [("x", [0], "unknown term kind 'x'"), ("one_body", [0, 0, 0], "one_body needs 2 indices, got 3"),
                 ("two_body", [0, 0], "two_body needs 4 indices, got 2")]
        for kind, indices, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                FermionTerm(kind, tuple(indices), 1.0)
            entries = [{"kind": "one_body", "indices": [0, 0], "coeff": 1.0}, {"kind": kind, "indices": indices, "coeff": 1.0}]
            with pytest.raises(ValueError, match=f"^{re.escape('fermion field terms[1]: ' + message)}$"):
                load_fermion_terms(json.dumps({"n": 1, "terms": entries}))
