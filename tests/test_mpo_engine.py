"""MPO construction, canonical forms, compression."""

import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from paulibridge.bridge import EmptyOperator, compile as compile_bridge
from paulibridge.fermion import FermionTerm, load_fermion_terms, map_hamiltonian
from paulibridge.mpo import (
    Mpo,
    build_mpo_qr,
    mpo_error,
    mpo_from_json,
    mpo_to_dense,
    mpo_to_json,
)
from paulibridge.mps import (
    canonicalize,
    compress,
    dense_to_mps,
    is_right_canonical_site,
)
from paulibridge.pauli import (
    PAULI_MATRICES,
    SYMBOLS,
    PauliSum,
    TooLarge,
    parse_pauli_sum,
    to_dense,
)

from conftest import (
    CHAIN_MUTATIONS,
    bridge_matrix,
    count_calls,
    is_left_canonical_site,
    jw12_document,
    mps_to_dense,
    pauli_sum,
    random_pauli_sum,
    random_state,
    sum_terms,
    term_dict,
)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def h2_chains(h2_subset):
    """(chain, its dense contraction, exact reference) for the h2 MPO and a
    generic four-site MPS (bonds 1, 2, 4, 2, 1): the chain functions serve both."""
    vec = random_state(np.random.default_rng(4), 4)
    return [
        (build_mpo_qr(h2_subset), mpo_to_dense, to_dense(h2_subset)),
        (dense_to_mps(vec), mps_to_dense, vec),
    ]


def chain_operator(rng, n):
    """Nearest-neighbour XX/YY/ZZ couplings plus X and Z fields: 5n - 3 terms."""
    labels = [
        "I" * i + pair + "I" * (n - i - len(pair))
        for i in range(n)
        for pair in (("XX", "YY", "ZZ") if i < n - 1 else ()) + ("X", "Z")
    ]
    return pauli_sum(n, [(rng.standard_normal(), s) for s in labels])


def pauli_coefficients(m, labels):
    """Coefficient of each labelled string in the MPO's Pauli expansion.

    Each site tensor is projected onto the Pauli basis,
    ``c[a, b, p] = tr(sigma_p W[a, b]) / 2``, so a coefficient is one
    product of matrices and needs no dense operator.
    """
    sigma = np.array(PAULI_MATRICES)
    proj = [np.einsum("abst,pts->pab", w, sigma) / 2 for w in m.tensors]
    out = []
    for label in labels:
        env = np.ones((1, 1))
        for c, symbol in zip(proj, label):
            env = env @ c[SYMBOLS.index(symbol)]
        out.append(env[0, 0])
    return np.array(out)


def dense_mpo_error(m, op):
    """The dense route: ``||mpo_to_dense(m) - to_dense(op)||_F / ||to_dense(op)||_F``."""
    return rel_err(mpo_to_dense(m), to_dense(op))


def low_rank_operator(rng, n_sites, rank):
    """A sum of ``rank`` products of random one-site operators, each over two to
    four Paulis: every cut has rank at most ``rank``, below most cut matrices' size."""
    coeffs = np.zeros(4**n_sites, dtype=np.complex128)
    for _ in range(rank):
        product = np.ones(1)
        for _ in range(n_sites):
            factor = np.zeros(4, dtype=np.complex128)
            support = rng.choice(4, rng.integers(2, 5), replace=False)
            factor[support] = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
            product = np.kron(product, factor)
        coeffs += product
    labels = ("".join("IXYZ"[(k >> 2 * (n_sites - 1 - j)) & 3] for j in range(n_sites)) for k in range(4**n_sites))
    return pauli_sum(n_sites, [(c, s) for c, s in zip(coeffs, labels) if c != 0])


def reference_regroup(carried, suffixes):
    """The string-built regroup: rows are the occurring (bond, symbol) pairs,
    columns the sorted remaining suffixes; in the carried matrix's dtype."""
    rests = sorted({s[1:] for s in suffixes})
    rest_index = {r: k for k, r in enumerate(rests)}
    raw = np.zeros((carried.shape[0], 4, len(rests)), dtype=carried.dtype)
    for k, s in enumerate(suffixes):
        raw[:, "IXYZ".index(s[0]), rest_index[s[1:]]] += carried[:, k]
    rows = [(a, p) for a in range(carried.shape[0]) for p in range(4) if np.any(raw[a, p] != 0)]
    return tuple(rows), tuple(rests), np.array([raw[a, p] for a, p in rows])


def reference_sweep(op):
    """The sweep by another route: ``reference_regroup``, ``scipy.linalg.qr`` in raw mode with
    pivoting, then ``orgqr`` of the kept columns, in float64 for a real sum as the sweep runs.

    Returns the site tensors, each assembled by ``np.add.at`` (one add per cut-matrix row and
    entry, in row order, so each bond takes its symbols in ascending order), and the cut matrices.
    """
    suffixes = [label for _, label in sum_terms(op)]
    carried = (op.coeffs if op.coeffs.imag.any() else op.coeffs.real)[None]
    tensors, cuts = [], []
    for site in range(op.n_sites):
        chi = carried.shape[0]
        rows, rests, gamma = reference_regroup(carried, suffixes)
        cuts.append(gamma)
        q, rank = gamma, 1
        if site < op.n_sites - 1:
            (qr, tau), r, piv = scipy.linalg.qr(gamma, mode="raw", pivoting=True)
            diag = np.abs(np.diag(r))
            rank = int(np.count_nonzero(diag > np.finfo(np.float64).eps * max(gamma.shape) * (site + 1) * diag[0]))
            (orgqr,) = scipy.linalg.get_lapack_funcs(("orgqr",), (qr,))
            lwork = int(orgqr(qr[:, :rank], tau[:rank], lwork=-1)[1][0].real)
            q = orgqr(qr[:, :rank], tau[:rank], lwork=lwork)[0]
            carried = np.zeros((rank, len(rests)), dtype=r.dtype)
            carried[:, piv] = r[:rank]
            suffixes = rests
        bond, code = np.array(rows).T
        w, block = np.zeros((chi, rank, 2, 2), dtype=np.complex128), 4 * rank
        terms = q[:, :rank, None, None] * PAULI_MATRICES[code, None]
        np.add.at(w.reshape(-1), (bond[:, None] * block + np.arange(block)).ravel(), terms.ravel())
        tensors.append(w)
    return tensors, cuts


class TestBuild:
    def test_h2_first_cut_matrix(self, h2_subset):
        # derived by splitting each fixture term at the first site
        cols = ("III", "IZI", "IZZ", "XXY", "XYY", "ZII", "ZZI")
        expected = np.zeros((4, 7))
        expected[0, 0] = -0.098864
        expected[0, 1] = -0.222786
        expected[0, 2] = 0.174348
        expected[0, 6] = 0.165867
        expected[1, 4] = -0.045322
        expected[2, 3] = 0.045322
        expected[3, 0] = 0.171198
        expected[3, 1] = 0.120545
        expected[3, 5] = 0.168622
        rows, rests, matrix = reference_regroup(h2_subset.coeffs.real[None], [s for _, s in sum_terms(h2_subset)])
        assert rows == ((0, 0), (0, 1), (0, 2), (0, 3))
        assert rests == cols
        np.testing.assert_allclose(matrix, expected, atol=1e-12)

    def test_first_cut_matches_bridge_matrix(self, h2_subset):
        # two independent routes to the same regrouping must agree
        _, _, matrix = reference_regroup(h2_subset.coeffs[None], [s for _, s in sum_terms(h2_subset)])
        d = compile_bridge(h2_subset, 1)
        np.testing.assert_allclose(
            matrix, bridge_matrix(d), atol=1e-14
        )

    def test_h2_bond_profile(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        assert m.bond_dims == [1, 4, 5, 3, 1]

    def test_h2_exact_reconstruction(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        assert rel_err(mpo_to_dense(m), to_dense(h2_subset)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 18))
    def test_random_exact_reconstruction(self, seed, n_sites, n_terms):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms, complex_coeffs=True)
        m = build_mpo_qr(op)
        assert rel_err(mpo_to_dense(m), to_dense(op)) < 1e-10
        np.testing.assert_allclose(mpo_to_dense(m), to_dense(op), rtol=0, atol=1e-12)

    def test_identity_is_bond_one(self):
        op = pauli_sum(3, [(2.5, "III")])
        m = build_mpo_qr(op)
        assert m.bond_dims == [1, 1, 1, 1]
        np.testing.assert_allclose(mpo_to_dense(m), 2.5 * np.eye(8), atol=1e-14)

    def test_single_string_is_bond_one(self):
        op = pauli_sum(4, [(-1.0j, "XYZI")])
        m = build_mpo_qr(op)
        assert m.bond_dims == [1, 1, 1, 1, 1]
        assert rel_err(mpo_to_dense(m), to_dense(op)) < 1e-14

    def test_single_site_operator(self):
        op = parse_pauli_sum("0.5 X\n-0.25 Z\n")
        m = build_mpo_qr(op)
        assert m.bond_dims == [1, 1]
        assert rel_err(mpo_to_dense(m), to_dense(op)) < 1e-14

    def test_empty_operator_raises(self):
        with pytest.raises(EmptyOperator):
            build_mpo_qr(pauli_sum(2, []))

    def test_negative_rank_tol_raises(self, h2_subset):
        with pytest.raises(ValueError):
            build_mpo_qr(h2_subset, rank_tol=-0.1)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rank_tol_raises(self, h2_subset, tol):
        with pytest.raises(ValueError, match="rank_tol"):
            build_mpo_qr(h2_subset, rank_tol=tol)

    @pytest.mark.parametrize("tol", [1.0, 1.5])
    def test_rank_tol_at_or_above_one_raises(self, h2_subset, tol):
        # no pivot passes |R_jj| > rank_tol * |R_00| there: refused on entry, not as a vanished cut matrix
        with pytest.raises(ValueError, match=rf"rank_tol must be in \[0, 1\), got {tol}"):
            build_mpo_qr(h2_subset, rank_tol=tol)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([24, 40]))
    def test_chain_bonds_are_exact_rank(self, seed, n_sites):
        # the channels past a cut are identity, X, Y, Z and "done": rank 5;
        # roundoff pivots kept as bonds used to give up to 99 (24 sites)
        rng = np.random.default_rng(seed)
        op = chain_operator(rng, n_sites)
        assert op.n_terms == 5 * n_sites - 3
        m = build_mpo_qr(op)
        assert max(m.bond_dims) <= 5
        absent = ["".join(SYMBOLS[c] for c in rng.integers(0, 4, n_sites)) for _ in range(20)]
        absent = [s for s in absent if s not in term_dict(op)]
        labels = [label for _, label in sum_terms(op)] + absent
        want = op.coeffs.tolist() + [0.0] * len(absent)
        np.testing.assert_allclose(pauli_coefficients(m, labels), want, rtol=0, atol=1e-12)

    def test_h2_bonds_equal_bridge_ranks(self, h2_subset):
        ranks = [np.linalg.matrix_rank(bridge_matrix(compile_bridge(h2_subset, k))) for k in (1, 2, 3)]
        assert build_mpo_qr(h2_subset).bond_dims == [1, *ranks, 1] == [1, 4, 5, 3, 1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 40), st.booleans())
    def test_bonds_equal_bridge_ranks(self, seed, n_sites, n_terms, complex_coeffs):
        # the bond at cut k is the rank of the bridge at k: a route through bridge.compile, not the sweep
        op = random_pauli_sum(np.random.default_rng(seed), n_sites, n_terms, complex_coeffs=complex_coeffs)
        ranks = [np.linalg.matrix_rank(bridge_matrix(compile_bridge(op, k))) for k in range(1, n_sites)]
        assert build_mpo_qr(op).bond_dims == [1, *ranks, 1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(1, 8), st.integers(30, 40)),
        st.integers(1, 40),
        st.booleans(),
    )
    def test_sweep_matches_string_built_reference(self, seed, n_sites, n_terms, complex_coeffs):
        # mostly-identity strings share suffixes, so columns merge; 33 or
        # more sites take two packed words per string
        rng = np.random.default_rng(seed)
        codes = rng.choice(4, size=(n_terms, n_sites), p=[0.7, 0.1, 0.1, 0.1])
        coeffs = rng.standard_normal((n_terms, 2)) @ ([1, 1j] if complex_coeffs else [1, 0])
        op = pauli_sum(n_sites, [(c, "".join(SYMBOLS[p] for p in row)) for c, row in zip(coeffs, codes)])
        m = build_mpo_qr(op)
        tensors, _ = reference_sweep(op)
        assert len(m.tensors) == len(tensors) == n_sites
        assert all(np.array_equal(w, ref) for w, ref in zip(m.tensors, tensors))

    def test_large_cut_matrices_match_the_reference_sweep(self):
        # cut matrices large enough for LAPACK's blocked code, whose path the workspace size
        # sets: jw12 (real coefficients), jw12 times 1j and a random 200-term 8-site sum
        n_modes, terms = load_fermion_terms(jw12_document())
        jw12 = map_hamiltonian(terms, n_modes)
        ops = [jw12, PauliSum.from_rows(n_modes, jw12.rows, 1j * jw12.coeffs),
               random_pauli_sum(np.random.default_rng(200), 8, 200)]
        for op in ops:
            tensors, _ = reference_sweep(op)
            assert all(np.array_equal(w, ref) for w, ref in zip(build_mpo_qr(op).tensors, tensors))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 18))
    def test_wide_coefficient_range_reconstruction(self, seed, n_sites, n_terms):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms, complex_coeffs=True)
        magnitudes = 10.0 ** rng.uniform(-8, 3, op.n_terms)
        op = PauliSum.from_rows(n_sites, op.rows, op.coeffs / np.abs(op.coeffs) * magnitudes)
        assert rel_err(mpo_to_dense(build_mpo_qr(op)), to_dense(op)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 2))
    @example(200, 6, 1)  # a roundoff pivot at site 4 once became a second bond
    @example(181557, 6, 2)  # misses by 1.15e-12 on entries up to 1.39e3, 8e-16 relative
    def test_rank_deficient_cuts_form_only_the_kept_columns(self, seed, n_sites, rank):
        op = low_rank_operator(np.random.default_rng(seed), n_sites, rank)
        m = build_mpo_qr(op)
        # some cut keeps fewer columns of Q than its m x k matrix has pivots
        _, cuts = reference_sweep(op)
        assume(any(bond < min(c.shape) for bond, c in zip(m.bond_dims[1:], cuts[:-1])))
        assert max(m.bond_dims) <= rank
        # sum over (left bond, s, t) of conj(W) W is 2 Q^H Q, as tr(sigma_p^H sigma_q) = 2 delta_pq
        assert all(is_left_canonical_site(w / np.sqrt(2)) for w in m.tensors[:-1])
        dense = to_dense(op)
        np.testing.assert_allclose(mpo_to_dense(m), dense, rtol=0, atol=1e-12 * np.abs(dense).max())

    def test_non_finite_coefficient_refused(self):
        # a PauliSum built in Python takes any complex; the sweep refuses it at entry
        for value in (np.nan, np.inf):
            op = pauli_sum(2, [(value, "XZ"), (1.0, "ZZ")])
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                build_mpo_qr(op)

    def test_rank_tol_shrinks_bonds(self, h2_subset):
        exact = build_mpo_qr(h2_subset)
        loose = build_mpo_qr(h2_subset, rank_tol=0.3)
        assert all(
            b <= a for a, b in zip(exact.bond_dims, loose.bond_dims)
        )
        assert sum(loose.bond_dims) < sum(exact.bond_dims)

    def test_tiny_rank_tol_still_exact(self, h2_subset):
        m = build_mpo_qr(h2_subset, rank_tol=1e-14)
        assert m.bond_dims == [1, 4, 5, 3, 1]
        assert rel_err(mpo_to_dense(m), to_dense(h2_subset)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 30))
    def test_real_and_complex_sweeps_agree(self, seed, n_sites, n_terms):
        # a real sum runs the sweep in float64; times 1j it takes the complex128 route
        op = random_pauli_sum(np.random.default_rng(seed), n_sites, n_terms)
        rotated = PauliSum.from_rows(n_sites, op.rows, 1j * op.coeffs)
        with pytest.MonkeyPatch.context() as mp:
            lookups = count_calls(mp, scipy.linalg, "get_lapack_funcs")  # once per sweep, by the carried dtype
            m = build_mpo_qr(op)
            mi = build_mpo_qr(rotated)
        assert [arrays[0].dtype for _, arrays in lookups] == [np.float64, np.complex128]
        assert m.bond_dims == mi.bond_dims
        np.testing.assert_allclose(mpo_to_dense(m), to_dense(op), rtol=0, atol=1e-12)
        np.testing.assert_allclose(mpo_to_dense(mi), to_dense(rotated), rtol=0, atol=1e-12)

    def test_complex_sums_write_the_add_at_bytes(self):
        # one scatter and one product with the Paulis must write the bytes np.add.at
        # assembles from the same Q, as every product is exact. Q is formed by the
        # reference route on this machine: the QR's bytes depend on the BLAS thread
        # count, so a digest pinned across machines would not hold
        ops = []
        for seed in range(24):
            rng = np.random.default_rng([29, seed])
            ops.append(random_pauli_sum(rng, 1 + seed % 8, 1 + 5 * seed, complex_coeffs=True))
            if seed % 4 == 0:  # rank-deficient cuts keep fewer columns of Q than pivots
                ops.append(low_rank_operator(rng, 2 + seed % 5, 2))
        for op in ops:
            tensors, _ = reference_sweep(op)
            assert [w.tobytes() for w in build_mpo_qr(op).tensors] == [w.tobytes() for w in tensors]


class TestMpoError:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40), st.booleans())
    def test_exact_mpo_agrees_with_dense_route(self, seed, n_sites, n_terms, complex_coeffs):
        op = random_pauli_sum(np.random.default_rng(seed), n_sites, n_terms, complex_coeffs=complex_coeffs)
        m = build_mpo_qr(op)
        assert abs(mpo_error(m, op) - dense_mpo_error(m, op)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(4, 40), st.integers(1, 3))
    def test_truncated_mpo_agrees_with_dense_route(self, seed, n_sites, n_terms, max_bond):
        op = random_pauli_sum(np.random.default_rng(seed), n_sites, n_terms, complex_coeffs=True)
        m, _ = compress(build_mpo_qr(op), max_bond=max_bond)
        np.testing.assert_allclose(mpo_error(m, op), dense_mpo_error(m, op), rtol=1e-10, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40), st.data())
    def test_scaled_site_reads_its_tamper(self, seed, n_sites, n_terms, data):
        op = random_pauli_sum(np.random.default_rng(seed), n_sites, n_terms)
        m = build_mpo_qr(op)
        site = data.draw(st.integers(0, n_sites - 1))
        # an imaginary tamper makes the projections complex: the check leaves the real route
        tamper = data.draw(st.sampled_from([1e-6, 1e-6j]))
        m.tensors[site] = m.tensors[site] * (1 + tamper)
        err = mpo_error(m, op)
        # both routes carry the exact MPO's roundoff, about 1e-16, beside the 1e-6
        np.testing.assert_allclose(err, dense_mpo_error(m, op), rtol=1e-10, atol=1e-15)
        assert abs(err - 1e-6) <= 1e-12  # the whole operator scales by 1 + tamper

    def test_ten_site_jordan_wigner_operator(self):
        rng = np.random.default_rng(5)
        n = 10
        h = rng.standard_normal((n, n))
        terms = [FermionTerm("one_body", (p, q), h[p, q] + h[q, p]) for p in range(n) for q in range(n)]
        for _ in range(40):
            p, q, r, s = (int(x) for x in rng.choice(n, 4, replace=False))
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms += [FermionTerm("two_body", (p, q, r, s), c), FermionTerm("two_body", (s, r, q, p), c.conjugate())]
        op = map_hamiltonian(terms, n)
        m = build_mpo_qr(op)
        err = mpo_error(m, op)
        assert err <= 1e-10
        assert abs(err - dense_mpo_error(m, op)) <= 1e-12

    def test_h2_tamper_reads_on_both_routes(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        m.tensors[2] = m.tensors[2] + 1e-3 * m.tensors[2][::-1, ::-1]
        np.testing.assert_allclose(mpo_error(m, h2_subset), dense_mpo_error(m, h2_subset), rtol=1e-10)
        assert mpo_error(m, h2_subset) > 1e-5

    def test_twelve_site_real_chain_joins_real_halves(self):
        # 4^12 float64 coefficients are 128 MiB; complex halves would join into 256 MiB
        op = chain_operator(np.random.default_rng(12), 12)
        m = build_mpo_qr(op)
        tracemalloc.start()
        try:
            err = mpo_error(m, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err <= 1e-12
        assert peak < 160 * 2**20

    def test_thirteen_sites_too_large(self):
        op = pauli_sum(13, [(1.0, "Z" * 13)])
        with pytest.raises(TooLarge, match="13 sites exceeds dense limit 12"):
            mpo_error(Mpo([np.ones((1, 1, 2, 2))] * 13), op)

    def test_site_count_mismatch(self, h2_subset):
        op = pauli_sum(3, [(1.0, "XYZ")])
        with pytest.raises(ValueError, match="MPO has 4 sites, operator has 3"):
            mpo_error(build_mpo_qr(h2_subset), op)

    def test_open_boundary_bond_refused(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        m.tensors[0] = np.concatenate([m.tensors[0]] * 2)
        with pytest.raises(ValueError, match="boundary bond dimensions must be 1"):
            mpo_error(m, h2_subset)


class TestCanonicalize:
    @pytest.mark.parametrize("center", [0, 1, 2, 3])
    def test_gauge_conditions_and_invariance(self, h2_subset, center):
        for m, dense_of, _ in h2_chains(h2_subset):
            dense = dense_of(m)
            can = canonicalize(m, center)
            assert type(can) is type(m)
            assert can.gauge == (
                ["left"] * center + ["center"] + ["right"] * (3 - center)
            )
            for j in range(center):
                assert is_left_canonical_site(can.tensors[j])
            for j in range(center + 1, 4):
                assert is_right_canonical_site(can.tensors[j])
            np.testing.assert_allclose(dense_of(can), dense, atol=1e-12)

    def test_bad_center_raises(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        with pytest.raises(ValueError):
            canonicalize(m, 4)
        with pytest.raises(ValueError):
            canonicalize(m, -1)

    def test_input_not_mutated(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        before = [w.copy() for w in m.tensors]
        canonicalize(m, 2)
        for a, b in zip(m.tensors, before):
            np.testing.assert_array_equal(a, b)


class TestCompress:
    def test_lossless_when_untruncated(self, h2_subset):
        for m, dense_of, _ in h2_chains(h2_subset):
            comp, discarded = compress(m)
            assert type(comp) is type(m)
            assert comp.bond_dims == m.bond_dims
            assert all(d == 0.0 for d in discarded)
            np.testing.assert_allclose(dense_of(comp), dense_of(m), atol=1e-12)
            assert comp.gauge == ["left", "left", "left", "center"]

    @pytest.mark.parametrize("max_bond", [1, 2, 3, 4])
    def test_discarded_weight_equals_squared_error(self, h2_subset, max_bond):
        # single-sweep truncations discard mutually orthogonal pieces, so
        # the dense Frobenius gap matches the weight sum exactly
        for m, dense_of, reference in h2_chains(h2_subset):
            comp, discarded = compress(m, max_bond=max_bond)
            assert type(comp) is type(m)
            assert max(comp.bond_dims) <= max(max_bond, 1)
            assert all(is_left_canonical_site(t) for t in comp.tensors[:-1])
            err = np.linalg.norm(dense_of(comp) - reference)
            assert err == pytest.approx(np.sqrt(sum(discarded)), abs=1e-10)

    def test_single_bond_error_matches_cut_spectrum(self, h2_subset):
        # with max_bond=4 only the middle bond truncates (5 -> 4); the gap
        # must equal the dropped Schmidt coefficient of the dense operator,
        # i.e. 2^(n/2) times the smallest cut-matrix singular value
        m = build_mpo_qr(h2_subset)
        comp, discarded = compress(m, max_bond=4)
        assert comp.bond_dims == [1, 4, 4, 3, 1]
        assert discarded[0] == 0.0 and discarded[2] == 0.0
        sigma = scipy.linalg.svd(
            bridge_matrix(compile_bridge(h2_subset, 2)), compute_uv=False
        )
        err = np.linalg.norm(mpo_to_dense(comp) - to_dense(h2_subset))
        assert err == pytest.approx(4.0 * sigma[4], abs=1e-9)
        assert err == pytest.approx(4.0 * 0.045322, abs=1e-9)

    def test_single_bond_error_matches_schmidt_spectrum(self, h2_subset):
        # the same identity on an MPS: max_bond=3 truncates only the middle
        # bond (4 -> 3), and the gap is the dropped Schmidt coefficient
        [_, (m, _, vec)] = h2_chains(h2_subset)
        comp, discarded = compress(m, max_bond=3)
        assert comp.bond_dims == [1, 2, 3, 2, 1]
        assert discarded[0] == 0.0 and discarded[2] == 0.0
        sigma = scipy.linalg.svd(vec.reshape(4, 4), compute_uv=False)
        err = np.linalg.norm(mps_to_dense(comp) - vec)
        assert err == pytest.approx(np.sqrt(discarded[1]), abs=1e-12)
        assert err == pytest.approx(sigma[3], abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(3, 16))
    def test_random_discarded_weight_identity(self, seed, n_sites, n_terms):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, n_terms)
        m = build_mpo_qr(op)
        comp, discarded = compress(m, max_bond=2)
        err = np.linalg.norm(mpo_to_dense(comp) - to_dense(op))
        assert err == pytest.approx(np.sqrt(sum(discarded)), abs=1e-9)


class TestSerialization:
    def test_round_trip_exact(self, h2_subset):
        m = canonicalize(build_mpo_qr(h2_subset), 1)
        text = mpo_to_json(m)
        back = mpo_from_json(text)
        assert back.bond_dims == m.bond_dims
        assert back.gauge == m.gauge
        for a, b in zip(back.tensors, m.tensors):
            np.testing.assert_array_equal(a, b)

    def test_serialization_deterministic(self, h2_subset):
        m = build_mpo_qr(h2_subset)
        assert mpo_to_json(m) == mpo_to_json(m)

    def test_header_fields(self, h2_subset):
        doc = json.loads(mpo_to_json(build_mpo_qr(h2_subset)))
        assert doc["format"] == "mpo-v1"
        assert doc["n_sites"] == 4
        assert doc["bond_dims"] == [1, 4, 5, 3, 1]
        assert len(doc["tensors"]) == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_not_written(self, h2_subset, value):
        m = build_mpo_qr(h2_subset)
        m.tensors[2][0, 0, 1, 1] = value
        with pytest.raises(ValueError, match=r"^mpo-v1 field tensors\[2\]: non-finite values"):
            mpo_to_json(m)

    @pytest.mark.parametrize("text", [
        "1e308 XZ\n1e308 ZZ\n",
        # R's second column overflows in the reflector's update while Q stays finite
        "1e307 IY\n1.6e308 XY\n1.5e308 IX\n5e307 XX\n",
    ], ids=["Q", "R"])
    def test_overflowing_qr_names_site(self, text):
        with pytest.raises(ValueError, match="cut matrix at site 0 overflows"):
            build_mpo_qr(parse_pauli_sum(text))

    def test_wrong_format_rejected(self, h2_subset):
        doc = json.loads(mpo_to_json(build_mpo_qr(h2_subset)))
        doc["format"] = "mpo-v0"
        with pytest.raises(ValueError):
            mpo_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field, mutate", CHAIN_MUTATIONS)
    def test_malformed_document_names_field(self, h2_subset, field, mutate):
        doc = json.loads(mpo_to_json(build_mpo_qr(h2_subset)))
        mutate(doc)
        with pytest.raises(ValueError, match=rf"^mpo-v1 field {re.escape(field)}:"):
            mpo_from_json(json.dumps(doc))

    def test_truncated_payload_rejected(self, h2_subset):
        doc = json.loads(mpo_to_json(build_mpo_qr(h2_subset)))
        doc["tensors"][0] = doc["tensors"][0][: len(doc["tensors"][0]) // 2]
        with pytest.raises(ValueError):
            mpo_from_json(json.dumps(doc))
