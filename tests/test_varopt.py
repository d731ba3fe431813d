"""Effective pencil assembly, Ritz solvers, sample sweep."""

import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from paulibridge.mps import (
    Mps,
    canonicalize_mps,
    dense_to_mps,
    ground_state_reference,
)
from paulibridge.pauli import (
    PAULI_MATRICES,
    SYMBOLS,
    DimensionMismatch,
    apply_string,
    label_rows,
    pauli_product,
    to_dense,
)
from paulibridge.sampler import SamplerConfig, curate, sample_strings
from paulibridge.varopt import (
    ConvergenceFailure,
    assemble_pencil,
    energy_vs_samples_sweep,
    solve_ritz_dense,
    solve_ritz_lobpcg,
    sweep_to_csv,
)

from conftest import (
    count_dense_solves,
    evict_lowest_pairs,
    int_rows,
    mps_to_dense,
    pauli_sum,
    random_pauli_sum,
    random_state,
    row_codes,
    row_ints,
)


def hermitian_sum(rng, n_sites, n_terms):
    # real coefficients on Hermitian strings give a Hermitian operator
    return random_pauli_sum(rng, n_sites, n_terms, complex_coeffs=False)


def random_pool(rng, n_sites, size):
    bits = rng.choice(4**n_sites, size=min(size, 4**n_sites), replace=False)
    return int_rows(bits, n_sites)


def exact_mps(vec):
    """The MPS of a dense vector, untruncated and with its norm kept."""
    m = dense_to_mps(vec)
    m.tensors[-1] = m.tensors[-1] * np.linalg.norm(vec)  # the norm-holding center site
    return m


def dense_pencil(op, rows, vec):
    dense = to_dense(op)
    cols = np.stack([apply_string(p, vec) for p in rows], axis=1)
    return cols.conj().T @ dense @ cols, cols.conj().T @ cols


def pairwise_pencil(op, rows, expect):
    """Entry-by-entry assembly from scalar products and one expectation per string."""
    k = len(rows)
    h = np.zeros((k, k), dtype=np.complex128)
    n = np.zeros((k, k), dtype=np.complex128)
    for a, pa in enumerate(rows):
        for b, pb in enumerate(rows):
            phase, q = pauli_product(pa, pb)
            n[a, b] = phase * expect(q)
            for coeff, string in zip(op.coeffs.tolist(), op.rows):
                ph1, q1 = pauli_product(pa, string)
                ph2, q2 = pauli_product(q1, pb)
                h[a, b] += coeff * ph1 * ph2 * expect(q2)
    return h, n


def sparse_string(rng, n_sites, max_weight):
    codes = [0] * n_sites
    for site in rng.choice(n_sites, size=int(rng.integers(1, max_weight + 1)), replace=False):
        codes[site] = int(rng.integers(1, 4))
    return "".join(SYMBOLS[c] for c in codes)


class TestAssembly:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
    def test_algebraic_matches_dense(self, seed, n_sites, max_bond):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, 5, complex_coeffs=True)
        # a truncated, right-canonical state whose norm is not one: site 0 holds the norm
        mps = canonicalize_mps(dense_to_mps(random_state(rng, n_sites), max_bond=max_bond))
        mps.tensors[0] = mps.tensors[0] * rng.uniform(0.5, 2.0)
        vec = mps_to_dense(mps)
        pool = random_pool(rng, n_sites, 6)
        # repeated strings and the identity inside the pool
        pool = np.vstack([pool, pool[:2], int_rows([0], n_sites)])
        pencil = assemble_pencil(op, pool, mps)
        assert row_ints(pencil.strings) == [0] + [s for s in row_ints(pool) if s != 0]
        h_ref, n_ref = dense_pencil(op, pencil.strings, vec)
        np.testing.assert_allclose(pencil.h, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pencil.n, n_ref, rtol=0, atol=1e-12)

    def test_forty_site_product_state(self):
        # 40 sites pack into two words; a product state's expectation is
        # the product of its single-site ones
        rng = np.random.default_rng(40)
        n_sites = 40
        sites = [random_state(rng, 1) for _ in range(n_sites)]
        mps = Mps([v.reshape(1, 1, 2) for v in sites])

        def expect(row):
            codes = row_codes(row[None], n_sites)[0]
            return np.prod([np.vdot(v, PAULI_MATRICES[c] @ v) for v, c in zip(sites, codes)])

        op = pauli_sum(n_sites, [(complex(*rng.standard_normal(2)), sparse_string(rng, n_sites, 3)) for _ in range(6)])
        straddle = "I" * 31 + "XY" + "I" * 7
        pool = [straddle] + [sparse_string(rng, n_sites, 3) for _ in range(7)]
        pencil = assemble_pencil(op, label_rows(pool, n_sites), mps)
        h_ref, n_ref = pairwise_pencil(op, pencil.strings, expect)
        np.testing.assert_allclose(pencil.h, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pencil.n, n_ref, rtol=0, atol=1e-12)
        assert np.max(np.abs(n_ref)) > 0.1

    def test_state_width_mismatch_raises(self, h2_subset):
        rng = np.random.default_rng(6)
        mps = dense_to_mps(random_state(rng, 3))
        with pytest.raises(DimensionMismatch):
            assemble_pencil(h2_subset, label_rows([], 4), mps)

    def test_identity_prepended_once(self, h2_subset):
        rng = np.random.default_rng(3)
        vec = random_state(rng, 4)
        pencil = assemble_pencil(h2_subset, label_rows(["IIII", "XXYY"], 4), exact_mps(vec))
        strings = row_ints(pencil.strings)
        assert strings[0] == 0
        assert strings.count(0) == 1
        assert pencil.size == 2

    def test_hermitian_and_psd(self, h2_subset):
        rng = np.random.default_rng(4)
        vec = random_state(rng, 4)
        pencil = assemble_pencil(h2_subset, random_pool(rng, 4, 8), exact_mps(vec))
        np.testing.assert_allclose(pencil.h, pencil.h.conj().T, atol=1e-12)
        np.testing.assert_allclose(pencil.n, pencil.n.conj().T, atol=1e-12)
        assert scipy.linalg.eigvalsh(pencil.n)[0] > -1e-12

    def test_width_mismatch_raises(self, h2_subset):
        # a row has no width of its own: XX packed on two sites is the four-site
        # row IIXX, so only rows that cannot be four-site rows are refused: a
        # symbol past the fourth site, two words, another dtype, one dimension
        rng = np.random.default_rng(5)
        for rows in (label_rows(["XXXXX"], 5), label_rows(["X" * 40], 40),
                     np.array([[5]], dtype=np.int64), np.array([5], dtype=np.uint64)):
            with pytest.raises(DimensionMismatch, match="do not fit 4 sites"):
                assemble_pencil(h2_subset, rows, exact_mps(random_state(rng, 4)))


class TestRitzDense:
    def test_full_pool_recovers_exact_ground_energy(self):
        rng = np.random.default_rng(10)
        op = hermitian_sum(rng, 2, 6)
        vec = random_state(rng, 2)
        pool = int_rows(range(16), 2)
        sol = solve_ritz_dense(assemble_pencil(op, pool, exact_mps(vec)))
        exact = scipy.linalg.eigvalsh(to_dense(op))[0]
        assert sol.energies[0] == pytest.approx(exact, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_variational_bound(self, seed):
        rng = np.random.default_rng(seed)
        op = hermitian_sum(rng, 3, 6)
        vec = random_state(rng, 3)
        sol = solve_ritz_dense(assemble_pencil(op, random_pool(rng, 3, 5), exact_mps(vec)))
        exact = scipy.linalg.eigvalsh(to_dense(op))[0]
        assert sol.energies[0] >= exact - 1e-10

    def test_nested_pools_monotone(self):
        rng = np.random.default_rng(11)
        op = hermitian_sum(rng, 3, 8)
        vec = random_state(rng, 3)
        pool = random_pool(rng, 3, 9)
        energies = [
            solve_ritz_dense(assemble_pencil(op, pool[:k], exact_mps(vec))).energies[0]
            for k in (0, 3, 6, 9)
        ]
        for lo, hi in zip(energies[1:], energies[:-1]):
            assert lo <= hi + 1e-12

    def test_identity_only_is_rayleigh_quotient(self, h2_subset):
        rng = np.random.default_rng(12)
        vec = random_state(rng, 4)
        sol = solve_ritz_dense(assemble_pencil(h2_subset, label_rows([], 4), exact_mps(vec)))
        quot = np.vdot(vec, to_dense(h2_subset) @ vec).real
        assert sol.energies[0] == pytest.approx(quot, abs=1e-10)

    def test_singular_metric_deflated(self):
        # |00> is a Z eigenstate, so ZI and the identity generate the
        # same direction and the metric is rank deficient
        rng = np.random.default_rng(13)
        op = hermitian_sum(rng, 2, 5)
        vec = np.zeros(4, dtype=np.complex128)
        vec[0] = 1.0
        pool = label_rows(["ZI", "XI"], 2)
        pencil = assemble_pencil(op, pool, exact_mps(vec))
        assert scipy.linalg.eigvalsh(pencil.n)[0] < 1e-12
        sol = solve_ritz_dense(pencil)
        assert sol.n_kept < pencil.size
        exact = scipy.linalg.eigvalsh(to_dense(op))[0]
        assert sol.energies[0] >= exact - 1e-10

    def test_multiple_roots_sorted(self):
        rng = np.random.default_rng(14)
        op = hermitian_sum(rng, 2, 6)
        vec = random_state(rng, 2)
        pool = int_rows(range(16), 2)
        sol = solve_ritz_dense(assemble_pencil(op, pool, exact_mps(vec)), n_roots=3)
        exact = scipy.linalg.eigvalsh(to_dense(op))
        np.testing.assert_allclose(sol.energies, exact[:3], atol=1e-9)


class TestRitzIterative:
    def test_matches_dense_solver(self):
        rng = np.random.default_rng(20)
        op = hermitian_sum(rng, 3, 10)
        vec = random_state(rng, 3)
        pencil = assemble_pencil(op, random_pool(rng, 3, 12), exact_mps(vec))
        dense = solve_ritz_dense(pencil, n_roots=2)
        iterative = solve_ritz_lobpcg(pencil, n_roots=2, tol=1e-11, seed=1)
        np.testing.assert_allclose(iterative.energies, dense.energies, atol=1e-7)
        assert iterative.iterations > 0

    def test_seed_determinism(self):
        rng = np.random.default_rng(21)
        op = hermitian_sum(rng, 3, 8)
        vec = random_state(rng, 3)
        pencil = assemble_pencil(op, random_pool(rng, 3, 10), exact_mps(vec))
        a = solve_ritz_lobpcg(pencil, seed=5)
        b = solve_ritz_lobpcg(pencil, seed=5)
        np.testing.assert_array_equal(a.energies, b.energies)

    def test_convergence_failure_raises(self):
        rng = np.random.default_rng(22)
        op = hermitian_sum(rng, 3, 12)
        vec = random_state(rng, 3)
        pencil = assemble_pencil(op, random_pool(rng, 3, 20), exact_mps(vec))
        with pytest.raises(ConvergenceFailure):
            solve_ritz_lobpcg(pencil, tol=1e-16, max_iter=1, seed=0)


class TestSweep:
    def test_h2_truncated_state_sweep(self, h2_subset):
        res = ground_state_reference(h2_subset, max_bond=1)
        state = canonicalize_mps(res.mps)
        rows = energy_vs_samples_sweep(
            h2_subset, state, [16, 64, 256], seed=9
        )
        exact = scipy.linalg.eigvalsh(to_dense(h2_subset))[0]
        assert [r.n_samples for r in rows] == [16, 64, 256]
        for row in rows:
            assert row.reference_energy == pytest.approx(exact, abs=1e-12)
            assert row.energy >= exact - 1e-10
        for later, earlier in zip(rows[1:], rows[:-1]):
            assert later.energy <= earlier.energy + 1e-12
            assert later.pool_size >= earlier.pool_size

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 12),
           st.lists(st.integers(1, 64), min_size=1, max_size=4))
    def test_rows_match_per_prefix_pencils(self, seed, n_sites, n_terms, sizes):
        # the oracle: each prefix pool's pencil assembled and solved on its own
        rng = np.random.default_rng(seed)
        op = hermitian_sum(rng, n_sites, n_terms)
        max_bond = int(rng.integers(1, 2 ** (n_sites // 2) + 1))
        state = canonicalize_mps(dense_to_mps(random_state(rng, n_sites), max_bond=max_bond))
        rows = energy_vs_samples_sweep(op, state, sizes, seed=seed)
        samples = sample_strings(state, SamplerConfig(n_samples=max(sizes), seed=seed))
        union = {}
        assert [r.n_samples for r in rows] == sorted(set(sizes))
        exact = scipy.linalg.eigvalsh(to_dense(op))[0]  # the full spectrum, against the fallback's one eigenvalue
        for row in rows:
            assert abs(row.reference_energy - exact) <= 1e-12 * max(np.abs(op.coeffs).sum(), 1.0)
            union.update(dict.fromkeys(map(tuple, curate(samples[: row.n_samples], n_sites).strings.tolist())))
            rows = np.array(list(union), dtype=np.uint64).reshape(len(union), samples.shape[1])
            expected = solve_ritz_dense(assemble_pencil(op, rows, state)).energies[0]
            assert row.pool_size == len(union)
            assert row.energy == pytest.approx(expected, abs=1e-12)

    def test_sweep_deterministic(self, h2_subset):
        res = ground_state_reference(h2_subset, max_bond=1)
        state = canonicalize_mps(res.mps)
        a = energy_vs_samples_sweep(h2_subset, state, [8, 32], seed=4)
        b = energy_vs_samples_sweep(h2_subset, state, [8, 32], seed=4)
        assert a == b

    def test_csv_shape(self, h2_subset):
        res = ground_state_reference(h2_subset, max_bond=1)
        state = canonicalize_mps(res.mps)
        rows = energy_vs_samples_sweep(h2_subset, state, [8, 32], seed=4)
        text = sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "n_samples,p_pool,energy,reference_energy"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert int(fields[0]) == 8
        float(fields[2]), float(fields[3])

    def test_non_hermitian_operator_without_reference_is_refused(self):
        # the pencil on this state's pool is Hermitian, so only the operator check
        # stops eigvalsh from reading the lower triangle of a non-Hermitian matrix
        state = ground_state_reference(pauli_sum(2, [(-1.0, "XI"), (-1.0, "IX"), (0.5, "ZZ")])).mps
        op = pauli_sum(2, [(-1.0, "XI"), (-1.0, "IX"), (0.5, "ZZ"), (0.3j, "XZ")])
        with pytest.raises(ValueError, match="^operator is not Hermitian$"):
            energy_vs_samples_sweep(op, state, [20, 50], seed=1)

    def test_bad_sizes_raise(self, h2_subset):
        res = ground_state_reference(h2_subset, max_bond=1)
        with pytest.raises(ValueError):
            energy_vs_samples_sweep(h2_subset, res.mps, [])
        with pytest.raises(ValueError):
            energy_vs_samples_sweep(h2_subset, res.mps, [0, 5])

    @pytest.mark.parametrize("size", [2.7, True, "4", np.float64(5.5)], ids=["float", "bool", "str", "np.float64"])
    def test_a_size_that_is_not_an_integer_is_refused_not_cast(self, h2_subset, size):
        # before, int() ran 2, 1, 4 and 5 samples; beside a larger size the sampler saw only that one
        state = ground_state_reference(h2_subset, max_bond=1).mps
        for sizes in ([size], [12, size]):
            with pytest.raises(ValueError, match=f"^n_samples must be an integer, got {re.escape(repr(size))}$"):
                energy_vs_samples_sweep(h2_subset, state, sizes, seed=1)

    def test_numpy_integer_sizes_run_as_ints(self, h2_subset):
        state = ground_state_reference(h2_subset, max_bond=1).mps
        rows = energy_vs_samples_sweep(h2_subset, state, np.array([8, 32]), seed=4)
        assert rows == energy_vs_samples_sweep(h2_subset, state, [8, 32], seed=4)
        assert [type(r.n_samples) for r in rows] == [int, int]

    def test_reference_then_sweep_solve_once(self, h2_subset, monkeypatch):
        # the sweep without ``reference`` reads the pair ground_state_reference solved
        evict_lowest_pairs()
        calls = count_dense_solves(monkeypatch, h2_subset.n_sites)
        gs = ground_state_reference(h2_subset, max_bond=2)
        rows = energy_vs_samples_sweep(h2_subset, gs.mps, [3, 6], seed=2)
        assert calls == [("eigh", [0, 1])]
        assert all(r.pool_size + 1 < 2**h2_subset.n_sites for r in rows)  # no pencil is counted as a solve
        assert [r.reference_energy for r in rows] == [gs.energy] * 2  # bit for bit
