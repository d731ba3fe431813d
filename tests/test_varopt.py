"""Effective pencil assembly, Ritz solvers, fidelity fit, sample sweep."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from paulibridge.mps import (
    Mps,
    canonicalize_mps,
    dense_to_mps,
    ground_state_reference,
    mps_to_dense,
)
from paulibridge.pauli import (
    PAULI_MATRICES,
    DimensionMismatch,
    PauliString,
    PauliSum,
    apply_string,
    pauli_product,
    to_dense,
)
from paulibridge.varopt import (
    ConvergenceFailure,
    assemble_pencil,
    energy_vs_samples_sweep,
    fidelity_fit,
    solve_ritz_dense,
    solve_ritz_lobpcg,
    sweep_to_csv,
)

from conftest import random_pauli_sum, random_state


def hermitian_sum(rng, n_sites, n_terms):
    # real coefficients on Hermitian strings give a Hermitian operator
    return random_pauli_sum(rng, n_sites, n_terms, complex_coeffs=False)


def random_pool(rng, n_sites, size):
    bits = rng.choice(4**n_sites, size=min(size, 4**n_sites), replace=False)
    return tuple(PauliString(n_sites, int(b)) for b in bits)


def dense_pencil(op, pool, vec):
    dense = to_dense(op)
    cols = np.stack([apply_string(p, vec) for p in pool], axis=1)
    return cols.conj().T @ dense @ cols, cols.conj().T @ cols


def pairwise_pencil(op, pool, expect):
    """Entry-by-entry assembly from scalar products and one expectation per string."""
    k = len(pool)
    h = np.zeros((k, k), dtype=np.complex128)
    n = np.zeros((k, k), dtype=np.complex128)
    for a, pa in enumerate(pool):
        for b, pb in enumerate(pool):
            phase, q = pauli_product(pa, pb)
            n[a, b] = phase * expect(q)
            for term in op.terms:
                ph1, q1 = pauli_product(pa, term.string)
                ph2, q2 = pauli_product(q1, pb)
                h[a, b] += term.coeff * ph1 * ph2 * expect(q2)
    return h, n


def sparse_string(rng, n_sites, max_weight):
    codes = [0] * n_sites
    for site in rng.choice(n_sites, size=int(rng.integers(1, max_weight + 1)), replace=False):
        codes[site] = int(rng.integers(1, 4))
    return PauliString.from_codes(codes)


class TestAssembly:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8), st.booleans())
    def test_algebraic_matches_dense(self, seed, n_sites, max_bond, include_identity):
        rng = np.random.default_rng(seed)
        op = random_pauli_sum(rng, n_sites, 5, complex_coeffs=True)
        mps = dense_to_mps(random_state(rng, n_sites), max_bond=max_bond)
        vec = mps_to_dense(mps)
        pool = random_pool(rng, n_sites, 6)
        # repeated strings and the identity inside the pool
        ident = PauliString.identity(n_sites)
        pool = pool + pool[:2] + (ident,)
        if include_identity:
            expected = (ident,) + tuple(s for s in pool if s != ident)
        else:
            expected = pool
        for state in (vec, mps):
            pencil = assemble_pencil(op, pool, state, include_identity=include_identity)
            assert pencil.strings == expected
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

        def expect(p):
            return np.prod([np.vdot(v, PAULI_MATRICES[c] @ v) for v, c in zip(sites, p.codes)])

        op = PauliSum(
            n_sites,
            [(complex(*rng.standard_normal(2)), sparse_string(rng, n_sites, 3)) for _ in range(6)],
        )
        straddle = PauliString.from_label("I" * 31 + "XY" + "I" * 7)
        pool = (straddle,) + tuple(sparse_string(rng, n_sites, 3) for _ in range(7))
        pencil = assemble_pencil(op, pool, mps)
        h_ref, n_ref = pairwise_pencil(op, pencil.strings, expect)
        np.testing.assert_allclose(pencil.h, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pencil.n, n_ref, rtol=0, atol=1e-12)
        assert np.max(np.abs(n_ref)) > 0.1

    def test_state_width_mismatch_raises(self, h2_subset):
        rng = np.random.default_rng(6)
        mps = dense_to_mps(random_state(rng, 3))
        with pytest.raises(DimensionMismatch):
            assemble_pencil(h2_subset, (), mps)

    def test_mps_and_dense_states_agree(self, h2_subset):
        rng = np.random.default_rng(2)
        vec = random_state(rng, 4)
        mps = canonicalize_mps(dense_to_mps(vec), "right")
        pool = random_pool(rng, 4, 5)
        a = assemble_pencil(h2_subset, pool, vec)
        b = assemble_pencil(h2_subset, pool, mps)
        np.testing.assert_allclose(a.h, b.h, atol=1e-10)
        np.testing.assert_allclose(a.n, b.n, atol=1e-10)

    def test_identity_prepended_once(self, h2_subset):
        rng = np.random.default_rng(3)
        vec = random_state(rng, 4)
        ident = PauliString.identity(4)
        pool = (ident, PauliString.from_label("XXYY"))
        pencil = assemble_pencil(h2_subset, pool, vec)
        assert pencil.strings[0] == ident
        assert pencil.strings.count(ident) == 1
        assert pencil.size == 2

    def test_hermitian_and_psd(self, h2_subset):
        rng = np.random.default_rng(4)
        vec = random_state(rng, 4)
        pencil = assemble_pencil(h2_subset, random_pool(rng, 4, 8), vec)
        np.testing.assert_allclose(pencil.h, pencil.h.conj().T, atol=1e-12)
        np.testing.assert_allclose(pencil.n, pencil.n.conj().T, atol=1e-12)
        assert scipy.linalg.eigvalsh(pencil.n)[0] > -1e-12

    def test_width_mismatch_raises(self, h2_subset):
        rng = np.random.default_rng(5)
        with pytest.raises(DimensionMismatch):
            assemble_pencil(h2_subset, (PauliString.from_label("XX"),), random_state(rng, 4))


class TestRitzDense:
    def test_full_pool_recovers_exact_ground_energy(self):
        rng = np.random.default_rng(10)
        op = hermitian_sum(rng, 2, 6)
        vec = random_state(rng, 2)
        pool = tuple(PauliString(2, b) for b in range(16))
        sol = solve_ritz_dense(assemble_pencil(op, pool, vec))
        exact = scipy.linalg.eigvalsh(to_dense(op))[0]
        assert sol.energies[0] == pytest.approx(exact, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_variational_bound(self, seed):
        rng = np.random.default_rng(seed)
        op = hermitian_sum(rng, 3, 6)
        vec = random_state(rng, 3)
        sol = solve_ritz_dense(assemble_pencil(op, random_pool(rng, 3, 5), vec))
        exact = scipy.linalg.eigvalsh(to_dense(op))[0]
        assert sol.energies[0] >= exact - 1e-10

    def test_nested_pools_monotone(self):
        rng = np.random.default_rng(11)
        op = hermitian_sum(rng, 3, 8)
        vec = random_state(rng, 3)
        pool = random_pool(rng, 3, 9)
        energies = [
            solve_ritz_dense(assemble_pencil(op, pool[:k], vec)).energies[0]
            for k in (0, 3, 6, 9)
        ]
        for lo, hi in zip(energies[1:], energies[:-1]):
            assert lo <= hi + 1e-12

    def test_identity_only_is_rayleigh_quotient(self, h2_subset):
        rng = np.random.default_rng(12)
        vec = random_state(rng, 4)
        sol = solve_ritz_dense(assemble_pencil(h2_subset, (), vec))
        quot = np.vdot(vec, to_dense(h2_subset) @ vec).real
        assert sol.energies[0] == pytest.approx(quot, abs=1e-10)

    def test_singular_metric_deflated(self):
        # |00> is a Z eigenstate, so ZI and the identity generate the
        # same direction and the metric is rank deficient
        rng = np.random.default_rng(13)
        op = hermitian_sum(rng, 2, 5)
        vec = np.zeros(4, dtype=np.complex128)
        vec[0] = 1.0
        pool = (PauliString.from_label("ZI"), PauliString.from_label("XI"))
        pencil = assemble_pencil(op, pool, vec)
        assert scipy.linalg.eigvalsh(pencil.n)[0] < 1e-12
        sol = solve_ritz_dense(pencil)
        assert sol.n_kept < pencil.size
        exact = scipy.linalg.eigvalsh(to_dense(op))[0]
        assert sol.energies[0] >= exact - 1e-10

    def test_multiple_roots_sorted(self):
        rng = np.random.default_rng(14)
        op = hermitian_sum(rng, 2, 6)
        vec = random_state(rng, 2)
        pool = tuple(PauliString(2, b) for b in range(16))
        sol = solve_ritz_dense(assemble_pencil(op, pool, vec), n_roots=3)
        exact = scipy.linalg.eigvalsh(to_dense(op))
        np.testing.assert_allclose(sol.energies, exact[:3], atol=1e-9)


class TestRitzIterative:
    def test_matches_dense_solver(self):
        rng = np.random.default_rng(20)
        op = hermitian_sum(rng, 3, 10)
        vec = random_state(rng, 3)
        pencil = assemble_pencil(op, random_pool(rng, 3, 12), vec)
        dense = solve_ritz_dense(pencil, n_roots=2)
        iterative = solve_ritz_lobpcg(pencil, n_roots=2, tol=1e-11, seed=1)
        np.testing.assert_allclose(iterative.energies, dense.energies, atol=1e-7)
        assert iterative.iterations > 0

    def test_seed_determinism(self):
        rng = np.random.default_rng(21)
        op = hermitian_sum(rng, 3, 8)
        vec = random_state(rng, 3)
        pencil = assemble_pencil(op, random_pool(rng, 3, 10), vec)
        a = solve_ritz_lobpcg(pencil, seed=5)
        b = solve_ritz_lobpcg(pencil, seed=5)
        np.testing.assert_array_equal(a.energies, b.energies)

    def test_convergence_failure_raises(self):
        rng = np.random.default_rng(22)
        op = hermitian_sum(rng, 3, 12)
        vec = random_state(rng, 3)
        pencil = assemble_pencil(op, random_pool(rng, 3, 20), vec)
        with pytest.raises(ConvergenceFailure):
            solve_ritz_lobpcg(pencil, tol=1e-16, max_iter=1, seed=0)


class TestFidelityFit:
    def test_reference_state_fits_itself(self, h2_subset):
        rng = np.random.default_rng(30)
        vec = random_state(rng, 4)
        pencil = assemble_pencil(h2_subset, random_pool(rng, 4, 4), vec)
        overlaps = np.array(
            [np.vdot(apply_string(p, vec), vec) for p in pencil.strings]
        )
        fit = fidelity_fit(pencil, overlaps)
        assert fit.fidelity == pytest.approx(1.0, abs=1e-8)

    def test_full_pool_reaches_any_target(self):
        rng = np.random.default_rng(31)
        op = hermitian_sum(rng, 2, 5)
        vec = random_state(rng, 2)
        target = random_state(rng, 2)
        pool = tuple(PauliString(2, b) for b in range(16))
        pencil = assemble_pencil(op, pool, vec)
        overlaps = np.array(
            [np.vdot(apply_string(p, vec), target) for p in pencil.strings]
        )
        fit = fidelity_fit(pencil, overlaps)
        assert fit.fidelity == pytest.approx(1.0, abs=1e-6)

    def test_partial_pool_below_one(self):
        rng = np.random.default_rng(32)
        op = hermitian_sum(rng, 2, 5)
        vec = random_state(rng, 2)
        target = random_state(rng, 2)
        pencil = assemble_pencil(op, (), vec)
        overlaps = np.array(
            [np.vdot(apply_string(p, vec), target) for p in pencil.strings]
        )
        fit = fidelity_fit(pencil, overlaps)
        assert fit.fidelity <= 1.0 + 1e-10

    def test_shape_mismatch_raises(self, h2_subset):
        rng = np.random.default_rng(33)
        pencil = assemble_pencil(h2_subset, (), random_state(rng, 4))
        with pytest.raises(DimensionMismatch):
            fidelity_fit(pencil, np.zeros(5))


class TestSweep:
    def test_h2_truncated_state_sweep(self, h2_subset):
        res = ground_state_reference(h2_subset, max_bond=1)
        state = canonicalize_mps(res.mps, "right")
        rows = energy_vs_samples_sweep(
            h2_subset, state, [16, 64, 256], keep_iz=4, seed=9
        )
        exact = scipy.linalg.eigvalsh(to_dense(h2_subset))[0]
        assert [r.n_samples for r in rows] == [16, 64, 256]
        for row in rows:
            assert row.reference_energy == pytest.approx(exact, abs=1e-12)
            assert row.energy >= exact - 1e-10
        for later, earlier in zip(rows[1:], rows[:-1]):
            assert later.energy <= earlier.energy + 1e-12
            assert later.pool_size >= earlier.pool_size

    def test_sweep_deterministic(self, h2_subset):
        res = ground_state_reference(h2_subset, max_bond=1)
        state = canonicalize_mps(res.mps, "right")
        a = energy_vs_samples_sweep(h2_subset, state, [8, 32], seed=4)
        b = energy_vs_samples_sweep(h2_subset, state, [8, 32], seed=4)
        assert a == b

    def test_csv_shape(self, h2_subset):
        res = ground_state_reference(h2_subset, max_bond=1)
        state = canonicalize_mps(res.mps, "right")
        rows = energy_vs_samples_sweep(h2_subset, state, [8, 32], seed=4)
        text = sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "n_samples,p_pool,energy,reference_energy"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert int(fields[0]) == 8
        float(fields[2]), float(fields[3])

    def test_bad_sizes_raise(self, h2_subset):
        res = ground_state_reference(h2_subset, max_bond=1)
        with pytest.raises(ValueError):
            energy_vs_samples_sweep(h2_subset, res.mps, [])
        with pytest.raises(ValueError):
            energy_vs_samples_sweep(h2_subset, res.mps, [0, 5])
