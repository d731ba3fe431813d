"""Acceptance gate: the eight release criteria, one test and one printed
pass line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Every derived number asserted here is
either recomputed from an independent dense oracle inside this file or is
a frozen fixture value; tolerances are stated inline.
"""

import time

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from paulibridge.bridge import compile as compile_bridge
from paulibridge.fermion import jordan_wigner_op, map_hamiltonian, FermionTerm
from paulibridge.lcu import (
    SupportChanged,
    block_encoding_dense,
    compile_lcu,
    success_probability,
    update_coefficients,
)
from paulibridge.mpo import bridge_svd, build_mpo_qr, mpo_to_dense
from paulibridge.mps import (
    canonicalize,
    canonicalize_mps,
    compress,
    dense_to_mps,
    ground_state_reference,
    is_left_canonical_site,
    is_right_canonical_site,
)
from paulibridge.pauli import PauliString, PauliSum, apply_string, to_dense
from paulibridge.sampler import (
    SamplerConfig,
    conditional_weights,
    curate,
    sample_strings,
)
from paulibridge.varopt import (
    assemble_pencil,
    energy_vs_samples_sweep,
    solve_ritz_dense,
    solve_ritz_lobpcg,
    sweep_to_csv,
)

from conftest import prep_rows, random_pauli_sum, random_state


def report(n: int, name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {n} ({name}): pass [{elapsed:.2f}s]")


# First cut matrix of the nine-term fixture, frozen from the term table:
# the row is the first-site symbol, the column the three-site suffix.
FIRST_CUT_ROWS = ("I", "X", "Y", "Z")
FIRST_CUT_COLS = ("III", "IZI", "IZZ", "XXY", "XYY", "ZII", "ZZI")
FIRST_CUT_ENTRIES = {
    ("I", "III"): -0.098864,
    ("I", "IZI"): -0.222786,
    ("I", "IZZ"): 0.174348,
    ("I", "ZZI"): 0.165867,
    ("X", "XYY"): -0.045322,
    ("Y", "XXY"): 0.045322,
    ("Z", "III"): 0.171198,
    ("Z", "IZI"): 0.120545,
    ("Z", "ZII"): 0.168622,
}

H2_LAMBDA = 1.212874


def exact_probs(vec: np.ndarray, n_sites: int) -> np.ndarray:
    dim = 4**n_sites
    probs = np.empty(dim)
    for b in range(dim):
        ev = np.vdot(vec, apply_string(PauliString(n_sites, b), vec)).real
        probs[b] = ev * ev / 2**n_sites
    return probs


def chain_rule_probs(m) -> np.ndarray:
    """Joint probabilities for every string from the conditional recursion."""
    dim = 4**m.n_sites
    probs = np.empty(dim)
    for b in range(dim):
        codes = PauliString(m.n_sites, b).codes
        env = np.ones((1, 1), dtype=np.complex128)
        joint = 1.0
        for tensor, code in zip(m.tensors, codes):
            weights, envs = conditional_weights(tensor, env)
            joint *= weights[code]
            env = envs[code]
        probs[b] = joint
    return probs


def right_canonical_mps(vec: np.ndarray):
    return canonicalize_mps(dense_to_mps(vec))


def rescaled(op: PauliSum, rng: np.random.Generator) -> PauliSum:
    terms = [
        (t.coeff * rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]), t.string)
        for t in op.terms
    ]
    return PauliSum(op.n_sites, terms)


def test_criterion_1_worked_example_first_cut(h2_subset):
    started = time.monotonic()
    log = []
    build_mpo_qr(h2_subset, cut_log=log)
    cut = log[0]
    assert tuple("IXYZ"[sym] for _, sym in cut.row_keys) == FIRST_CUT_ROWS
    assert tuple(cut.col_labels) == FIRST_CUT_COLS
    expected = np.zeros((4, 7))
    for (row, col), value in FIRST_CUT_ENTRIES.items():
        expected[FIRST_CUT_ROWS.index(row), FIRST_CUT_COLS.index(col)] = value
    assert np.max(np.abs(cut.matrix - expected)) <= 1e-12
    report(1, "worked-example first cut matrix", started, 1.0)


def test_criterion_2_mpo_exactness(h2_subset):
    started = time.monotonic()
    m = build_mpo_qr(h2_subset)
    assert list(m.bond_dims) == [1, 4, 5, 3, 1]
    dense = to_dense(h2_subset)
    err = np.linalg.norm(mpo_to_dense(m) - dense) / np.linalg.norm(dense)
    assert err <= 1e-10
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 31))
        op = random_pauli_sum(rng, n, k, complex_coeffs=bool(rng.integers(2)))
        mo = build_mpo_qr(op)
        dense = to_dense(op)
        err = np.linalg.norm(mpo_to_dense(mo) - dense) / np.linalg.norm(dense)
        assert err <= 1e-10
    report(2, "MPO exact reconstruction", started, 10.0)


def test_criterion_3_block_encoding(h2_subset):
    started = time.monotonic()
    dense = to_dense(h2_subset)
    rng = np.random.default_rng(33)
    for cut in (1, 2, 3):
        prog = compile_lcu(compile_bridge(h2_subset, cut))
        assert prog.lam == pytest.approx(H2_LAMBDA, abs=1e-12)
        w = block_encoding_dense(prog)
        dim = 2**prog.n_sites
        block = w[:dim, :dim]
        assert np.max(np.abs(block - dense / prog.lam)) <= 1e-10
        for _ in range(3):
            psi = random_state(rng, prog.n_sites)
            anc = np.zeros(2**prog.a_total)
            anc[0] = 1.0
            full = w @ np.kron(anc, psi)
            dense_p = float(np.linalg.norm(full[:dim]) ** 2)
            assert success_probability(prog, psi) == pytest.approx(
                dense_p, abs=1e-10
            )
    for _ in range(50):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        op = random_pauli_sum(rng, n, k, complex_coeffs=bool(rng.integers(2)))
        cut = int(rng.integers(1, n))
        prog = compile_lcu(compile_bridge(op, cut))
        w = block_encoding_dense(prog)
        dim = 2**n
        assert np.max(np.abs(w[:dim, :dim] - to_dense(op) / prog.lam)) <= 1e-10
        psi = random_state(rng, n)
        anc = np.zeros(2**prog.a_total)
        anc[0] = 1.0
        full = w @ np.kron(anc, psi)
        dense_p = float(np.linalg.norm(full[:dim]) ** 2)
        assert success_probability(prog, psi) == pytest.approx(dense_p, abs=1e-10)
    report(3, "block-encoding identity", started, 30.0)


def test_criterion_4_static_select_invariance(h2_subset):
    started = time.monotonic()
    rng = np.random.default_rng(44)
    for trial in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        op = random_pauli_sum(rng, n, k, complex_coeffs=False)
        cut = int(rng.integers(1, n))
        prog = compile_lcu(compile_bridge(op, cut))
        updated = update_coefficients(
            prog, compile_bridge(rescaled(op, rng), cut)
        )
        assert updated.select_hash == prog.select_hash
        # Selection logic is unchanged; only row phases may move, since
        # they carry the coefficient signs.
        pairs = [(a, b) for a, b, *_ in prep_rows(updated)]
        assert pairs == [(a, b) for a, b, *_ in prep_rows(prog)]
        assert updated.left == prog.left
        assert updated.right == prog.right
        if trial % 5 == 0 and op.n_terms > 1:
            smaller = PauliSum(n, list(op.terms[:-1]))
            with pytest.raises(SupportChanged):
                update_coefficients(prog, compile_bridge(smaller, cut))
    # Full loop on the fixture: sample, optimize, rescale, update.
    res = ground_state_reference(h2_subset)
    samples = sample_strings(res.mps, SamplerConfig(n_samples=200, seed=17))
    pool = curate(samples, h2_subset.n_sites)
    pencil = assemble_pencil(h2_subset, pool.strings, res.mps)
    sol = solve_ritz_dense(pencil)
    assert sol.energies[0] >= res.energy - 1e-10
    prog = compile_lcu(compile_bridge(h2_subset, 2))
    updated = update_coefficients(
        prog, compile_bridge(rescaled(h2_subset, rng), 2)
    )
    assert updated.select_hash == prog.select_hash
    report(4, "static select under coefficient updates", started, 30.0)


def test_criterion_5_perfect_sampling():
    started = time.monotonic()
    rng = np.random.default_rng(55)
    single = [random_state(rng, 1) for _ in range(4)]
    product = single[0]
    for s in single[1:]:
        product = np.kron(product, s)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    bell_extended = np.kron(bell, np.kron(single[0], single[1]))
    random_chi4 = random_state(rng, 4)
    fixtures = {
        "product": product,
        "bell_extended": bell_extended,
        "random_chi4": random_chi4,
    }
    for name, vec in fixtures.items():
        m = right_canonical_mps(vec)
        chain = chain_rule_probs(m)
        dense = exact_probs(vec, 4)
        assert np.max(np.abs(chain - dense)) <= 1e-10, name
        assert abs(dense.sum() - 1.0) <= 1e-10, name
    probs = exact_probs(random_chi4, 4)
    m = right_canonical_mps(random_chi4)
    n = 100_000
    samples = sample_strings(m, SamplerConfig(n_samples=n, seed=515))
    observed = np.bincount(samples[:, 0].astype(np.int64), minlength=256).astype(float)
    expected = n * probs
    # Pool bins whose expectation is too small for the chi-square
    # approximation into one tail bin.
    big = expected >= 5.0
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    keep = exp > 0
    obs, exp = obs[keep], exp[keep]
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    assert stat < scipy.stats.chi2.ppf(0.999, dof)
    report(5, "perfect sampling", started, 60.0)


def test_criterion_6_variational_bound(h2_subset):
    started = time.monotonic()
    rng = np.random.default_rng(66)

    def check_pair(op, strings, state, reference):
        pencil = assemble_pencil(op, strings, state)
        dense_sol = solve_ritz_dense(pencil)
        iter_sol = solve_ritz_lobpcg(pencil, seed=3)
        assert dense_sol.energies[0] >= reference - 1e-10
        scale = max(1.0, abs(dense_sol.energies[0]))
        assert abs(iter_sol.energies[0] - dense_sol.energies[0]) <= 1e-8 * scale
        return dense_sol.energies[0]

    for _ in range(6):
        n = int(rng.integers(2, 5))
        op = random_pauli_sum(rng, n, int(rng.integers(3, 9)))
        res = ground_state_reference(op)
        samples = sample_strings(res.mps, SamplerConfig(n_samples=150, seed=7))
        pool = curate(samples, n)
        check_pair(op, pool.strings, res.mps, res.energy)
    for n in (1, 2):
        op = random_pauli_sum(rng, n, 2 * 4**n // 3)
        res = ground_state_reference(op)
        full_span = tuple(PauliString(n, b) for b in range(1, 4**n))
        energy = check_pair(op, full_span, res.mps, res.energy)
        assert energy == pytest.approx(res.energy, abs=1e-10)
    res = ground_state_reference(h2_subset)
    rows = energy_vs_samples_sweep(h2_subset, res.mps, [10, 50, 200, 800], seed=5)
    energies = [r.energy for r in rows]
    for prev, cur in zip(energies, energies[1:]):
        assert cur <= prev + 1e-12
    for r in rows:
        assert r.energy >= res.energy - 1e-10
    csv = sweep_to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "n_samples,p_pool,energy,reference_energy"
    assert len(lines) == 5
    report(6, "variational bound and monotonicity", started, 60.0)


def test_criterion_7_canonical_forms_and_compression(h2_subset):
    started = time.monotonic()
    rng = np.random.default_rng(77)
    m = build_mpo_qr(h2_subset)
    for center in range(m.n_sites):
        canon = canonicalize(m, center)
        for j in range(m.n_sites):
            if j < center:
                assert is_left_canonical_site(canon.tensors[j], tol=1e-12)
            elif j > center:
                assert is_right_canonical_site(canon.tensors[j], tol=1e-12)
    state = random_state(rng, 4)
    raw = dense_to_mps(state)
    left = canonicalize(raw, raw.n_sites - 1)
    right = canonicalize_mps(raw)
    for j in range(3):
        t = left.tensors[j]
        g = np.einsum("lrp,lsp->rs", t.conj(), t)
        assert np.max(np.abs(g - np.eye(g.shape[0]))) <= 1e-12
    for j in range(1, 4):
        t = right.tensors[j]
        g = np.einsum("lrp,srp->ls", t, t.conj())
        assert np.max(np.abs(g - np.eye(g.shape[0]))) <= 1e-12
    d = compile_bridge(h2_subset, 2)
    matrix = d.bridge.to_matrix()
    sigma = scipy.linalg.svdvals(matrix)
    for rank in (1, 2, 3, 4):
        svd = bridge_svd(d, rank)
        err = np.linalg.norm(matrix - svd.left_factor @ svd.right_factor)
        tail = np.sqrt(np.sum(sigma[rank:] ** 2))
        assert err == pytest.approx(tail, abs=1e-12)
    for max_bond in (1, 2, 3, 4):
        compressed, discarded = compress(build_mpo_qr(h2_subset), max_bond=max_bond)
        gap = np.linalg.norm(mpo_to_dense(compressed) - to_dense(h2_subset))
        assert gap == pytest.approx(np.sqrt(sum(discarded)), abs=1e-9)
    for _ in range(5):
        op = random_pauli_sum(rng, 4, 12)
        compressed, discarded = compress(build_mpo_qr(op), max_bond=2)
        gap = np.linalg.norm(mpo_to_dense(compressed) - to_dense(op))
        assert gap == pytest.approx(np.sqrt(sum(discarded)), abs=1e-9)
    report(7, "canonical forms and compression", started, 30.0)


def test_criterion_8_jordan_wigner():
    started = time.monotonic()
    for n in range(1, 5):
        for p in range(n):
            number = map_hamiltonian([FermionTerm("one_body", (p, p), 1.0)], n)
            expected = {}
            identity = PauliString.from_label("I" * n)
            z_at_p = PauliString.from_label("I" * p + "Z" + "I" * (n - p - 1))
            expected[identity] = 0.5
            expected[z_at_p] = -0.5
            assert number.as_dict() == expected
        for p in range(n):
            for q in range(n):
                a_p = to_dense(jordan_wigner_op("annihilate", p, n))
                a_q_dag = to_dense(jordan_wigner_op("create", q, n))
                anti = a_p @ a_q_dag + a_q_dag @ a_p
                target = np.eye(2**n) if p == q else np.zeros((2**n, 2**n))
                assert np.max(np.abs(anti - target)) <= 1e-13
    report(8, "fermion-to-qubit map", started, 10.0)
