"""LCU compilation: prep/select structure, block encoding, updates, gates."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from paulibridge.bridge import EmptyOperator, compile as compile_bridge, set_bridge
from paulibridge.lcu import (
    LcuProgram,
    PhaseNotFactorizable,
    SupportChanged,
    block_encoding_dense,
    compile_lcu,
    emit_gates,
    encoded_block,
    parse_gates,
    prep_dense,
    program_from_json,
    program_to_json,
    select_dense,
    select_factorized_dense,
    success_probability,
    update_coefficients,
)
from paulibridge.pauli import PauliString, PauliSum, TooLarge, parse_pauli_sum, to_dense

from conftest import random_state

H2_LAMBDA = 1.212874


def h2_program(h2_subset, cut=2):
    return compile_lcu(compile_bridge(h2_subset, cut))


def assert_block_matches_walk(prog):
    dim = 2**prog.n_sites
    np.testing.assert_allclose(
        encoded_block(prog), block_encoding_dense(prog)[:dim, :dim], rtol=0, atol=1e-12
    )


_coeffs = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -0.25]),
    st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)).filter(lambda c: abs(c) > 1e-3),
)


@st.composite
def small_programs(draw):
    """Compiled programs with n <= 5 and at most four terms (n + a <= 9),
    sometimes with prep weight moved onto a pair outside the select table:
    a padding index or an inactive in-range pair."""
    def words(width, size):
        return st.lists(st.text("IXYZ", min_size=width, max_size=width),
                        min_size=size[0], max_size=size[1], unique=True)

    n = draw(st.integers(2, 5))
    cut = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        # a 2 x 2 grid of fragments closes a phase cycle, which often
        # does not factorise (the XX, XY, YX, -YY case); a third left
        # fragment with one partner leaves an inactive in-range pair
        lw, rw = draw(words(cut, (2, 3))), draw(words(n - cut, (2, 2)))
        labels = [p + q for p in lw[:2] for q in rw] + [p + draw(st.sampled_from(rw)) for p in lw[2:]]
    else:
        labels = draw(words(n, (1, 4)))
    coeffs = draw(st.lists(_coeffs, min_size=len(labels), max_size=len(labels)))
    op = PauliSum(n, [(c, PauliString.from_label(s)) for c, s in zip(coeffs, labels)])
    prog = compile_lcu(compile_bridge(op, cut))
    active = {(a, b) for a, b, _ in prog.select}
    free = [
        (a, b)
        for a in range(2**prog.a_left)
        for b in range(2**prog.a_right)
        if (a, b) not in active
    ]
    if free and draw(st.booleans()):
        a, b = draw(st.sampled_from(free))
        rows = prog.prep + ((a, b, draw(st.floats(0.1, 1.0))),)
        norm = np.sqrt(sum(amp**2 for *_, amp in rows))
        prog = dataclasses.replace(prog, prep=tuple((a, b, amp / norm) for a, b, amp in rows))
    return prog


class TestCompile:
    def test_h2_one_norm(self, h2_subset):
        prog = h2_program(h2_subset)
        assert prog.lam == pytest.approx(H2_LAMBDA, abs=1e-12)

    def test_register_widths(self, h2_subset):
        prog = h2_program(h2_subset, cut=2)
        assert (prog.a_left, prog.a_right) == (3, 3)
        prog1 = h2_program(h2_subset, cut=1)
        assert (prog1.a_left, prog1.a_right) == (2, 3)

    def test_prep_amplitudes(self, h2_subset):
        prog = h2_program(h2_subset)
        amps = np.array([amp for _, _, amp in prog.prep])
        assert np.all(amps > 0)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)
        d = compile_bridge(h2_subset, 2)
        for (a, b, amp) in prog.prep:
            coeff = d.bridge.entries[(a, b)]
            assert amp**2 == pytest.approx(abs(coeff) / prog.lam, abs=1e-12)

    def test_select_phases_are_signs(self, h2_subset):
        prog = h2_program(h2_subset)
        d = compile_bridge(h2_subset, 2)
        for a, b, ph in prog.select:
            coeff = d.bridge.entries[(a, b)]
            assert ph == (1.0 if coeff.real > 0 else -1.0)

    def test_empty_bridge_raises(self, h2_subset):
        d = compile_bridge(h2_subset, 2)
        zeroed = set_bridge(d, {p: 0.0 for p in d.bridge.entries})
        with pytest.raises(EmptyOperator):
            compile_lcu(zeroed)


class TestBlockEncoding:
    def test_prep_unitary_first_column(self, h2_subset):
        prog = h2_program(h2_subset)
        h = prep_dense(prog)
        np.testing.assert_allclose(h @ h.T, np.eye(h.shape[0]), atol=1e-12)
        u = np.zeros(2**prog.a_total)
        for a, b, amp in prog.prep:
            u[prog.pair_index(a, b)] = amp
        np.testing.assert_allclose(h[:, 0], u, atol=1e-12)

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_block_equals_operator_over_lambda(self, h2_subset, cut):
        prog = h2_program(h2_subset, cut)
        w = block_encoding_dense(prog)
        np.testing.assert_allclose(
            w.conj().T @ w, np.eye(w.shape[0]), atol=1e-12
        )
        np.testing.assert_allclose(
            w[:16, :16], to_dense(h2_subset) / prog.lam, atol=1e-12
        )
        np.testing.assert_allclose(encoded_block(prog), w[:16, :16], rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(small_programs())
    def test_encoded_block_matches_walk_unitary(self, prog):
        assert_block_matches_walk(prog)

    def test_encoded_block_padding_and_unnormalized_prep(self, h2_subset):
        # weight on padding indices (left 6 and 7, right 5) and on an
        # inactive in-range pair, with a norm that is not one: the
        # Householder prep renormalizes it
        prog = h2_program(h2_subset)
        extra = ((6, 5, 0.3), (7, 0, 0.2), (0, 1, 0.25))
        rows = tuple((a, b, 1.004 * amp) for a, b, amp in prog.prep + extra)
        assert_block_matches_walk(dataclasses.replace(prog, prep=rows))

    def test_encoded_block_has_no_ancilla_ceiling(self):
        # 64 left and 64 right fragments: 6 + 12 = 18 qubits in the walk
        left = [p + q + r for p in "IXYZ" for q in "IXYZ" for r in "IXYZ"]
        op = PauliSum(6, [(1.0 + 0.01 * k, PauliString.from_label(s + s[::-1]))
                          for k, s in enumerate(left)])
        prog = compile_lcu(compile_bridge(op, 3))
        assert prog.n_sites + prog.a_total == 18
        with pytest.raises(TooLarge):
            block_encoding_dense(prog)
        np.testing.assert_allclose(
            encoded_block(prog), to_dense(op) / prog.lam, rtol=0, atol=1e-12
        )
        wide = compile_lcu(compile_bridge(PauliSum(13, [(1.0, PauliString.from_label("X" * 13))]), 6))
        with pytest.raises(TooLarge):
            encoded_block(wide)

    def test_success_probability_eigenstate(self, h2_subset):
        prog = h2_program(h2_subset)
        vals, vecs = scipy.linalg.eigh(to_dense(h2_subset))
        p = success_probability(prog, vecs[:, 0])
        assert p == pytest.approx((vals[0] / prog.lam) ** 2, abs=1e-10)

    def test_success_probability_general_state(self, h2_subset):
        rng = np.random.default_rng(8)
        prog = h2_program(h2_subset)
        phi = random_state(rng, 4)
        expected = np.linalg.norm((to_dense(h2_subset) / prog.lam) @ phi) ** 2
        assert success_probability(prog, phi) == pytest.approx(expected, abs=1e-10)

    def test_single_pair_operator(self):
        op = parse_pauli_sum("1.0 XX\n")
        prog = compile_lcu(compile_bridge(op, 1))
        assert (prog.a_left, prog.a_right) == (0, 0)
        w = block_encoding_dense(prog)
        np.testing.assert_allclose(w[:4, :4], to_dense(op), atol=1e-12)
        assert_block_matches_walk(prog)


class TestSelectFactorization:
    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_factorized_matches_monolithic(self, h2_subset, cut):
        prog = h2_program(h2_subset, cut)
        np.testing.assert_allclose(
            select_factorized_dense(prog), select_dense(prog), atol=1e-12
        )

    def test_phase_cycle_not_factorizable(self):
        # sign pattern ++,+- on a 2x2 support has cycle product -1, which
        # no per-fragment assignment can produce
        op = parse_pauli_sum("1.0 XX\n1.0 XY\n1.0 YX\n-1.0 YY\n")
        prog = compile_lcu(compile_bridge(op, 1))
        with pytest.raises(PhaseNotFactorizable):
            select_factorized_dense(prog)
        w = block_encoding_dense(prog)
        np.testing.assert_allclose(
            w[:4, :4], to_dense(op) / prog.lam, atol=1e-12
        )
        assert_block_matches_walk(prog)

    def test_inactive_pair_weight_with_unfactorizable_phases(self):
        # a 3 x 2 grid with one pair missing: prep weight on that pair has
        # no select row and the phase cycle admits no rank-1 split
        op = parse_pauli_sum("1.0 XX\n1.0 XY\n1.0 YX\n-1.0 YY\n0.5 ZX\n")
        prog = compile_lcu(compile_bridge(op, 1))
        [(a, b)] = [
            (a, b) for a in range(len(prog.left)) for b in range(len(prog.right))
            if (a, b) not in {(a, b) for a, b, _ in prog.select}
        ]
        rows = prog.prep + ((a, b, 0.4),)
        norm = np.sqrt(sum(amp**2 for *_, amp in rows))
        moved = dataclasses.replace(prog, prep=tuple((a, b, amp / norm) for a, b, amp in rows))
        with pytest.raises(PhaseNotFactorizable):
            select_factorized_dense(moved)
        assert_block_matches_walk(moved)
        psi = random_state(np.random.default_rng(3), 2)
        walk = block_encoding_dense(moved)[:4, :4]
        assert success_probability(moved, psi) == pytest.approx(np.linalg.norm(walk @ psi) ** 2, abs=1e-12)
        with pytest.raises(ValueError, match=rf"prep\[{len(prog.prep)}\]: pair \({a}, {b}\) has no select row"):
            program_from_json(program_to_json(moved))

    def test_split_is_deterministic(self, h2_subset):
        a = select_factorized_dense(h2_program(h2_subset))
        b = select_factorized_dense(h2_program(h2_subset))
        np.testing.assert_array_equal(a, b)


class TestUpdate:
    def test_coefficient_update_keeps_hash(self, h2_subset):
        d = compile_bridge(h2_subset, 2)
        prog = compile_lcu(d)
        scaled = set_bridge(d, {p: 2.0 * c for p, c in d.bridge.entries.items()})
        updated = update_coefficients(prog, scaled)
        assert updated.select_hash == prog.select_hash
        assert updated.lam == pytest.approx(2.0 * prog.lam, abs=1e-9)
        w = block_encoding_dense(updated)
        np.testing.assert_allclose(
            w[:16, :16], 2.0 * to_dense(h2_subset) / updated.lam, atol=1e-12
        )

    def test_support_growth_rejected(self, h2_subset):
        d = compile_bridge(h2_subset, 2)
        prog = compile_lcu(d)
        entries = dict(d.bridge.entries)
        entries[(0, 1)] = 0.5
        with pytest.raises(SupportChanged):
            update_coefficients(prog, set_bridge(d, entries))

    def test_support_loss_rejected(self, h2_subset):
        d = compile_bridge(h2_subset, 2)
        prog = compile_lcu(d)
        entries = dict(d.bridge.entries)
        first = next(iter(entries))
        entries[first] = 0.0
        with pytest.raises(SupportChanged):
            update_coefficients(prog, set_bridge(d, entries))

    def test_different_operator_rejected(self, h2_subset):
        prog = h2_program(h2_subset)
        other = parse_pauli_sum("1.0 XXXX\n0.5 ZZZZ\n")
        with pytest.raises(SupportChanged):
            update_coefficients(prog, compile_bridge(other, 2))

    def test_hash_ignores_coefficient_values(self, h2_subset):
        d = compile_bridge(h2_subset, 2)
        halved = set_bridge(d, {p: 0.5 * c for p, c in d.bridge.entries.items()})
        assert compile_lcu(d).select_hash == compile_lcu(halved).select_hash


class TestSerialization:
    def test_json_round_trip(self, h2_subset):
        prog = h2_program(h2_subset)
        back = program_from_json(program_to_json(prog))
        assert back == prog

    def test_json_deterministic(self, h2_subset):
        prog = h2_program(h2_subset)
        assert program_to_json(prog) == program_to_json(prog)

    def test_json_fields(self, h2_subset):
        doc = json.loads(program_to_json(h2_program(h2_subset)))
        assert doc["format"] == "lcu-v1"
        assert doc["lambda"] == pytest.approx(H2_LAMBDA, abs=1e-12)
        assert {"a", "b", "amp"} <= set(doc["prep"][0])
        assert {"a", "b", "pl", "pr", "phase_re", "phase_im"} <= set(doc["select"][0])

    def test_tampered_labels_rejected(self, h2_subset):
        doc = json.loads(program_to_json(h2_program(h2_subset)))
        doc["select"][0]["pl"] = "XX"
        with pytest.raises(ValueError):
            program_from_json(json.dumps(doc))

    def test_wrong_format_rejected(self, h2_subset):
        text = program_to_json(h2_program(h2_subset)).replace("lcu-v1", "lcu-v0")
        with pytest.raises(ValueError):
            program_from_json(text)


class TestGates:
    def test_round_trip(self, h2_subset):
        prog = h2_program(h2_subset)
        parsed = parse_gates(emit_gates(prog))
        assert parsed["n_sites"] == 4
        assert parsed["cut"] == 2
        assert parsed["lam"] == pytest.approx(prog.lam, abs=1e-9)
        assert parsed["amps"] == {
            prog.pair_index(a, b): pytest.approx(amp, abs=1e-9)
            for a, b, amp in prog.prep
        }
        assert len(parsed["rows"]) == len(prog.select)
        for (pattern, label, phase), (a, b, ph) in zip(parsed["rows"], prog.select):
            assert int(pattern, 2) == prog.pair_index(a, b)
            assert label == prog.left[a] + prog.right[b]
            assert phase == pytest.approx(ph, abs=1e-9)

    def test_unit_phases_omitted(self, h2_subset):
        text = emit_gates(h2_program(h2_subset))
        positives = [ln for ln in text.splitlines() if " IZZI" in ln]
        assert positives and "phase=" not in positives[0]
        negatives = [ln for ln in text.splitlines() if " IIZI" in ln]
        assert negatives and "phase=-1" in negatives[0]

    def test_listing_shape(self, h2_subset):
        lines = emit_gates(h2_program(h2_subset)).strip().splitlines()
        assert lines[0].startswith("# lcu-gates-v1")
        assert lines[1].startswith("prep ")
        assert lines[-1] == "unprep"
        assert sum(1 for ln in lines if ln.startswith("cpauli ")) == 9

    def test_missing_header_raises(self):
        with pytest.raises(ValueError):
            parse_gates("prep 0:1.0\nunprep\n")

    def test_missing_unprep_raises(self, h2_subset):
        text = emit_gates(h2_program(h2_subset)).replace("unprep\n", "")
        with pytest.raises(ValueError):
            parse_gates(text)
