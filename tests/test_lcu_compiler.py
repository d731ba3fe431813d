"""LCU compilation: prep/select structure, block encoding, updates, gates."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from paulibridge.bridge import EmptyOperator, compile as compile_bridge, set_bridge, skeleton_hash
from paulibridge.lcu import (
    LcuProgram,
    SupportChanged,
    block_encoding_dense,
    block_error,
    compile_lcu,
    emit_gates,
    encoded_block,
    prep_dense,
    program_from_json,
    program_to_json,
    select_dense,
    select_factorized_dense,
    success_probability,
    update_coefficients,
)
from paulibridge.pauli import PauliString, PauliSum, TooLarge, dense_string, parse_pauli_sum, to_dense

from conftest import kron_dense, prep_columns, prep_rows, program_state, random_pauli_sum, random_state

H2_LAMBDA = 1.212874


def h2_program(h2_subset, cut=2):
    return compile_lcu(compile_bridge(h2_subset, cut))


def assert_block_matches_walk(prog):
    dim = 2**prog.n_sites
    np.testing.assert_allclose(
        to_dense(encoded_block(prog)), block_encoding_dense(prog)[:dim, :dim], rtol=0, atol=1e-12
    )


_coeffs = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -0.25]),
    st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)).filter(lambda c: abs(c) > 1e-3),
)


@st.composite
def small_programs(draw):
    """Compiled programs with n <= 5 and at most four terms (n + a <= 9),
    sometimes with prep weight moved onto one more row of the table: a
    padding index or an inactive in-range pair, with a drawn phase."""
    def words(width, size):
        return st.lists(st.text("IXYZ", min_size=width, max_size=width),
                        min_size=size[0], max_size=size[1], unique=True)

    n = draw(st.integers(2, 5))
    cut = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        # a 2 x 2 grid of fragments closes a phase cycle, which often has
        # no per-fragment phase split (the XX, XY, YX, -YY case); a third
        # left fragment with one partner leaves an inactive in-range pair
        lw, rw = draw(words(cut, (2, 3))), draw(words(n - cut, (2, 2)))
        labels = [p + q for p in lw[:2] for q in rw] + [p + draw(st.sampled_from(rw)) for p in lw[2:]]
    else:
        labels = draw(words(n, (1, 4)))
    coeffs = draw(st.lists(_coeffs, min_size=len(labels), max_size=len(labels)))
    op = PauliSum(n, [(c, PauliString.from_label(s)) for c, s in zip(coeffs, labels)])
    prog = compile_lcu(compile_bridge(op, cut))
    active = {(a, b) for a, b, *_ in prep_rows(prog)}
    free = [
        (a, b)
        for a in range(2**prog.a_left)
        for b in range(2**prog.a_right)
        if (a, b) not in active
    ]
    if free and draw(st.booleans()):
        a, b = draw(st.sampled_from(free))
        c = complex(draw(_coeffs))
        rows = prep_rows(prog) + ((a, b, draw(st.floats(0.1, 1.0)), c / abs(c)),)
        norm = np.sqrt(sum(amp**2 for _, _, amp, _ in rows))
        prog = dataclasses.replace(prog, columns=prep_columns(tuple((a, b, amp / norm, ph) for a, b, amp, ph in rows)))
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
        amps = np.array([amp for _, _, amp, _ in prep_rows(prog)])
        assert np.all(amps > 0)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)
        d = compile_bridge(h2_subset, 2)
        for a, b, amp, _ in prep_rows(prog):
            coeff = d.bridge.entries[(a, b)]
            assert amp**2 == pytest.approx(abs(coeff) / prog.lam, abs=1e-12)

    def test_select_phases_are_signs(self, h2_subset):
        prog = h2_program(h2_subset)
        d = compile_bridge(h2_subset, 2)
        for a, b, _, ph in prep_rows(prog):
            coeff = d.bridge.entries[(a, b)]
            assert ph == (1.0 if coeff.real > 0 else -1.0)

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_program_is_skeleton_plus_prep_table(self, h2_subset, cut):
        assert [f.name for f in dataclasses.fields(LcuProgram)] == ["cut", "left", "right", "lam", "columns"]
        d = compile_bridge(h2_subset, cut)
        prog = compile_lcu(d)
        assert prog.n_sites == d.n_sites
        assert (prog.a_left, prog.a_right) == ((len(d.left.labels) - 1).bit_length(),
                                               (len(d.right.labels) - 1).bit_length())
        assert [(a, b) for a, b, *_ in prep_rows(prog)] == sorted(d.bridge.active_pairs)
        assert prog.select_hash == skeleton_hash(cut, d.left.labels, d.right.labels, d.bridge.active_pairs)

    def test_overflowing_one_norm_raises(self):
        d = compile_bridge(parse_pauli_sum("1e308 XZ\n1e308 ZZ\n"), 1)
        with pytest.raises(ValueError, match="one-norm lambda of the bridge overflows"):
            compile_lcu(d)

    def test_subnormal_modulus_gets_a_unit_phase(self):
        # 1 / |c| overflows for these c, although c / |c| is finite
        op = parse_pauli_sum("1e-310+1e-310i XZ\n-4e-320+5e-324i ZX\n-0.0-3e-321i XX\n0.5 ZZ\n")
        d = compile_bridge(op, 1)
        prog = compile_lcu(d)
        for a, b, _, ph in prep_rows(prog):
            coeff = d.bridge.entries[(a, b)]
            # both parts scaled by 2**1000, exactly, so |c| is a normal number
            c = complex(math.ldexp(coeff.real, 1000), math.ldexp(coeff.imag, 1000))
            assert ph == pytest.approx(c / abs(c), abs=1e-15)
        assert program_from_json(program_to_json(prog)).lam == prog.lam

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
        for a, b, amp, _ in prep_rows(prog):
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
        np.testing.assert_allclose(to_dense(encoded_block(prog)), w[:16, :16], rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(small_programs())
    def test_encoded_block_matches_walk_unitary(self, prog):
        assert_block_matches_walk(prog)

    def test_encoded_block_padding_and_unnormalized_prep(self, h2_subset):
        # rows on padding indices (left 6 and 7, right 5) and on an
        # inactive in-range pair, with a norm that is not one: the
        # Householder prep renormalizes it
        prog = h2_program(h2_subset)
        extra = ((6, 5, 0.3, 1j), (7, 0, 0.2, -1.0 + 0j), (0, 1, 0.25, np.exp(0.4j)))
        rows = tuple((a, b, 1.004 * amp, ph) for a, b, amp, ph in prep_rows(prog) + extra)
        assert_block_matches_walk(dataclasses.replace(prog, columns=prep_columns(rows)))

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
            to_dense(encoded_block(prog)), to_dense(op) / prog.lam, rtol=0, atol=1e-12
        )
        # the block is a Pauli sum: only densifying it meets the matrix limit
        wide_op = PauliSum(13, [(1.0, PauliString.from_label("X" * 13))])
        wide = compile_lcu(compile_bridge(wide_op, 6))
        assert encoded_block(wide) == wide_op
        with pytest.raises(TooLarge):
            to_dense(encoded_block(wide))

    @settings(max_examples=40, deadline=None)
    @given(small_programs(), st.data())
    def test_block_error_is_pauli_l1_distance(self, prog, data):
        n, dim = prog.n_sites, 2**prog.n_sites
        # the encoded operator with terms rescaled or dropped, plus one drawn string
        terms = [(prog.lam * t.coeff * data.draw(st.sampled_from([1.0, 1.0, 0.9, 0.0])), t.string)
                 for t in encoded_block(prog)]
        extra = PauliString.from_label(data.draw(st.text("IXYZ", min_size=n, max_size=n)))
        op = PauliSum(n, terms + [(data.draw(_coeffs), extra)])
        # brute force: Pauli coefficients Tr(P^dag D) / 2^n of the dense
        # difference to the walk unitary's block
        diff = block_encoding_dense(prog)[:dim, :dim] - to_dense(op) / prog.lam
        brute = sum(abs(np.vdot(dense_string(PauliString(n, bits)), diff)) / dim for bits in range(4**n))
        err = block_error(prog, op)
        assert err == pytest.approx(brute, rel=0, abs=1e-12)
        assert err >= np.max(np.abs(diff)) - 1e-15

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

    @settings(max_examples=40, deadline=None)
    @given(small_programs(), st.integers(0, 2**32 - 1))
    def test_success_probability_matches_kronecker_block(self, prog, seed):
        psi = random_state(np.random.default_rng(seed), prog.n_sites)
        want = np.linalg.norm(kron_dense(encoded_block(prog)) @ psi) ** 2
        assert success_probability(prog, psi) == pytest.approx(want, rel=0, abs=1e-12)

    def test_success_probability_past_matrix_limit(self):
        # 14 sites: a diagonal operator has each basis state |b> as an
        # eigenstate, with energy E = sum_j c_j (-1)^(parity of b on j's Z sites)
        rng = np.random.default_rng(5)
        words = {"".join(rng.choice(["I", "Z"], 14)) for _ in range(20)}
        op = PauliSum(14, [(rng.standard_normal(), PauliString.from_label(w)) for w in sorted(words)])
        prog = compile_lcu(compile_bridge(op, 7))
        b = 0b10110011100101
        state = np.zeros(2**14)
        state[b] = 1.0
        # a label read as binary with Z = 1 is its Z-site mask, site 0 the top bit
        z_masks = [int(t.string.label.replace("I", "0").replace("Z", "1"), 2) for t in op]
        energy = sum(t.coeff.real * (-1) ** (b & z).bit_count() for t, z in zip(op, z_masks))
        assert success_probability(prog, state) == pytest.approx((energy / prog.lam) ** 2, abs=1e-12)

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

    @settings(max_examples=60, deadline=None)
    @given(small_programs())
    def test_factorized_matches_monolithic_on_random_programs(self, prog):
        np.testing.assert_allclose(
            select_factorized_dense(prog), select_dense(prog), rtol=0, atol=1e-12
        )

    def test_phase_cycle_not_factorizable(self):
        # sign pattern ++,+- on a 2x2 support has cycle product -1, which
        # no per-fragment phase assignment can produce; the pair-register
        # diagonal still carries it, so the factorized select holds
        op = parse_pauli_sum("1.0 XX\n1.0 XY\n1.0 YX\n-1.0 YY\n")
        prog = compile_lcu(compile_bridge(op, 1))
        np.testing.assert_allclose(
            select_factorized_dense(prog), select_dense(prog), rtol=0, atol=1e-12
        )
        w = block_encoding_dense(prog)
        np.testing.assert_allclose(
            w[:4, :4], to_dense(op) / prog.lam, atol=1e-12
        )
        assert_block_matches_walk(prog)

    def test_inactive_pair_weight_with_unfactorizable_phases(self):
        # a 3 x 2 grid with one pair missing: a row on that pair carries
        # its own phase, and the phase cycle admits no per-fragment split;
        # the factorized select still holds
        op = parse_pauli_sum("1.0 XX\n1.0 XY\n1.0 YX\n-1.0 YY\n0.5 ZX\n")
        prog = compile_lcu(compile_bridge(op, 1))
        [(a, b)] = [
            (a, b) for a in range(len(prog.left)) for b in range(len(prog.right))
            if (a, b) not in {(a, b) for a, b, *_ in prep_rows(prog)}
        ]
        rows = prep_rows(prog) + ((a, b, 0.4, -1j),)
        norm = np.sqrt(sum(amp**2 for _, _, amp, _ in rows))
        moved = dataclasses.replace(prog, columns=prep_columns(tuple((a, b, amp / norm, ph) for a, b, amp, ph in rows)))
        np.testing.assert_allclose(
            select_factorized_dense(moved), select_dense(moved), rtol=0, atol=1e-12
        )
        assert_block_matches_walk(moved)
        psi = random_state(np.random.default_rng(3), 2)
        walk = block_encoding_dense(moved)[:4, :4]
        assert success_probability(moved, psi) == pytest.approx(np.linalg.norm(walk @ psi) ** 2, abs=1e-12)
        # the new row moves the select hash; the reader refuses the table
        # without the row's select half, and the old program's hash
        doc = json.loads(program_to_json(moved))
        assert program_state(program_from_json(json.dumps(doc))) == program_state(moved)
        assert doc["select_hash"] != prog.select_hash
        short = {**doc, "select": doc["select"][:-1]}
        with pytest.raises(ValueError, match=rf"^lcu-v1 field select: {len(rows) - 1} rows, prep has {len(rows)}$"):
            program_from_json(json.dumps(short))
        with pytest.raises(ValueError, match="^lcu-v1 field select_hash: "):
            program_from_json(json.dumps({**doc, "select_hash": prog.select_hash}))

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

    def test_coefficient_update_moves_only_pair_register_phases(self, h2_subset):
        # sign flips and complex phases leave Select_L . Select_R alone:
        # the new select is the old one row-scaled by ph_new / ph_old
        d = compile_bridge(h2_subset, 2)
        prog = compile_lcu(d)
        rng = np.random.default_rng(11)
        turns = {p: rng.choice([-1.0, 1j, np.exp(0.7j)]) for p in d.bridge.entries}
        new = update_coefficients(prog, set_bridge(d, {p: c * turns[p] for p, c in d.bridge.entries.items()}))
        assert new.select_hash == prog.select_hash

        def phases(program):
            out = np.ones(2**program.a_total, dtype=np.complex128)
            for a, b, _, ph in prep_rows(program):
                out[program.pair_index(a, b)] = ph
            return np.repeat(out, 2**program.n_sites)[:, None]

        assert not np.allclose(phases(new), phases(prog))
        np.testing.assert_allclose(
            select_dense(new), phases(new) / phases(prog) * select_dense(prog), rtol=0, atol=1e-12
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
        # ... but covers the active-pair set: a cancelled or an added pair moves it
        entries = dict(d.bridge.entries)
        dropped = {**entries, next(iter(entries)): 0.0}
        grown = {**entries, (0, 1): 0.5}
        hashes = {compile_lcu(set_bridge(d, e)).select_hash for e in (entries, dropped, grown)}
        assert len(hashes) == 3


class TestSerialization:
    def test_json_round_trip(self, h2_subset):
        prog = h2_program(h2_subset)
        back = program_from_json(program_to_json(prog))
        assert program_state(back) == program_state(prog)

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


def read_listing(text):
    """An lcu-gates-v1 listing split into header fields, prep amplitudes and row tokens."""
    lines = text.splitlines()
    header = dict(field.split("=") for field in lines[0].split()[2:])
    amps = {int(i): float(amp) for i, _, amp in (t.partition(":") for t in lines[1].split()[1:])}
    rows = [line.split() for line in lines if line.startswith("cpauli ")]
    return header, amps, rows


def pattern(prog, a, b):
    return format(prog.pair_index(a, b), f"0{prog.a_total}b") if prog.a_total else "-"


class TestGates:
    def test_round_trip(self, h2_subset):
        prog = h2_program(h2_subset)
        header, amps, rows = read_listing(emit_gates(prog))
        assert (header["n_sites"], header["cut"]) == ("4", "2")
        assert float(header["lambda"]) == pytest.approx(prog.lam, abs=1e-9)
        assert amps == {
            prog.pair_index(a, b): pytest.approx(amp, abs=1e-9)
            for a, b, amp, _ in prep_rows(prog)
        }
        assert [row[1:3] for row in rows] == [
            [pattern(prog, a, b), prog.left[a] + prog.right[b]] for a, b, *_ in prep_rows(prog)
        ]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_complex_phases_read_back(self, seed):
        # 12 significant digits keep every unit phase inside PHASE_TOL,
        # in the listing and in the JSON
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        prog = compile_lcu(compile_bridge(random_pauli_sum(rng, n, int(rng.integers(1, 12)), True), n // 2))
        _, _, rows = read_listing(emit_gates(prog))
        phases = [complex(row[3].removeprefix("phase=").replace("i", "j")) if len(row) > 3 else 1 for row in rows]
        assert phases == pytest.approx([ph for *_, ph in prep_rows(prog)], abs=1e-11)
        assert program_state(program_from_json(program_to_json(prog))) == program_state(prog)

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

    def test_no_ancillas_pattern_is_dash(self):
        prog = compile_lcu(compile_bridge(parse_pauli_sum("-2.0 XZ\n"), 1))
        header, amps, rows = read_listing(emit_gates(prog))
        assert (header["a_left"], header["a_right"]) == ("0", "0")
        assert amps == {0: pytest.approx(1.0, abs=1e-12)}
        assert rows == [["cpauli", "-", "XZ", "phase=-1"]]
