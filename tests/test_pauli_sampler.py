"""Sampler correctness: chain rule, distribution, determinism, curation."""

import contextlib
import hashlib
import io
import re
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from paulibridge import cli, mps as mps_module, sampler as sampler_module
from paulibridge.mps import (
    Mps,
    canonicalize,
    canonicalize_mps,
    dense_to_mps,
    ground_state_reference,
    mps_to_json,
    string_expectations,
)
from paulibridge.pauli import SYMBOLS, PauliError, apply_string, label_rows
from paulibridge.sampler import (
    GaugeViolation,
    SamplerConfig,
    conditional_weights,
    curate,
    pool_from_text,
    pool_to_text,
    sample_strings,
    samples_from_text,
    samples_to_text,
)
from paulibridge.varopt import assemble_pencil, energy_vs_samples_sweep, solve_ritz_dense

from conftest import (
    BYTE_IDENTITY,
    count_calls,
    evict_memos,
    int_rows,
    label_int,
    memo_variants,
    mps_to_dense,
    pauli_sum,
    random_pauli_sum,
    random_state,
    real_state,
    row_codes,
    row_labels,
)


def exact_probs(vec, n_sites):
    dim = 4**n_sites
    probs = np.empty(dim)
    for b, row in enumerate(int_rows(range(dim), n_sites)):
        ev = np.vdot(vec, apply_string(row, vec)).real
        probs[b] = ev * ev / 2**n_sites
    return probs


def right_canonical_mps(vec):
    return canonicalize_mps(dense_to_mps(vec))


def chain_state(seed, n_sites, bond):
    """A seeded right-canonical unit MPS with bonds capped at ``bond``, built without a dense vector."""
    rng = np.random.default_rng(seed)
    bonds = [min(bond, 2**j, 2 ** (n_sites - j)) for j in range(n_sites + 1)]
    state = canonicalize_mps(Mps([rng.standard_normal((bonds[j], bonds[j + 1], 2))
                                  + 1j * rng.standard_normal((bonds[j], bonds[j + 1], 2)) for j in range(n_sites)]))
    state.tensors[0] /= np.linalg.norm(state.tensors[0])
    return state


# sha256 of sample_strings(chain_state(n_sites, n_sites, bond), ...).tobytes(): one- and two-word
# rows, counts past one and two CHUNK_STRINGS chunks, and a seed past 2**63 (the uint64-key path)
DRAW_PINS = [
    (8, 4, 1025, 0, "638d034043501de1f5123e97d5085adaa8a41ed6141b8b686800d0936d875880"),
    (8, 4, 2049, 2**63 + 5, "310ee9093fb30d979f0580fc9edc9953027f45aad95cf975c6c16dd48af12682"),
    (33, 3, 1025, 2**63 + 5, "60edf95b965da2248da4ac0f04a83c8118146a39ca1ee1069faf234b726167cc"),
    (33, 3, 2049, 0, "ff9d682d5ffead4e7947f5e7370fd2c10ecaac2dae31e9adb2a7ce8480fd779d"),
    (40, 8, 1025, 0, "8510cf64f9ec866886ec0ac87169b28ff461a1388e941c7b13b1f985933f49e6"),
    (40, 8, 2049, 2**63 + 5, "93c8f66b0a970800c8ebfa2a9831fe302f1de5ae28d86404fa175a6133b853fe"),
]


class TestChainRule:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_weight_products_match_joint(self, seed, n_sites):
        rng = np.random.default_rng(seed)
        vec = random_state(rng, n_sites)
        m = right_canonical_mps(vec)
        probs = exact_probs(vec, n_sites)
        for b, codes in enumerate(row_codes(int_rows(range(4**n_sites), n_sites), n_sites)):
            env = np.ones((1, 1), dtype=np.complex128)
            joint = 1.0
            for tensor, code in zip(m.tensors, codes):
                weights, envs = (x[0] for x in conditional_weights(tensor, env[None]))
                joint *= weights[code]
                env = envs[code]
            assert joint == pytest.approx(probs[b], abs=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_distribution_sums_to_one(self, seed, n_sites):
        rng = np.random.default_rng(seed)
        vec = random_state(rng, n_sites)
        assert exact_probs(vec, n_sites).sum() == pytest.approx(1.0, abs=1e-10)

    def test_conditional_weights_normalized(self):
        rng = np.random.default_rng(9)
        m = right_canonical_mps(random_state(rng, 4))
        env = np.ones((1, 1), dtype=np.complex128)
        weights, _ = (x[0] for x in conditional_weights(m.tensors[0], env[None]))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights >= 0)

    def test_step_peaks_at_twice_its_output(self):
        # the Paulis act on the bra, so the ket half is not copied per code, and
        # the weights read the candidates in place rather than a conjugate copy
        rng = np.random.default_rng(3)
        chi, batch = 32, 256
        tensor = rng.standard_normal((chi, chi, 2)) + 1j * rng.standard_normal((chi, chi, 2))
        envs = rng.standard_normal((batch, chi, chi)) + 1j * rng.standard_normal((batch, chi, chi))
        tracemalloc.start()
        try:
            _, cand = conditional_weights(tensor, envs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cand.shape == (batch, 4, chi, chi)
        assert peak <= 2 * cand.nbytes


class TestSampling:
    @pytest.mark.parametrize("seeds", [(2**63 + 1, 2**63 + 2), (2**64 - 2, 2**64 - 1)])
    def test_seeds_past_2_63_draw_apart(self, seeds):
        # a [seed, index] list key went through float64 from seed 2**63 on, so each pair drew alike
        m = right_canonical_mps(random_state(np.random.default_rng(5), 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = (sample_strings(m, SamplerConfig(n_samples=50, seed=seed)) for seed in seeds)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in 0\.\.2\*\*64-1"):
            SamplerConfig(n_samples=1, seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.9), ("seed", True), ("seed", np.float64(1.0)), ("seed", np.bool_(True)),
        ("n_samples", 2.5), ("n_samples", False),
    ])
    def test_float_or_bool_refused(self, field, value):
        # the Philox key truncates a float or bool: seed=1.9 and seed=True drew seed 1's samples
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            SamplerConfig(**{"n_samples": 20, "seed": 1, field: value})

    def test_numpy_integers_draw_as_python_ints(self):
        m = right_canonical_mps(random_state(np.random.default_rng(5), 4))
        want = sample_strings(m, SamplerConfig(n_samples=20, seed=1))
        for n_samples, seed in [(np.int64(20), np.uint64(1)), (np.int32(20), np.int8(1))]:
            evict_memos()
            np.testing.assert_array_equal(sample_strings(m, SamplerConfig(n_samples=n_samples, seed=seed)), want)

    def test_gauge_violation_raises(self):
        rng = np.random.default_rng(17)
        raw = dense_to_mps(random_state(rng, 4))
        left = canonicalize(raw, raw.n_sites - 1)
        with pytest.raises(GaugeViolation):
            sample_strings(left, SamplerConfig(n_samples=4, seed=0))

    def test_gauge_deviation_above_tolerance_raises(self):
        # site 0 scaled by 1 + 4e-6: |G - I| = 8e-6, far above GAUGE_TOL = 1e-10
        # though within a relative 1e-5 of the identity
        m = right_canonical_mps(random_state(np.random.default_rng(17), 4))
        scaled = Mps([m.tensors[0] * (1 + 4e-6), *m.tensors[1:]])
        with pytest.raises(GaugeViolation, match="site 0 violates the right gauge condition"):
            sample_strings(scaled, SamplerConfig(n_samples=4, seed=0))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(18)
        m = right_canonical_mps(random_state(rng, 3))
        cfg = SamplerConfig(n_samples=64, seed=99)
        first = sample_strings(m, cfg)
        evict_memos()
        np.testing.assert_array_equal(sample_strings(m, cfg), first)

    def test_seed_changes_samples(self):
        rng = np.random.default_rng(19)
        m = right_canonical_mps(random_state(rng, 3))
        a = sample_strings(m, SamplerConfig(n_samples=64, seed=1))
        b = sample_strings(m, SamplerConfig(n_samples=64, seed=2))
        assert not np.array_equal(a, b)

    def test_sample_index_stable_under_batch_and_chunking(self):
        # per-sample streams make sample i independent of how many
        # neighbors were drawn and of the chunk partition
        rng = np.random.default_rng(20)
        m = right_canonical_mps(random_state(rng, 4))
        long = sample_strings(m, SamplerConfig(n_samples=50, seed=7))
        short = sample_strings(m, SamplerConfig(n_samples=20, seed=7))
        np.testing.assert_array_equal(long[:20], short)
        evict_memos()
        with patch.object(mps_module, "CHUNK_STRINGS", 3), \
                patch.object(sampler_module, "_sample_chunk", wraps=sampler_module._sample_chunk) as chunk:
            chunked = sample_strings(m, SamplerConfig(n_samples=50, seed=7))
        assert chunk.call_count == 17
        np.testing.assert_array_equal(long, chunked)

    def test_samples_live_on_support(self):
        rng = np.random.default_rng(21)
        vec = random_state(rng, 3)
        m = right_canonical_mps(vec)
        probs = exact_probs(vec, 3)
        samples = sample_strings(m, SamplerConfig(n_samples=200, seed=5))
        assert samples.shape == (200, 1)
        assert np.all(probs[samples[:, 0].astype(np.int64)] > 1e-14)

    def test_chi_square_goodness_of_fit(self):
        rng = np.random.default_rng(22)
        vec = random_state(rng, 2)
        m = right_canonical_mps(vec)
        probs = exact_probs(vec, 2)
        n = 4000
        samples = sample_strings(m, SamplerConfig(n_samples=n, seed=123))
        observed = np.bincount(samples[:, 0].astype(np.int64), minlength=16)
        support = probs > 1e-12
        assert observed[~support].sum() == 0
        expected = n * probs[support]
        chi2 = float(np.sum((observed[support] - expected) ** 2 / expected))
        dof = int(support.sum()) - 1
        assert chi2 < scipy.stats.chi2.ppf(0.999, dof)

    def test_ground_state_pipeline_smoke(self, h2_subset):
        res = ground_state_reference(h2_subset)
        samples = sample_strings(res.mps, SamplerConfig(n_samples=256, seed=11))
        probs = exact_probs(mps_to_dense(res.mps), 4)
        assert np.all(probs[samples[:, 0].astype(np.int64)] > 1e-14)

    @pytest.mark.parametrize("n_sites, bond, n_samples, seed, digest", DRAW_PINS)
    def test_draw_bytes_are_pinned(self, n_sites, bond, n_samples, seed, digest):
        rows = sample_strings(chain_state(n_sites, n_sites, bond), SamplerConfig(n_samples=n_samples, seed=seed))
        assert rows.shape == (n_samples, 1 if n_sites <= 32 else 2)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_samples=0, seed=1)


def pool_labels(pool):
    return row_labels(pool.strings, pool.n_sites)


class TestMemo:
    """``sample_strings`` behind the one memo rule: the last exact state and config's read-only draw."""

    CONFIG = SamplerConfig(n_samples=40, seed=8)

    @pytest.fixture
    def state(self):
        return real_state(51, 5, 3)

    @staticmethod
    def fresh(m, config):
        """A cold call's draw; the memos are left empty."""
        evict_memos()
        samples = sample_strings(m, config)
        evict_memos()
        return samples

    def test_a_hit_is_bitwise_a_fresh_draw(self, state, monkeypatch):
        want = self.fresh(state, self.CONFIG)
        calls = count_calls(monkeypatch, sampler_module, "_draw")
        miss, hit = sample_strings(state, self.CONFIG), sample_strings(state, self.CONFIG)
        assert len(calls) == 1 and hit is miss
        assert hit.tobytes() == want.tobytes()

    @pytest.mark.parametrize("change", [
        "one ulp", "float64 tensors", "another seed", "another n_samples", "a state in between"])
    def test_changed_content_draws_again(self, state, monkeypatch, change):
        if change == "another seed":
            other = state, SamplerConfig(n_samples=40, seed=9)
        elif change == "another n_samples":
            other = state, SamplerConfig(n_samples=41, seed=8)
        else:
            other = memo_variants(state, 52)[change], self.CONFIG
        sequence = [(state, self.CONFIG), other, (state, self.CONFIG)]
        wants = [self.fresh(*args) for args in sequence]
        calls = count_calls(monkeypatch, sampler_module, "_draw")
        for k, (args, want) in enumerate(zip(sequence, wants), 1):
            assert sample_strings(*args).tobytes() == want.tobytes()
            assert len(calls) == k

    def test_the_samples_refuse_writes(self, state):
        samples = sample_strings(state, self.CONFIG)
        kept = samples.copy()
        with pytest.raises(ValueError, match="read-only"):
            samples[0, 0] = 0
        assert sample_strings(state, self.CONFIG).tobytes() == kept.tobytes()

    def test_a_state_off_the_right_gauge_is_refused_on_every_call(self, state, monkeypatch):
        kept = sample_strings(state, self.CONFIG)
        left = canonicalize(state, state.n_sites - 1)
        calls = count_calls(monkeypatch, sampler_module, "_draw")
        for k in range(1, 4):
            with pytest.raises(GaugeViolation, match="violates the right gauge condition"):
                sample_strings(left, self.CONFIG)
            assert len(calls) == k
        assert sample_strings(state, self.CONFIG) is kept  # a refused state never enters the memo

    def test_the_ritz_sequence_draws_and_contracts_once(self, tmp_path, monkeypatch):
        # the benchmark's ritz op: reference state, sweep, CLI sample and curate with the
        # sweep's seed and largest size, then the pencil of the curated pool
        op = random_pauli_sum(np.random.default_rng(53), 8, 35)
        sizes, seed = (3, 6, 12), 1234
        gs = ground_state_reference(op, max_bond=3)
        state, samples, pool = tmp_path / "state.mps.json", tmp_path / "samples.txt", tmp_path / "pool.txt"
        state.write_text(mps_to_json(gs.mps))
        written = [samples, pool, Path(f"{samples}.manifest.json"), Path(f"{pool}.manifest.json")]

        def chain():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["sample", "--state", str(state), "--n-samples", str(sizes[-1]), "--seed", str(seed),
                                 "--output", str(samples)]) == 0
                assert cli.main(["curate", "--samples", str(samples), "--output", str(pool)]) == 0
            pencil = assemble_pencil(op, pool_from_text(pool.read_text()).strings, gs.mps)
            return {p: p.read_bytes() for p in written}, pencil

        draws = count_calls(monkeypatch, sampler_module, "_sample_chunk")
        halves = count_calls(monkeypatch, mps_module, "_environments")
        energy_vs_samples_sweep(op, gs.mps, sizes, seed=seed)
        warm, warm_pencil = chain()
        assert (len(draws), len(halves)) == (1, 2)  # one draw; one contraction, its left and right halves
        evict_memos()
        cold, cold_pencil = chain()
        assert (len(draws), len(halves)) == (2, 4)
        assert warm == cold
        assert warm_pencil.h.tobytes() == cold_pencil.h.tobytes()
        assert warm_pencil.n.tobytes() == cold_pencil.n.tobytes()


class TestCurate:
    def pack(self, labels):
        return label_rows(labels, len(labels[0]))

    def test_split_and_counts(self):
        # off-diagonal strings first, then diagonal ones; the identity is tallied but not kept
        samples = self.pack(["XX", "XX", "ZI", "II", "ZZ", "ZZ", "ZZ", "XY"])
        pool = curate(samples, 2)
        assert pool.n_samples == 8
        assert pool_labels(pool) == ["XX", "XY", "ZZ", "ZI"]
        assert pool.counts.tolist() == [2, 1, 3, 1]
        assert pool.counts.dtype == np.int64

    def test_keep_iz_cap_and_tie_break(self):
        pool = curate(self.pack(["ZI", "IZ", "ZZ", "ZZ", "XX"]), 2, keep_iz=2)
        assert pool_labels(pool)[1:] == ["ZZ", "IZ"]

    def test_keep_iz_zero_keeps_offdiagonal_only(self):
        pool = curate(self.pack(["ZI", "XX"]), 2, keep_iz=0)
        assert pool_labels(pool) == ["XX"]

    def test_negative_keep_iz_raises(self):
        with pytest.raises(ValueError):
            curate(self.pack(["II"]), 2, keep_iz=-1)

    def test_counts_past_one_word(self):
        # 40-site rows that agree on their low word and differ in the high one
        a, b = "X" + "I" * 39, "Z" + "I" * 39
        pool = curate(self.pack([a, b, b, "I" * 40]), 40)
        assert pool.n_samples == 4
        assert pool_labels(pool) == [a, b]
        assert pool.counts.tolist() == [1, 2]

    def test_groups_are_classified_correctly(self):
        rng = np.random.default_rng(30)
        m = right_canonical_mps(random_state(rng, 3))
        samples = sample_strings(m, SamplerConfig(n_samples=300, seed=2))
        pool = curate(samples, 3, keep_iz=4)
        diagonal = [set(label) <= set("IZ") for label in pool_labels(pool)]
        assert diagonal == sorted(diagonal)  # no off-diagonal string after a diagonal one
        assert sum(diagonal) <= 4

    @pytest.mark.parametrize("rows, n_sites", [
        (np.array([[255]], dtype=np.uint64), 2),  # a symbol on a third site
        (np.array([[0], [2**32]], dtype=np.uint64), 16),
        (np.zeros((1, 2), dtype=np.uint64), 32),  # two words for one word's sites
        (np.zeros((1, 1), dtype=np.uint64), 33),
        (np.zeros(3, dtype=np.uint64), 2),
        (np.zeros((1, 1), dtype=np.int64), 2),
    ])
    def test_rows_that_do_not_fit_raise(self, rows, n_sites):
        with pytest.raises(PauliError, match=f"do not fit {n_sites} sites"):
            curate(rows, n_sites)
        with pytest.raises(PauliError, match=f"do not fit {n_sites} sites"):
            samples_to_text(rows, n_sites, seed=0)


def reference_pool_text(labels, n_sites, keep_iz):
    """curate and pool_to_text one string at a time: rank by (-count, label), then
    the off-diagonal strings, then the diagonal ones but the identity, capped at keep_iz."""
    counts = Counter(labels)
    ranked = sorted(counts, key=lambda s: (-counts[s], s))  # I < X < Y < Z as characters too
    offdiagonal = [s for s in ranked if set(s) - set("IZ")]
    diagonal = [s for s in ranked if not set(s) - set("IZ") and set(s) != {"I"}][:keep_iz]
    lines = [f"# pool-v1 n_sites={n_sites} n_samples={len(labels)}"]
    lines += [f"{counts[s]} {counts[s] / len(labels):.8f} {s}" for s in offdiagonal + diagonal]
    return "\n".join(lines) + "\n"


@st.composite
def sample_batches(draw):
    """Labels of one, two or three words drawn with repeats from a few distinct
    strings, among them diagonal ones and the identity; and a diagonal cap."""
    n = draw(st.sampled_from([1, 2, 5, 31, 32, 33, 40, 63, 64, 65, 90, 96]))
    one_site = st.builds(lambda j, c: "I" * j + c + "I" * (n - 1 - j), st.integers(0, n - 1), st.sampled_from("XYZ"))
    strings = draw(st.lists(st.one_of(st.text("IXYZ", min_size=n, max_size=n), st.text("IZ", min_size=n, max_size=n),
                                      one_site, st.just("I" * n)), min_size=1, max_size=8))
    labels = draw(st.lists(st.sampled_from(strings), max_size=40))
    return n, labels, draw(st.one_of(st.none(), st.integers(0, 4)))


class TestCurateOracle:
    @BYTE_IDENTITY
    @given(sample_batches())
    def test_pool_text_matches_per_string_reference(self, batch):
        n_sites, labels, keep_iz = batch
        pool = curate(label_rows(labels, n_sites), n_sites, keep_iz=keep_iz)
        text = pool_to_text(pool)
        assert text == reference_pool_text(labels, n_sites, keep_iz)
        back = pool_from_text(text)
        assert (back.n_sites, back.n_samples) == (n_sites, len(labels))
        assert back.strings.dtype == np.uint64 and np.array_equal(back.strings, pool.strings)
        assert back.counts.dtype == np.int64 and np.array_equal(back.counts, pool.counts)


class TestPoolText:
    def build_pool(self):
        rng = np.random.default_rng(31)
        m = right_canonical_mps(random_state(rng, 3))
        samples = sample_strings(m, SamplerConfig(n_samples=120, seed=3))
        return curate(samples, 3, keep_iz=3)

    def test_round_trip(self):
        pool = self.build_pool()
        back = pool_from_text(pool_to_text(pool))
        assert back.n_sites == pool.n_sites
        assert back.n_samples == pool.n_samples
        assert np.array_equal(back.strings, pool.strings)
        assert np.array_equal(back.counts, pool.counts)
        assert pool_to_text(back) == pool_to_text(pool)

    def test_text_is_deterministic(self):
        pool = self.build_pool()
        assert pool_to_text(pool) == pool_to_text(pool)

    def test_missing_header_raises(self):
        with pytest.raises(ValueError):
            pool_from_text("3 0.5 XX\n")

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError):
            pool_from_text("# pool-v1 n_sites=2 n_samples=4\n3 XX\n")

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError):
            pool_from_text("# pool-v1 n_sites=2 n_samples=4\n3 0.75 XXX\n")

    @pytest.mark.parametrize("line, message", [
        ("0 0.0 XX", "count must be at least 1"),
        ("-5 0.1 XX", "count must be at least 1"),
        ("9223372036854775808 0.5 XX", r"count must be at least 1 and below 2\*\*63"),  # held as int64
        ("2 nan XX", "frequency"),
        ("2 inf XX", "frequency"),
        ("2 -0.1 XX", "frequency"),
        ("2 1.5 XX", "frequency"),
        ("2 abc XX", "could not convert"),
        ("1 0.25 ZI", "ZI appears twice"),
    ])
    def test_bad_line_is_named(self, line, message):
        text = f"# pool-v1 n_sites=2 n_samples=4\n1 0.25 ZI\n{line}\n"
        with pytest.raises(ValueError, match=f"^line 3: .*{message}"):
            pool_from_text(text)

    @pytest.mark.parametrize("line", ["1_0 0.25 XX", "\u0663 0.25 XX", "2 0.2_5 XX", "2 \u0660.25 XX"])
    def test_numbers_are_ascii_literals(self, line):
        # int() and float() read "1_0" as 10 and the Arabic-Indic digit three as 3
        text = f"# pool-v1 n_sites=2 n_samples=40\n1 0.025 ZI\n{line}\n"
        with pytest.raises(ValueError, match="^line 3: count and frequency must be ASCII numbers"):
            pool_from_text(text)

    @pytest.mark.parametrize("reader, header", [
        (pool_from_text, "# pool-v1 n_sites=\u0662 n_samples=4"),
        (pool_from_text, "# pool-v1 n_sites=2 n_samples=\u0664"),
        (samples_from_text, "# samples-v1 n_sites=\u0662 n_samples=1"),
    ])
    def test_header_digits_are_ascii(self, reader, header):
        with pytest.raises(ValueError, match="^missing (pool|samples)-v1 header line$"):
            reader(f"{header}\n1 0.25 XX\n" if reader is pool_from_text else f"{header}\nXX\n")


    @pytest.mark.parametrize("reader, text", [
        (pool_from_text, "# pool-v1 n_sites=2 n_samples=2x\n1 0.50000000 XX\n"),
        (pool_from_text, "# pool-v1 n_sites=2 n_samples=2.0\n1 0.50000000 XX\n"),
        (samples_from_text, "# samples-v1 n_sites=2 n_samples=2x\nXX\nZZ\n"),
        (samples_from_text, "# samples-v1 n_sites=2 n_samples=2# seed=7\nXX\nZZ\n"),
    ])
    def test_header_fields_end_at_whitespace(self, reader, text):
        # a field's digits are the whole field: n_samples=2x is not read as 2
        with pytest.raises(ValueError, match="^missing (pool|samples)-v1 header line$"):
            reader(text)

    @pytest.mark.parametrize("text, count", [
        ("# samples-v1 n_sites=2 n_samples=2 seed=7\nXX\nZZ\n", 2),
        ("# samples-v1 n_sites=2 n_samples=2\tseed=7\nXX\nZZ\n", 2),
        ("# samples-v1 n_sites=2 n_samples=0", 0),
    ])
    def test_header_field_ends_at_whitespace_or_end_of_text(self, text, count):
        rows, n_sites = samples_from_text(text)
        assert rows.shape == (count, 1) and n_sites == 2

    @pytest.mark.parametrize("freq", ["0.9", "0.29999999", "0.30000001", "0", "1e-400", "0e999999999999"])
    def test_frequency_off_count_is_named(self, freq):
        text = f"# pool-v1 n_sites=2 n_samples=10\n1 0.10000000 ZI\n3 {freq} XX\n"
        with pytest.raises(ValueError, match=f"^line 3: frequency {freq} is not 3/10 to 8 decimals$"):
            pool_from_text(text)

    @pytest.mark.parametrize("freq", ["0.3", "3e-1", "0.30000000", "0.299999995", "0.300000005"])
    def test_frequency_within_half_a_last_decimal_reads(self, freq):
        pool = pool_from_text(f"# pool-v1 n_sites=2 n_samples=10\n3 {freq} XX\n")
        assert pool.counts.tolist() == [3]

    def test_frequency_written_half_a_decimal_off_reads_back(self):
        # 5/512 = 0.009765625 is written 0.00976562, exactly 5e-9 off; as a
        # double the written value is off by a little more
        pool = curate(np.array([[1]] * 5 + [[0]] * 507, dtype=np.uint64), 1)
        text = pool_to_text(pool)
        assert text.splitlines()[1] == "5 0.00976562 X"
        assert abs(float("0.00976562") - 5 / 512) > 5e-9
        assert np.array_equal(pool_from_text(text).counts, pool.counts)

    def test_rows_come_back_off_diagonal_first_in_file_order(self):
        # interleaved, and more than the 16 rows numpy sorts by insertion
        rng = np.random.default_rng(32)
        labels = list(dict.fromkeys("".join(rng.choice(list("IXYZ" if k % 3 else "IZ"), 6)) for k in range(60)))
        text = "# pool-v1 n_sites=6 n_samples=60\n" + "".join(f"1 {1 / 60:.8f} {label}\n" for label in labels)
        diagonal = [set(label) <= set("IZ") for label in labels]
        expected = [l for l, d in zip(labels, diagonal) if not d] + [l for l, d in zip(labels, diagonal) if d]
        assert sum(diagonal) > 16 and len(labels) - sum(diagonal) > 16
        assert pool_labels(pool_from_text(text)) == expected

    def test_counts_above_zero_samples_raise_before_frequencies(self):
        with pytest.raises(ValueError, match="^line 2: counts sum to 1, above header n_samples=0$"):
            pool_from_text("# pool-v1 n_sites=2 n_samples=0\n1 0.5 XX\n")
        # the refusal names the line where the running sum first passes n_samples
        with pytest.raises(ValueError, match="^line 5: counts sum to 3, above header n_samples=2$"):
            pool_from_text("# pool-v1 n_sites=2 n_samples=2\n1 0.5 XX\n\n1 0.5 YY\n1 0.5 ZZ\n")


class TestSamplesText:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        m = right_canonical_mps(random_state(rng, 3))
        samples = sample_strings(m, SamplerConfig(n_samples=60, seed=5))
        text = samples_to_text(samples, 3, seed=5)
        back, n_sites = samples_from_text(text)
        assert n_sites == 3
        assert np.array_equal(back, samples)

    def test_header_records_seed(self):
        text = samples_to_text(np.zeros((1, 1), dtype=np.uint64), 2, seed=9)
        assert text.splitlines()[0] == "# samples-v1 n_sites=2 n_samples=1 seed=9"

    def test_missing_header_raises(self):
        with pytest.raises(ValueError):
            samples_from_text("XX\nXY\n")

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            samples_from_text("# samples-v1 n_sites=2 n_samples=3\nXX\nXY\n")

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError):
            samples_from_text("# samples-v1 n_sites=2 n_samples=1\nXXX\n")

    @pytest.mark.parametrize("n_sites", [0])
    def test_header_sites_beyond_one_word_raise(self, n_sites):
        text = f"# samples-v1 n_sites={n_sites} n_samples=1\n{'X' * n_sites}\n"
        with pytest.raises(ValueError, match="^samples-v1 header field n_sites: expected at least 1, got 0$"):
            samples_from_text(text)

    @pytest.mark.parametrize("n_sites", [33, 40])
    def test_header_sites_beyond_one_word_read(self, n_sites):
        labels = ["X" * n_sites, "Z" + "I" * (n_sites - 1)]
        back, got_sites = samples_from_text(f"# samples-v1 n_sites={n_sites} n_samples=2\n" + "\n".join(labels))
        assert got_sites == n_sites
        assert back.shape == (2, 2)
        assert row_labels(back, n_sites) == labels

    def test_thirty_two_sites_round_trip(self):
        samples = np.array([[2**64 - 1], [0], [0x9E3779B97F4A7C15]], dtype=np.uint64)
        back, n_sites = samples_from_text(samples_to_text(samples, 32, seed=0))
        assert n_sites == 32
        assert np.array_equal(back, samples)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 31, 32, 33, 64, 65]), st.integers(0, 2**32 - 1), st.integers(0, 12))
    def test_round_trip_at_word_edges(self, n_sites, seed, count):
        rng = np.random.default_rng(seed)
        labels = ["".join(SYMBOLS[c] for c in rng.integers(0, 4, n_sites)) for _ in range(count)]
        rows = int_rows(map(label_int, labels), n_sites)
        back, got_sites = samples_from_text(samples_to_text(rows, n_sites, seed=seed))
        assert got_sites == n_sites
        assert back.dtype == np.uint64 and back.shape == rows.shape
        assert np.array_equal(back, rows)


class TestPastOneWord:
    def test_single_column_is_the_string_bits(self):
        # up to 32 sites a row is one word equal to the string's base-4 value,
        # the old one-uint64 layout; each sample is redrawn here one site at a time
        rng = np.random.default_rng(40)
        for n_sites in (1, 3, 5):
            m = right_canonical_mps(random_state(rng, n_sites))
            samples = sample_strings(m, SamplerConfig(n_samples=20, seed=n_sites))
            assert samples.shape == (20, 1)
            for i, word in enumerate(samples[:, 0].tolist()):
                uniforms = np.random.Generator(np.random.Philox(key=[n_sites, i])).random(n_sites)
                env, codes = np.ones((1, 1), dtype=np.complex128), []
                for tensor, u in zip(m.tensors, uniforms):
                    weights, envs = (x[0] for x in conditional_weights(tensor, env[None]))
                    codes.append(min(int(np.sum(np.cumsum(weights) < u)), 3))
                    env = envs[codes[-1]] / np.linalg.norm(envs[codes[-1]])
                assert word == int("".join(map(str, codes)), 4)

    def test_product_state_site_frequencies(self):
        # a product state's strings factor over sites: site j draws symbol c
        # with probability <sigma_c>_j^2 / 2, whatever word holds the site
        rng = np.random.default_rng(41)
        n_sites, n = 40, 2000
        sites = [random_state(rng, 1) for _ in range(n_sites)]
        samples = sample_strings(Mps([v.reshape(1, 1, 2) for v in sites]),
                                 SamplerConfig(n_samples=n, seed=41))
        assert samples.shape == (n, 2)
        codes = row_codes(samples, n_sites)
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        observed = np.array([np.bincount(codes[:, j], minlength=4) for j in range(n_sites)])
        expected = n * np.array([[np.vdot(v, p @ v).real ** 2 / 2 for p in paulis] for v in sites])
        support = expected > 0
        assert observed[~support].sum() == 0
        stat = float(np.sum((observed[support] - expected[support]) ** 2 / expected[support]))
        dof = int(support.sum()) - n_sites
        assert stat < scipy.stats.chi2.ppf(0.999, dof)

    def test_sampled_pool_bounds_a_forty_site_chain(self):
        # sample -> curate -> pencil -> Ritz past one word; the identity is in
        # the pool, so the Ritz energy is at most <psi|H|psi>
        rng = np.random.default_rng(42)
        n_sites = 40
        terms = [(rng.normal(), "I" * j + "ZZ" + "I" * (n_sites - 2 - j)) for j in range(n_sites - 1)]
        terms += [(rng.normal(), "I" * j + "X" + "I" * (n_sites - 1 - j)) for j in range(n_sites)]
        op = pauli_sum(n_sites, terms)
        bonds = [1] + [2] * (n_sites - 1) + [1]
        raw = Mps([rng.standard_normal((bonds[j], bonds[j + 1], 2))
                   + 1j * rng.standard_normal((bonds[j], bonds[j + 1], 2)) for j in range(n_sites)])
        state = canonicalize_mps(raw)
        state.tensors[0] /= np.linalg.norm(state.tensors[0])
        pool = curate(sample_strings(state, SamplerConfig(n_samples=20, seed=4)), n_sites)
        assert len(pool.strings)
        energy = solve_ritz_dense(assemble_pencil(op, pool.strings, state)).energies[0]
        mean = float((op.coeffs @ string_expectations(state, op.rows)).real)
        assert energy <= mean + 1e-10
