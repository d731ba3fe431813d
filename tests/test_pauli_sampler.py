"""Sampler correctness: chain rule, distribution, determinism, curation."""

from unittest.mock import patch

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from paulibridge import mps as mps_module, sampler as sampler_module
from paulibridge.mps import (
    Mps,
    canonicalize,
    canonicalize_mps,
    dense_to_mps,
    ground_state_reference,
    string_expectations,
)
from paulibridge.pauli import PauliString, PauliSum, apply_string, pack_strings, unpack_strings
from paulibridge.sampler import (
    GaugeViolation,
    SampledPool,
    SamplerConfig,
    conditional_weights,
    curate,
    pool_from_text,
    pool_to_text,
    sample_strings,
    samples_from_text,
    samples_to_text,
)
from paulibridge.varopt import assemble_pencil, solve_ritz_dense

from conftest import random_state


def exact_probs(vec, n_sites):
    dim = 4**n_sites
    probs = np.empty(dim)
    for b in range(dim):
        ev = np.vdot(vec, apply_string(PauliString(n_sites, b), vec)).real
        probs[b] = ev * ev / 2**n_sites
    return probs


def right_canonical_mps(vec):
    return canonicalize_mps(dense_to_mps(vec))


class TestChainRule:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_weight_products_match_joint(self, seed, n_sites):
        rng = np.random.default_rng(seed)
        vec = random_state(rng, n_sites)
        m = right_canonical_mps(vec)
        probs = exact_probs(vec, n_sites)
        for b in range(4**n_sites):
            codes = PauliString(n_sites, b).codes
            env = np.ones((1, 1), dtype=np.complex128)
            joint = 1.0
            for tensor, code in zip(m.tensors, codes):
                weights, envs = conditional_weights(tensor, env)
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
        weights, _ = conditional_weights(m.tensors[0], env)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights >= 0)


class TestSampling:
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
        np.testing.assert_array_equal(sample_strings(m, cfg), sample_strings(m, cfg))

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
        probs = exact_probs(res.vector, 4)
        assert np.all(probs[samples[:, 0].astype(np.int64)] > 1e-14)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_samples=0, seed=1)


class TestCurate:
    def pack(self, labels):
        return pack_strings([PauliString.from_label(label) for label in labels], len(labels[0]))

    def test_split_and_counts(self):
        samples = self.pack(["XX", "XX", "ZI", "II", "ZZ", "ZZ", "ZZ", "XY"])
        pool = curate(samples, 2)
        assert pool.n_samples == 8
        assert pool.xy == (
            PauliString.from_label("XX"),
            PauliString.from_label("XY"),
        )
        assert pool.iz == (
            PauliString.from_label("ZZ"),
            PauliString.from_label("ZI"),
        )
        assert pool.counts[PauliString.from_label("II")] == 1
        assert PauliString.from_label("II") not in pool.strings

    def test_keep_iz_cap_and_tie_break(self):
        pool = curate(self.pack(["ZI", "IZ", "ZZ", "ZZ", "XX"]), 2, keep_iz=2)
        assert pool.iz == (
            PauliString.from_label("ZZ"),
            PauliString.from_label("IZ"),
        )

    def test_keep_iz_zero_keeps_offdiagonal_only(self):
        pool = curate(self.pack(["ZI", "XX"]), 2, keep_iz=0)
        assert pool.iz == ()
        assert pool.xy == (PauliString.from_label("XX"),)

    def test_negative_keep_iz_raises(self):
        with pytest.raises(ValueError):
            curate(self.pack(["II"]), 2, keep_iz=-1)

    def test_counts_past_one_word(self):
        # 40-site rows that agree on their low word and differ in the high one
        a, b = "X" + "I" * 39, "Z" + "I" * 39
        pool = curate(self.pack([a, b, b, "I" * 40]), 40)
        assert pool.n_samples == 4
        assert pool.xy == (PauliString.from_label(a),)
        assert pool.iz == (PauliString.from_label(b),)
        assert pool.counts[PauliString.from_label(b)] == 2

    def test_groups_are_classified_correctly(self):
        rng = np.random.default_rng(30)
        m = right_canonical_mps(random_state(rng, 3))
        samples = sample_strings(m, SamplerConfig(n_samples=300, seed=2))
        pool = curate(samples, 3, keep_iz=4)
        assert not any(s.is_diagonal for s in pool.xy)
        assert all(s.is_diagonal for s in pool.iz)
        assert len(pool.iz) <= 4


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
        assert back.xy == pool.xy
        assert back.iz == pool.iz
        for s in pool.strings:
            assert back.counts[s] == pool.counts[s]
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
        text = samples_to_text(np.zeros((1, 1), dtype=np.uint64), 2)
        assert text.splitlines()[0] == "# samples-v1 n_sites=2 n_samples=1"

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
        assert [s.label for s in unpack_strings(back, n_sites)] == labels

    def test_thirty_two_sites_round_trip(self):
        samples = np.array([[2**64 - 1], [0], [0x9E3779B97F4A7C15]], dtype=np.uint64)
        back, n_sites = samples_from_text(samples_to_text(samples, 32))
        assert n_sites == 32
        assert np.array_equal(back, samples)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 31, 32, 33, 64, 65]), st.integers(0, 2**32 - 1), st.integers(0, 12))
    def test_round_trip_at_word_edges(self, n_sites, seed, count):
        rng = np.random.default_rng(seed)
        strings = [PauliString.from_codes(rng.integers(0, 4, n_sites)) for _ in range(count)]
        rows = pack_strings(strings, n_sites)
        back, got_sites = samples_from_text(samples_to_text(rows, n_sites, seed=seed))
        assert got_sites == n_sites
        assert back.dtype == np.uint64 and back.shape == rows.shape
        assert np.array_equal(back, rows)


class TestPastOneWord:
    def test_single_column_is_the_string_bits(self):
        # up to 32 sites a row is one word equal to PauliString.bits, the old
        # one-uint64 layout; each sample is redrawn here one site at a time
        rng = np.random.default_rng(40)
        for n_sites in (1, 3, 5):
            m = right_canonical_mps(random_state(rng, n_sites))
            samples = sample_strings(m, SamplerConfig(n_samples=20, seed=n_sites))
            assert samples.shape == (20, 1)
            for i, word in enumerate(samples[:, 0].tolist()):
                uniforms = np.random.Generator(np.random.Philox(key=[n_sites, i])).random(n_sites)
                env, codes = np.ones((1, 1), dtype=np.complex128), []
                for tensor, u in zip(m.tensors, uniforms):
                    weights, envs = conditional_weights(tensor, env)
                    codes.append(min(int(np.sum(np.cumsum(weights) < u)), 3))
                    env = envs[codes[-1]] / np.linalg.norm(envs[codes[-1]])
                assert word == PauliString.from_codes(codes).bits

    def test_product_state_site_frequencies(self):
        # a product state's strings factor over sites: site j draws symbol c
        # with probability <sigma_c>_j^2 / 2, whatever word holds the site
        rng = np.random.default_rng(41)
        n_sites, n = 40, 2000
        sites = [random_state(rng, 1) for _ in range(n_sites)]
        samples = sample_strings(Mps([v.reshape(1, 1, 2) for v in sites]),
                                 SamplerConfig(n_samples=n, seed=41))
        assert samples.shape == (n, 2)
        codes = np.array([s.codes for s in unpack_strings(samples, n_sites)])
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
        terms = [(rng.normal(), PauliString.from_label("I" * j + "ZZ" + "I" * (n_sites - 2 - j)))
                 for j in range(n_sites - 1)]
        terms += [(rng.normal(), PauliString.from_label("I" * j + "X" + "I" * (n_sites - 1 - j)))
                  for j in range(n_sites)]
        op = PauliSum(n_sites, terms)
        bonds = [1] + [2] * (n_sites - 1) + [1]
        raw = Mps([rng.standard_normal((bonds[j], bonds[j + 1], 2))
                   + 1j * rng.standard_normal((bonds[j], bonds[j + 1], 2)) for j in range(n_sites)])
        state = canonicalize_mps(raw)
        state.tensors[0] /= np.linalg.norm(state.tensors[0])
        pool = curate(sample_strings(state, SamplerConfig(n_samples=20, seed=4)), n_sites)
        assert pool.strings
        energy = solve_ritz_dense(assemble_pencil(op, pool.strings, state)).energies[0]
        coeffs = np.array([t.coeff for t in op.terms])
        mean = float((coeffs @ string_expectations(state, pack_strings([t.string for t in op.terms], n_sites))).real)
        assert energy <= mean + 1e-10
