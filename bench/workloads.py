"""Input generators and op chains for the three workloads.

A round is a fixed list of ops; round ``r`` of seed ``s`` draws its
inputs from ``default_rng([s, r])``, so every round compiles operators
the program has not seen before while one seed always gives the same
inputs. Sizes are fixed per workload, only the drawn content varies,
which keeps the cost of a round nearly the same from seed to seed.

An op is one input through the workload's chain. ``Op.run`` is the
timed part (CLI calls through ``paulibridge.cli.main`` or the Python API);
``Op.check`` runs the oracles afterwards, untimed, and returns the
failures plus the counts used for the determinism check and the
size metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# The bundled four-qubit molecular fixture (tests/fixtures/h2_subset.pauli).
H2 = {
    "IIII": -0.098864, "ZIII": 0.171198, "IIZI": -0.222786, "ZZII": 0.168622,
    "YXXY": 0.045322, "XXYY": -0.045322, "ZIZI": 0.120545, "IZZI": 0.165867,
    "IIZZ": 0.174348,
}


class CliFailure(RuntimeError):
    """A CLI call exited with a non-zero code."""


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], tuple[list[str], dict]]


class Session:
    """Calls into the package; every lookup goes through the module attribute."""

    def __init__(self):
        import paulibridge.cli
        import paulibridge.mps
        import paulibridge.pauli
        import paulibridge.sampler
        import paulibridge.varopt

        self.cli_module = paulibridge.cli
        self.pauli = paulibridge.pauli
        self.mps = paulibridge.mps
        self.sampler = paulibridge.sampler
        self.varopt = paulibridge.varopt

    def cli(self, *argv) -> str:
        """Run one subcommand in-process; return its stdout or raise CliFailure."""
        args = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli_module.main(args)
        if rc != 0:
            raise CliFailure(f"{args[0]} exited {rc}: {err.getvalue().strip()[-300:]}")
        return out.getvalue()


def _value(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(key + " "):
            return line[len(key) + 1:]
    raise KeyError(f"{key!r} not in output")


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _write_terms(path: Path, terms: dict) -> dict[str, complex]:
    path.write_text(oracles.format_terms({k: complex(v) for k, v in terms.items()}))
    return oracles.parse_terms(path.read_text())


def random_terms(rng, n: int, count: int) -> dict[str, float]:
    terms: dict[str, float] = {}
    while len(terms) < count:
        terms.setdefault("".join("IXYZ"[c] for c in rng.integers(0, 4, n)), rng.standard_normal())
    return terms


def chain_terms(rng, n: int) -> dict[str, float]:
    """Nearest-neighbour XX/YY/ZZ couplings plus X and Z fields: 5n - 3 terms."""
    terms = {}
    for i in range(n):
        for pair in ("XX", "YY", "ZZ") if i < n - 1 else ():
            terms["I" * i + pair + "I" * (n - i - 2)] = rng.standard_normal()
        for field in "XZ":
            terms["I" * i + field + "I" * (n - i - 1)] = rng.standard_normal()
    return terms


def fermion_doc(rng, n: int, n_two: int) -> dict:
    """Hermitian-closed one-body terms over all mode pairs plus random two-body pairs."""
    terms = []

    def add(kind, idx, c):
        terms.append({"kind": kind, "indices": list(idx), "coeff": [c.real, c.imag]})

    for p in range(n):
        add("one_body", (p, p), complex(rng.standard_normal()))
        for q in range(p + 1, n):
            c = complex(rng.standard_normal(), rng.standard_normal())
            add("one_body", (p, q), c)
            add("one_body", (q, p), c.conjugate())
    for _ in range(n_two):
        p, q, r, s = (int(x) for x in rng.choice(n, 4, replace=False))
        c = complex(rng.standard_normal(), rng.standard_normal())
        add("two_body", (p, q, r, s), c)
        add("two_body", (s, r, q, p), c.conjugate())
    return {"n": n, "terms": terms}


def _latin_pairs(rng) -> list[str]:
    """Four two-site strings whose first symbols differ and whose second symbols differ."""
    return [a + b for a, b in zip(rng.permutation(list("IXYZ")), rng.permutation(list("IXYZ")))]


def battery_terms(rng, n: int) -> dict[str, float]:
    """Operator whose fragment counts, and so ancilla counts, are the same for every draw.

    Heads and tails are four two-site strings with distinct first and
    distinct second symbols. Four sites: 12 of the 16 head-tail pairs, so
    n plus ancillas is 10, 8, 10 at the three cuts. Five sites: four terms
    ``head_i mid_i tail_i``, so it is 9 at every cut.
    """
    heads, tails = _latin_pairs(rng), _latin_pairs(rng)
    if n == 4:
        labels = [heads[p // 4] + tails[p % 4] for p in rng.choice(16, 12, replace=False)]
    else:
        labels = [h + m + t for h, m, t in zip(heads, rng.choice(list("IXYZ"), 4), tails)]
    return {label: rng.standard_normal() for label in labels}


# ---------------------------------------------------------------------------
# compile: jw, compile --cut n/2, mpo, lcu --gates; then coefficient updates

def _compile_op(s: Session, d: Path, tag: str, terms: dict, seed, fermion: dict | None = None) -> Op:
    src = d / f"{tag}.pauli"
    if fermion is None:
        terms = _write_terms(src, terms)
        n = len(next(iter(terms)))
    else:
        (d / f"{tag}.json").write_text(json.dumps(fermion))
        n = fermion["n"]
    outs = [d / f"{tag}.{ext}" for ext in ("bridge.json", "mpo.json", "lcu.json", "gates.txt")]

    def run():
        if fermion is not None:
            s.cli("jw", "--input", d / f"{tag}.json", "--output", src)
        s.cli("compile", "--input", src, "--cut", n // 2, "--output", outs[0])
        s.cli("mpo", "--input", src, "--output", outs[1])
        s.cli("lcu", "--bridge", outs[0], "--output", outs[2], "--gates", outs[3])
        return {}

    def check(_):
        want = oracles.parse_terms(src.read_text()) if fermion is not None else terms
        fails = oracles.check_hermitian(want) if fermion is not None else []
        fails += oracles.check_bridge(outs[0].read_text(), want)
        fails += oracles.check_mpo(outs[1].read_text(), want, np.random.default_rng(seed))
        fails += oracles.check_lcu(outs[2].read_text(), want)
        fails += oracles.check_gates(outs[3].read_text(), len(want))
        prog = json.loads(outs[2].read_text())
        counts = {
            "mpo_bond_sum": sum(json.loads(outs[1].read_text())["bond_dims"][1:-1]),
            "lcu_ancillas": prog["a_left"] + prog["a_right"],
            "manifests": _digest(f"{p}.manifest.json" for p in outs[:3]),
        }
        return fails, counts

    return Op(tag, run, check)


def _update_op(s: Session, d: Path, tag: str, terms: dict) -> Op:
    src = d / f"{tag}.scaled.pauli"
    terms = _write_terms(src, terms)
    n = len(next(iter(terms)))
    bridge, program, out = d / f"{tag}.scaled.bridge.json", d / f"{tag}.lcu.json", d / f"{tag}.scaled.lcu.json"

    def run():
        s.cli("compile", "--input", src, "--cut", n // 2, "--output", bridge)
        s.cli("update", "--program", program, "--bridge", bridge, "--output", out)
        return {}

    def check(_):
        fails = oracles.check_bridge(bridge.read_text(), terms)
        fails += oracles.check_lcu(out.read_text(), terms)
        before = json.loads(program.read_text())["select_hash"]
        after = json.loads(out.read_text())["select_hash"]
        if before != after:
            fails.append("select hash changed on a coefficient-only update")
        return fails, {"manifests": _digest(f"{p}.manifest.json" for p in (bridge, out))}

    return Op(f"{tag}.update", run, check)


def compile_round(s: Session, rng, d: Path, warm: bool = False) -> list[Op]:
    pauli_inputs = {"h2": H2}
    fermion_inputs = {"jw4": (4, 2)}
    if not warm:
        # two inputs each of the mid-sized classes, where op_p50_s falls
        pauli_inputs.update(
            chain24a=chain_terms(rng, 24), chain24b=chain_terms(rng, 24), chain40=chain_terms(rng, 40)
        )
        fermion_inputs = {"jw8a": (8, 30), "jw8b": (8, 30), "jw10": (10, 40), "jw12": (12, 80)}
    ops = [_compile_op(s, d, tag, t, rng.integers(2**32)) for tag, t in pauli_inputs.items()]
    ops += [
        _compile_op(s, d, tag, {}, rng.integers(2**32), fermion=fermion_doc(rng, n, two))
        for tag, (n, two) in fermion_inputs.items()
    ]
    for tag in ("h2",) if warm else ("h2", "chain24a", "chain40"):
        terms = pauli_inputs[tag]
        factors = rng.uniform(0.5, 2.0, len(terms)) * rng.choice([-1.0, 1.0], len(terms))
        ops.append(_update_op(s, d, tag, {k: v * f for (k, v), f in zip(terms.items(), factors)}))
    return ops


# ---------------------------------------------------------------------------
# ritz: ground_state_reference, energy_vs_samples_sweep, LOBPCG on the final pencil

BUDGETS = (3, 6, 12)


def _ritz_op(s: Session, d: Path, tag: str, terms: dict, max_bond: int, seed: int) -> Op:
    """The energy_sweep loop; the final pool goes through CLI ``sample`` and ``curate``."""
    src, state, samples, pool = (d / f"{tag}.{ext}" for ext in ("pauli", "mps.json", "samples.txt", "pool.txt"))
    terms = _write_terms(src, terms)
    n = len(next(iter(terms)))

    def run():
        op = s.pauli.parse_pauli_sum(src.read_text())
        gs = s.mps.ground_state_reference(op, max_bond=max_bond)
        rows = s.varopt.energy_vs_samples_sweep(op, gs.mps, BUDGETS, seed=seed)
        state.write_text(s.mps.mps_to_json(gs.mps))
        s.cli("sample", "--state", state, "--n-samples", BUDGETS[-1], "--seed", seed, "--output", samples)
        s.cli("curate", "--samples", samples, "--output", pool)
        pencil = s.varopt.assemble_pencil(op, s.sampler.pool_from_text(pool.read_text()).strings, gs.mps)
        sol = s.varopt.solve_ritz_lobpcg(pencil, seed=seed)
        return {
            "energies": [r.energy for r in rows],
            "pools": [r.pool_size for r in rows],
            "reference": rows[-1].reference_energy,
            "lobpcg": float(sol.energies[0]),
            "k": pencil.size,
        }

    def check(f):
        fails = oracles.check_samples(samples.read_text(), pool.read_text(), n, BUDGETS[-1])
        ritz_fails, excess = oracles.check_ritz(
            f["energies"], f["pools"], f["lobpcg"], f["k"], terms, f["reference"]
        )
        counts = {
            "pools": f["pools"],
            "k": f["k"],
            "ritz_excess": excess,
            "manifests": _digest(f"{p}.manifest.json" for p in (samples, pool)),
        }
        return fails + ritz_fails, counts

    return Op(tag, run, check)


def ritz_round(s: Session, rng, d: Path, warm: bool = False) -> list[Op]:
    inputs = [("h2", H2, 2)]
    if not warm:
        # term count and bond cap paired so the three random ops cost about the same
        inputs += [(f"r{t}", random_terms(rng, 8, t), bond) for t, bond in ((30, 4), (35, 3), (40, 2))]
    return [_ritz_op(s, d, tag, t, bond, int(rng.integers(2**31))) for tag, t, bond in inputs]


# ---------------------------------------------------------------------------
# verify: dense groundstate and mpo --verify; the verify battery on small operators

def _dense_op(s: Session, d: Path, tag: str, terms: dict, seed) -> Op:
    src, gs, mpo = d / f"{tag}.pauli", d / f"{tag}.gs.json", d / f"{tag}.mpo.json"
    terms = _write_terms(src, terms)

    def run():
        out = s.cli("groundstate", "--input", src, "--output", gs)
        out += s.cli("mpo", "--input", src, "--verify", "--output", mpo)
        return {"stdout": out}

    def check(f):
        fails = oracles.check_ground_state(gs.read_text(), float(_value(f["stdout"], "energy")), terms)
        err = float(_value(f["stdout"], "reconstruction_error"))
        if not err <= 1e-10:
            fails.append(f"mpo --verify reconstruction error {err:.3e}")
        fails += oracles.check_mpo(mpo.read_text(), terms, np.random.default_rng(seed))
        counts = {
            "mpo_bond_sum": sum(json.loads(mpo.read_text())["bond_dims"][1:-1]),
            "manifests": _digest(f"{p}.manifest.json" for p in (gs, mpo)),
        }
        return fails, counts

    return Op(tag, run, check)


def _battery_op(s: Session, d: Path, tag: str, terms: dict) -> Op:
    src = d / f"{tag}.pauli"
    _write_terms(src, terms)

    def run():
        return {"stdout": s.cli("verify", "--input", src)}

    def check(f):
        lines = f["stdout"].splitlines()
        failed = [line for line in lines if not line.endswith(" pass")]
        fails = [f"verify battery failed: {failed[:3]}"] if failed or not lines else []
        return fails, {"battery": hashlib.sha256(f["stdout"].encode()).hexdigest()}

    return Op(tag, run, check)


def verify_round(s: Session, rng, d: Path, warm: bool = False) -> list[Op]:
    if warm:
        # a two-site battery reaches the same code as the h2 one at a tenth of the cost
        return [_dense_op(s, d, "h2dense", H2, 0), _battery_op(s, d, "two", {"XZ": 0.5, "ZX": -0.3, "YY": 0.2})]
    return [
        _dense_op(s, d, "d100", random_terms(rng, 8, 100), rng.integers(2**32)),
        _dense_op(s, d, "d200", random_terms(rng, 8, 200), rng.integers(2**32)),
        _battery_op(s, d, "h2", H2),
        _battery_op(s, d, "b4", battery_terms(rng, 4)),
        _battery_op(s, d, "b5", battery_terms(rng, 5)),
    ]


# Seconds one round took at the seed commit on a 2-core machine. A run
# does round(seconds / ROUND_S) rounds: fixed work, so op counts and
# the ranks behind op_p50_s and op_tail_s do not move with the speed of
# the program or the machine.
ROUND_S = {"compile": 2.3, "ritz": 2.7, "verify": 2.3}

WORKLOADS = {
    "compile": compile_round,
    "ritz": ritz_round,
    "verify": verify_round,
}
