"""Block-encoding programs compiled from bridge decompositions.

The pair register is split: ``a_left`` ancilla bits address the left
fragment, ``a_right`` the right, and a pair (alpha, beta) lives at index
``(alpha << a_right) | beta``. Prep loads non-negative amplitudes
``sqrt(|C| / lambda)`` over the active pairs; coefficient phases live in
the select rows. The top-left ancilla block of Prep^dag Select Prep is
then the operator divided by ``lambda``, the one-norm of the bridge.

The structural hash covers the fragment dictionaries and the active pair
set only, never amplitudes or phases: coefficient-only updates recompile
to a program with the same hash and an unchanged select skeleton.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from paulibridge.bridge import BridgeDecomposition, EmptyOperator
from paulibridge.pauli import (
    SYMBOLS,
    PauliString,
    PauliSum,
    TooLarge,
    concat,
    dense_string,
    to_dense,
)

__all__ = [
    "LcuProgram",
    "PhaseNotFactorizable",
    "SupportChanged",
    "block_encoding_dense",
    "compile_lcu",
    "emit_gates",
    "encoded_block",
    "parse_gates",
    "prep_dense",
    "program_from_json",
    "program_to_json",
    "select_dense",
    "select_factorized_dense",
    "success_probability",
    "update_coefficients",
]

FORMAT_NAME = "lcu-v1"
GATES_FORMAT = "lcu-gates-v1"

# a stored prep table further than this from unit norm is rejected as
# malformed; smaller drift is renormalized by the Householder prep and
# left for the block-encoding check to measure
PREP_NORM_TOL = 1e-2


class SupportChanged(ValueError):
    """The new bridge has a different skeleton; a coefficient update cannot apply."""


class PhaseNotFactorizable(ValueError):
    """Active-pair phases do not split into per-fragment factors."""


@dataclass(frozen=True)
class LcuProgram:
    """Compiled prep/select description of one bridge decomposition."""

    n_sites: int
    cut: int
    left: tuple[str, ...]
    right: tuple[str, ...]
    lam: float
    a_left: int
    a_right: int
    prep: tuple[tuple[int, int, float], ...]
    select: tuple[tuple[int, int, complex], ...]
    select_hash: str

    @property
    def a_total(self) -> int:
        return self.a_left + self.a_right

    def pair_index(self, a: int, b: int) -> int:
        return (a << self.a_right) | b


def _skeleton_hash(cut: int, left, right, pairs) -> str:
    parts = [f"cut={cut}", "L"] + list(left) + ["R"] + list(right) + ["P"]
    parts += [f"{a},{b}" for a, b in sorted(pairs)]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def compile_lcu(d: BridgeDecomposition) -> LcuProgram:
    """Compile a bridge decomposition into an LCU program."""
    active = sorted(d.bridge.active_pairs)
    if not active:
        raise EmptyOperator("bridge has no active pairs")
    coeffs = np.array([d.bridge.entries[p] for p in active])
    lam = float(np.sum(np.abs(coeffs)))
    amps = np.sqrt(np.abs(coeffs) / lam)
    amps /= np.linalg.norm(amps)
    phases = [
        complex(1.0 if c.real > 0 else -1.0) if c.imag == 0 else complex(c / abs(c))
        for c in coeffs
    ]
    left = d.left.labels
    right = d.right.labels
    return LcuProgram(
        n_sites=d.n_sites,
        cut=d.cut,
        left=left,
        right=right,
        lam=lam,
        a_left=(len(left) - 1).bit_length(),
        a_right=(len(right) - 1).bit_length(),
        prep=tuple((a, b, float(amp)) for (a, b), amp in zip(active, amps)),
        select=tuple((a, b, complex(ph)) for (a, b), ph in zip(active, phases)),
        select_hash=_skeleton_hash(d.cut, left, right, active),
    )


def update_coefficients(program: LcuProgram, d: BridgeDecomposition) -> LcuProgram:
    """Recompile against new coefficients on the same skeleton.

    Raises SupportChanged when the fragment dictionaries or the active
    pair set differ from the original program, since those alter the
    select structure rather than just prep amplitudes and phases.
    """
    fresh = compile_lcu(d)
    if fresh.select_hash != program.select_hash:
        raise SupportChanged(
            "bridge skeleton differs from the compiled program; recompile instead"
        )
    return fresh


def _phase_split(program: LcuProgram) -> tuple[np.ndarray, np.ndarray]:
    # BFS over the bipartite active-pair graph; roots get phase 1, edges
    # propagate, and any inconsistent back edge means no rank-1 split
    nl, nr = len(program.left), len(program.right)
    phase_of = {(a, b): ph for a, b, ph in program.select}
    adj_l: list[list[int]] = [[] for _ in range(nl)]
    adj_r: list[list[int]] = [[] for _ in range(nr)]
    for a, b, _ in program.select:
        adj_l[a].append(b)
        adj_r[b].append(a)
    phi_l = np.ones(nl, dtype=np.complex128)
    phi_r = np.ones(nr, dtype=np.complex128)
    seen_l = [False] * nl
    seen_r = [False] * nr
    for root in range(nl):
        if seen_l[root] or not adj_l[root]:
            continue
        seen_l[root] = True
        queue = [("L", root)]
        while queue:
            side, node = queue.pop(0)
            if side == "L":
                for b in sorted(adj_l[node]):
                    want = phase_of[(node, b)] / phi_l[node]
                    if seen_r[b]:
                        if abs(phi_r[b] - want) > 1e-10:
                            raise PhaseNotFactorizable(
                                f"phase cycle through pair ({node}, {b}) is inconsistent"
                            )
                    else:
                        phi_r[b] = want
                        seen_r[b] = True
                        queue.append(("R", b))
            else:
                for a in sorted(adj_r[node]):
                    want = phase_of[(a, node)] / phi_r[node]
                    if seen_l[a]:
                        if abs(phi_l[a] - want) > 1e-10:
                            raise PhaseNotFactorizable(
                                f"phase cycle through pair ({a}, {node}) is inconsistent"
                            )
                    else:
                        phi_l[a] = want
                        seen_l[a] = True
                        queue.append(("L", a))
    return phi_l, phi_r


def prep_dense(program: LcuProgram) -> np.ndarray:
    """Householder reflection mapping |0> to the amplitude vector."""
    dim = 2**program.a_total
    u = np.zeros(dim)
    for a, b, amp in program.prep:
        u[program.pair_index(a, b)] = amp
    u /= np.linalg.norm(u)
    v = u - np.eye(dim)[:, 0]
    vnorm2 = float(v @ v)
    if vnorm2 < 1e-30:
        return np.eye(dim)
    return np.eye(dim) - 2.0 * np.outer(v, v) / vnorm2


def _register_ops(labels, reg_dim: int, eye_dim: int) -> list[np.ndarray]:
    ops = [dense_string(PauliString.from_label(s)) for s in labels]
    ops += [np.eye(eye_dim, dtype=np.complex128)] * (reg_dim - len(ops))
    return ops


def _pair_blocks(program: LcuProgram, phases: dict[tuple[int, int], complex]):
    # padding indices of either register act as identity on that half, so
    # the monolithic form matches a per-register select circuit exactly
    cut = program.cut
    left_ops = _register_ops(program.left, 2**program.a_left, 2**cut)
    right_ops = _register_ops(
        program.right, 2**program.a_right, 2 ** (program.n_sites - cut)
    )
    return [
        phases.get((a, b), 1.0 + 0.0j) * np.kron(left_ops[a], right_ops[b])
        for a in range(2**program.a_left)
        for b in range(2**program.a_right)
    ]


def _inrange_phases(program: LcuProgram) -> dict[tuple[int, int], complex]:
    # active pairs keep their stored phases; everything else carries the
    # factorized product when one exists (unity on padding) and 1
    # otherwise, all of it unreachable from prep
    try:
        phi_l, phi_r = _phase_split(program)
        full_l = np.ones(2**program.a_left, dtype=np.complex128)
        full_l[: len(program.left)] = phi_l
        full_r = np.ones(2**program.a_right, dtype=np.complex128)
        full_r[: len(program.right)] = phi_r
        phases = {
            (a, b): complex(full_l[a] * full_r[b])
            for a in range(2**program.a_left)
            for b in range(2**program.a_right)
        }
    except PhaseNotFactorizable:
        phases = {}
    for a, b, ph in program.select:
        phases[(a, b)] = ph
    return phases


def _check_dense_size(program: LcuProgram, dense_limit: int) -> None:
    total = program.a_total + program.n_sites
    if total > dense_limit:
        raise TooLarge(
            f"{total} total qubits exceeds dense limit {dense_limit}"
        )


def select_dense(program: LcuProgram, dense_limit: int = 12) -> np.ndarray:
    """Monolithic select unitary: block diagonal over the pair register."""
    _check_dense_size(program, dense_limit)
    blocks = _pair_blocks(program, _inrange_phases(program))
    dim_sys = 2**program.n_sites
    out = np.zeros((len(blocks) * dim_sys, len(blocks) * dim_sys), dtype=np.complex128)
    for i, blk in enumerate(blocks):
        out[i * dim_sys : (i + 1) * dim_sys, i * dim_sys : (i + 1) * dim_sys] = blk
    return out


def select_factorized_dense(program: LcuProgram, dense_limit: int = 12) -> np.ndarray:
    """Product of per-register selects; needs a rank-1 phase split.

    Raises PhaseNotFactorizable when the active-pair phases cannot be
    written as phi_L(alpha) phi_R(beta), in which case only the
    monolithic form represents the program.
    """
    _check_dense_size(program, dense_limit)
    phi_l, phi_r = _phase_split(program)
    nl, nr = len(program.left), len(program.right)
    dim_l, dim_r = 2**program.a_left, 2**program.a_right
    cut = program.cut
    sys_l, sys_r = 2**cut, 2 ** (program.n_sites - cut)
    sel_l = np.zeros((dim_l * sys_l * sys_r,) * 2, dtype=np.complex128)
    sel_r = np.zeros((dim_r * sys_l * sys_r,) * 2, dtype=np.complex128)
    for a in range(dim_l):
        op = (
            phi_l[a] * np.kron(dense_string(PauliString.from_label(program.left[a])), np.eye(sys_r))
            if a < nl
            else np.eye(sys_l * sys_r, dtype=np.complex128)
        )
        sel_l[a * sys_l * sys_r : (a + 1) * sys_l * sys_r, a * sys_l * sys_r : (a + 1) * sys_l * sys_r] = op
    for b in range(dim_r):
        op = (
            phi_r[b] * np.kron(np.eye(sys_l), dense_string(PauliString.from_label(program.right[b])))
            if b < nr
            else np.eye(sys_l * sys_r, dtype=np.complex128)
        )
        sel_r[b * sys_l * sys_r : (b + 1) * sys_l * sys_r, b * sys_l * sys_r : (b + 1) * sys_l * sys_r] = op
    dim_sys = sys_l * sys_r
    # lift to the full ancilla space; the left register holds the high
    # bits, so its blocks repeat over every right index
    full_l = _lift_left(sel_l, dim_l, dim_r, dim_sys)
    full_r = np.kron(np.eye(dim_l), sel_r)
    return full_l @ full_r


def _lift_left(sel_l: np.ndarray, dim_l: int, dim_r: int, dim_sys: int) -> np.ndarray:
    out = np.zeros((dim_l * dim_r * dim_sys,) * 2, dtype=np.complex128)
    for a in range(dim_l):
        blk = sel_l[a * dim_sys : (a + 1) * dim_sys, a * dim_sys : (a + 1) * dim_sys]
        for b in range(dim_r):
            i = (a * dim_r + b) * dim_sys
            out[i : i + dim_sys, i : i + dim_sys] = blk
    return out


def block_encoding_dense(program: LcuProgram, dense_limit: int = 12) -> np.ndarray:
    """Full walk unitary (Prep^dag x I) Select (Prep x I); a test oracle."""
    _check_dense_size(program, dense_limit)
    dim_sys = 2**program.n_sites
    prep = prep_dense(program)
    sel = select_dense(program, dense_limit)
    lifted = np.kron(prep, np.eye(dim_sys))
    return lifted.conj().T @ sel @ lifted


def encoded_block(program: LcuProgram) -> np.ndarray:
    """The encoded operator <0|(Prep^dag x I) Select (Prep x I)|0>, 2^n x 2^n.

    Prep is the real Householder reflection taking |0> to the normalized
    amplitude vector u, and Select is block diagonal over the pair
    register, so the block is sum_j u_j^2 S_j over the pairs prep loads:
    one weighted Pauli string each, densified by ``to_dense``. Memory is
    O(4^n) whatever the ancilla count; ``to_dense`` refuses only n > 12.
    """
    amps = {(a, b): amp for a, b, amp in program.prep}
    phases = _inrange_phases(program)
    norm2 = sum(amp * amp for amp in amps.values())
    cut, n = program.cut, program.n_sites

    def half(labels, k, width):
        if k < len(labels):
            return PauliString.from_label(labels[k])
        return PauliString.identity(width)

    terms = [
        (
            amp * amp / norm2 * phases.get((a, b), 1.0),
            concat(half(program.left, a, cut), half(program.right, b, n - cut)),
        )
        for (a, b), amp in amps.items()
    ]
    return to_dense(PauliSum(n, terms))


def success_probability(program: LcuProgram, state: np.ndarray) -> float:
    """Probability of the all-zeros ancilla outcome on a unit input state."""
    vec = np.asarray(state, dtype=np.complex128).ravel()
    dim_sys = 2**program.n_sites
    if vec.size != dim_sys:
        raise ValueError(f"state length {vec.size}, expected {dim_sys}")
    return float(np.linalg.norm(encoded_block(program) @ vec) ** 2)


def _fmt_phase(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.12g}"
    if z.real == 0:
        return f"{z.imag:.12g}i"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _parse_phase(token: str) -> complex:
    if token.endswith("i"):
        return complex(token[:-1].replace("i", "j") + "j")
    return complex(float(token))


def emit_gates(program: LcuProgram) -> str:
    """Text listing: prep pseudo-gate, one controlled Pauli per pair.

    The control pattern is the pair index in binary (left register bits
    first); unit phases are omitted from the annotation.
    """
    width = program.a_total
    lines = [
        f"# {GATES_FORMAT} n_sites={program.n_sites} cut={program.cut}"
        f" a_left={program.a_left} a_right={program.a_right}"
        f" lambda={program.lam:.12g}"
    ]
    amp_tokens = " ".join(
        f"{program.pair_index(a, b)}:{amp:.12g}" for a, b, amp in program.prep
    )
    lines.append(f"prep {amp_tokens}")
    for a, b, ph in program.select:
        pattern = format(program.pair_index(a, b), f"0{width}b") if width else "-"
        row = f"cpauli {pattern} {program.left[a]}{program.right[b]}"
        if ph != 1:
            row += f" phase={_fmt_phase(ph)}"
        lines.append(row)
    lines.append("unprep")
    return "\n".join(lines) + "\n"


def parse_gates(text: str) -> dict:
    """Parse a gate listing back into its structured pieces."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = re.match(
        rf"#\s*{GATES_FORMAT}\s+n_sites=(\d+)\s+cut=(\d+)\s+a_left=(\d+)"
        r"\s+a_right=(\d+)\s+lambda=([\d.eE+-]+)",
        lines[0],
    )
    if header is None:
        raise ValueError("missing gate listing header")
    out = {
        "n_sites": int(header.group(1)),
        "cut": int(header.group(2)),
        "a_left": int(header.group(3)),
        "a_right": int(header.group(4)),
        "lam": float(header.group(5)),
        "amps": {},
        "rows": [],
    }
    if not lines[-1].strip() == "unprep":
        raise ValueError("listing must end with unprep")
    for line in lines[1:-1]:
        parts = line.split()
        if parts[0] == "prep":
            for token in parts[1:]:
                idx, amp = token.split(":")
                out["amps"][int(idx)] = float(amp)
        elif parts[0] == "cpauli":
            phase = 1.0 + 0.0j
            if len(parts) == 4:
                if not parts[3].startswith("phase="):
                    raise ValueError(f"bad annotation {parts[3]!r}")
                phase = _parse_phase(parts[3][len("phase=") :])
            elif len(parts) != 3:
                raise ValueError(f"bad gate row {line!r}")
            out["rows"].append((parts[1], parts[2], phase))
        else:
            raise ValueError(f"unknown gate {parts[0]!r}")
    return out


def program_to_json(program: LcuProgram) -> str:
    doc = {
        "format": FORMAT_NAME,
        "n_sites": program.n_sites,
        "cut": program.cut,
        "left": list(program.left),
        "right": list(program.right),
        "lambda": program.lam,
        "a_left": program.a_left,
        "a_right": program.a_right,
        "prep": [
            {"a": a, "b": b, "amp": amp} for a, b, amp in program.prep
        ],
        "select": [
            {
                "a": a,
                "b": b,
                "pl": program.left[a],
                "pr": program.right[b],
                "phase_re": ph.real,
                "phase_im": ph.imag,
            }
            for a, b, ph in program.select
        ],
        "select_hash": program.select_hash,
    }
    return json.dumps(doc, indent=2) + "\n"


def _malformed(where: str, problem: str) -> ValueError:
    return ValueError(f"{FORMAT_NAME} field {where}: {problem}")


def _field(doc, key: str, kind, where: str = ""):
    # bool is an int subclass in Python but never a valid count or value
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise _malformed(where + key, f"expected {kind.__name__}, got {value!r}")
    return value


def _finite(doc, key: str, where: str = "") -> float:
    value = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise _malformed(where + key, f"expected a finite number, got {value!r}")
    return float(value)


def _index(row, key: str, size: int, where: str) -> int:
    value = _field(row, key, int, where)
    if not 0 <= value < size:
        raise _malformed(where + key, f"{value} not in 0..{size - 1}")
    return value


def _labels(doc: dict, key: str, width: int) -> tuple[str, ...]:
    labels = _field(doc, key, list)
    if not labels:
        raise _malformed(key, "empty fragment dictionary")
    for k, label in enumerate(labels):
        if not (isinstance(label, str) and len(label) == width and set(label) <= set(SYMBOLS)):
            raise _malformed(f"{key}[{k}]", f"expected a {width}-site Pauli label, got {label!r}")
    return tuple(labels)


def program_from_json(text: str) -> LcuProgram:
    """Read an lcu-v1 document; every malformed field raises ValueError naming it."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        got = doc.get("format") if isinstance(doc, dict) else doc
        raise ValueError(f"expected format {FORMAT_NAME!r}, got {got!r}")
    n_sites = _field(doc, "n_sites", int)
    cut = _field(doc, "cut", int)
    if not 1 <= cut < n_sites:
        raise _malformed("cut", f"{cut} not in 1..{n_sites - 1}")
    left = _labels(doc, "left", cut)
    right = _labels(doc, "right", n_sites - cut)
    lam = _finite(doc, "lambda")
    if lam <= 0:
        raise _malformed("lambda", f"expected a positive one-norm, got {lam!r}")
    for key, labels in (("a_left", left), ("a_right", right)):
        want = (len(labels) - 1).bit_length()
        if _field(doc, key, int) != want:
            raise _malformed(key, f"{len(labels)} fragments need {want} ancillas, got {doc[key]}")
    select = {}
    for k, row in enumerate(_field(doc, "select", list)):
        where = f"select[{k}]."
        a = _index(row, "a", len(left), where)
        b = _index(row, "b", len(right), where)
        if _field(row, "pl", str, where) != left[a] or _field(row, "pr", str, where) != right[b]:
            raise _malformed(where + "pl/pr", "select row labels disagree with the dictionaries")
        if (a, b) in select:
            raise _malformed(f"select[{k}]", f"pair ({a}, {b}) appears twice")
        select[(a, b)] = complex(_finite(row, "phase_re", where), _finite(row, "phase_im", where))
    prep = {}
    for k, row in enumerate(_field(doc, "prep", list)):
        where = f"prep[{k}]."
        a = _index(row, "a", len(left), where)
        b = _index(row, "b", len(right), where)
        if (a, b) not in select:
            raise _malformed(f"prep[{k}]", f"pair ({a}, {b}) has no select row")
        if (a, b) in prep:
            raise _malformed(f"prep[{k}]", f"pair ({a}, {b}) appears twice")
        prep[(a, b)] = _finite(row, "amp", where)
    norm = math.sqrt(sum(amp * amp for amp in prep.values()))
    if abs(norm - 1.0) > PREP_NORM_TOL:
        raise _malformed("prep", f"amplitude norm {norm:.6g} is not 1")
    return LcuProgram(
        n_sites=n_sites,
        cut=cut,
        left=left,
        right=right,
        lam=lam,
        a_left=doc["a_left"],
        a_right=doc["a_right"],
        prep=tuple((a, b, amp) for (a, b), amp in prep.items()),
        select=tuple((a, b, ph) for (a, b), ph in select.items()),
        select_hash=_field(doc, "select_hash", str),
    )
