"""Block-encoding programs compiled from bridge decompositions.

The pair register is split: ``a_left`` ancilla bits address the left
fragment, ``a_right`` the right, and a pair (alpha, beta) lives at index
``(alpha << a_right) | beta``. Prep loads non-negative amplitudes
``sqrt(|C| / lambda)`` over the active pairs. Select factors as
Phi . Select_L . Select_R for every program: the register selects apply
fragment strings and depend on the dictionaries only, never on a
coefficient, and the coefficient phases form Phi, a diagonal on the pair
register. A program holds the dictionaries and one Prep table with a
row ``(a, b, amp, phase)`` per pair; Select is the table's pair list over
the dictionaries, and the ``lcu-v1`` select rows store Phi. The top-left
ancilla block of Prep^dag Select Prep is then the operator divided by
``lambda``, the one-norm of the bridge.

The select hash covers the fragment dictionaries and the pair list only,
never amplitudes or phases: coefficient-only updates recompile to a
program with the same hash and an unchanged select skeleton.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from paulibridge.bridge import BridgeDecomposition, EmptyOperator, skeleton_hash
from paulibridge.pauli import (
    DENSE_LIMIT,
    SYMBOLS,
    PauliString,
    PauliSum,
    TooLarge,
    apply_string,
    dense_string,
    json_document,
    json_field,
    json_finite,
    json_labels,
    json_text,
    malformed,
)

__all__ = [
    "LcuProgram",
    "SupportChanged",
    "block_encoding_dense",
    "block_error",
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
# a select phase this far off the unit circle makes Select non-unitary and is
# rejected; the listing's 12 significant digits stay well inside it
PHASE_TOL = 1e-9


class SupportChanged(ValueError):
    """The new bridge has a different skeleton; a coefficient update cannot apply."""


@dataclass(frozen=True)
class LcuProgram:
    """A bridge's skeleton (cut and dictionaries) plus its Prep table.

    ``prep`` has one row ``(a, b, amp, phase)`` per pair; everything else
    about Select, the ancilla widths and the select hash follows.
    """

    cut: int
    left: tuple[str, ...]
    right: tuple[str, ...]
    lam: float
    prep: tuple[tuple[int, int, float, complex], ...]

    @property
    def n_sites(self) -> int:
        return self.cut + len(self.right[0])

    @property
    def a_left(self) -> int:
        return (len(self.left) - 1).bit_length()

    @property
    def a_right(self) -> int:
        return (len(self.right) - 1).bit_length()

    @property
    def a_total(self) -> int:
        return self.a_left + self.a_right

    @property
    def select_hash(self) -> str:
        return skeleton_hash(self.cut, self.left, self.right, [(a, b) for a, b, *_ in self.prep])

    def pair_index(self, a: int, b: int) -> int:
        return (a << self.a_right) | b


def compile_lcu(d: BridgeDecomposition) -> LcuProgram:
    """Compile a bridge decomposition into an LCU program."""
    active = sorted(d.bridge.active_pairs)
    if not active:
        raise EmptyOperator("bridge has no active pairs")
    coeffs = np.array([d.bridge.entries[p] for p in active])
    with np.errstate(over="ignore"):
        lam = float(np.sum(np.abs(coeffs)))
    if not math.isfinite(lam):
        raise ValueError(f"the one-norm lambda of the bridge overflows to {lam}")
    amps = np.sqrt(np.abs(coeffs) / lam)
    amps /= np.linalg.norm(amps)
    phases = [complex(1.0 if c.real > 0 else -1.0) if c.imag == 0 else complex(c / abs(c)) for c in coeffs]
    return LcuProgram(
        cut=d.cut,
        left=d.left.labels,
        right=d.right.labels,
        lam=lam,
        prep=tuple((a, b, float(amp), ph) for (a, b), amp, ph in zip(active, amps, phases)),
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


def prep_dense(program: LcuProgram) -> np.ndarray:
    """Householder reflection mapping |0> to the amplitude vector."""
    dim = 2**program.a_total
    u = np.zeros(dim)
    for a, b, amp, _ in program.prep:
        u[program.pair_index(a, b)] = amp
    u /= np.linalg.norm(u)
    v = u - np.eye(dim)[:, 0]
    vnorm2 = float(v @ v)
    if vnorm2 < 1e-30:
        return np.eye(dim)
    return np.eye(dim) - 2.0 * np.outer(v, v) / vnorm2


def _fragment_ops(labels, reg_dim: int, width: int) -> list[np.ndarray]:
    # padding indices of a register act as identity on that half
    ops = [dense_string(PauliString.from_label(s)) for s in labels]
    return ops + [np.eye(2**width, dtype=np.complex128)] * (reg_dim - len(ops))


def _phase_rows(program: LcuProgram) -> np.ndarray:
    # Phi as a column of row scales: each pair's phase; an index Prep does
    # not load gets no amplitude, so its scale is left at 1
    phases = np.ones(2**program.a_total, dtype=np.complex128)
    for a, b, _, ph in program.prep:
        phases[program.pair_index(a, b)] = ph
    return np.repeat(phases, 2**program.n_sites)[:, None]


def _check_dense_size(program: LcuProgram) -> None:
    total = program.a_total + program.n_sites
    if total > DENSE_LIMIT:
        raise TooLarge(f"{total} total qubits exceeds dense limit {DENSE_LIMIT}")


def select_dense(program: LcuProgram) -> np.ndarray:
    """Monolithic select unitary: Phi times one block per register pair."""
    _check_dense_size(program)
    cut, n = program.cut, program.n_sites
    left = _fragment_ops(program.left, 2**program.a_left, cut)
    right = _fragment_ops(program.right, 2**program.a_right, n - cut)
    out = scipy.linalg.block_diag(*(np.kron(p, q) for p in left for q in right))
    out *= _phase_rows(program)
    return out


def select_factorized_dense(program: LcuProgram) -> np.ndarray:
    """Phi . Select_L . Select_R, equal to ``select_dense`` for every program.

    Select_L applies left fragment alpha to the left sites when the left
    register holds alpha, and Select_R does the same on the right; neither
    depends on a coefficient. Every phase sits in Phi, a diagonal on the
    pair register.
    """
    _check_dense_size(program)
    cut, n = program.cut, program.n_sites
    dim_l, dim_r = 2**program.a_left, 2**program.a_right
    left = _fragment_ops(program.left, dim_l, cut)
    right = _fragment_ops(program.right, dim_r, n - cut)
    eye_l, eye_r = np.eye(2**cut), np.eye(2 ** (n - cut))
    # the left register holds the high bits, so each of its blocks
    # repeats over every right index
    sel_l = scipy.linalg.block_diag(*(np.kron(np.eye(dim_r), np.kron(p, eye_r)) for p in left))
    sel_r = np.kron(np.eye(dim_l), scipy.linalg.block_diag(*(np.kron(eye_l, q) for q in right)))
    out = sel_l @ sel_r
    out *= _phase_rows(program)
    return out


def block_encoding_dense(program: LcuProgram) -> np.ndarray:
    """Full walk unitary (Prep^dag x I) Select (Prep x I); a test oracle."""
    _check_dense_size(program)
    dim_sys = 2**program.n_sites
    prep = prep_dense(program)
    sel = select_dense(program)
    lifted = np.kron(prep, np.eye(dim_sys))
    return lifted.conj().T @ sel @ lifted


def encoded_block(program: LcuProgram) -> PauliSum:
    """The encoded operator <0|(Prep^dag x I) Select (Prep x I)|0> as a Pauli sum.

    Prep is the real Householder reflection taking |0> to the normalized
    amplitude vector u, and Select is block diagonal over the pair
    register, so the block is sum_j u_j^2 Phi_j S_j over the table's pairs,
    with S_j the pair's string; a padding half is the identity.
    """
    norm2 = sum(amp * amp for _, _, amp, _ in program.prep)
    cut, n = program.cut, program.n_sites
    left = program.left + ("I" * cut,) * (2**program.a_left - len(program.left))
    right = program.right + ("I" * (n - cut),) * (2**program.a_right - len(program.right))
    return PauliSum(n, [(amp * amp / norm2 * ph, PauliString.from_label(left[a] + right[b]))
                        for a, b, amp, ph in program.prep])


def block_error(program: LcuProgram, op: PauliSum) -> float:
    """The l1 norm of the Pauli coefficients of ``encoded_block(program) - op / lambda``.

    Every Pauli string has spectral norm 1, so this bounds the
    spectral-norm error of the block encoding without densifying.
    """
    if program.n_sites != op.n_sites:
        raise ValueError(f"program acts on {program.n_sites} sites, operator has {op.n_sites}")
    target = [(-t.coeff / program.lam, t.string) for t in op.terms]
    return float(sum(abs(t.coeff) for t in PauliSum(op.n_sites, [*encoded_block(program), *target])))


def success_probability(program: LcuProgram, state: np.ndarray) -> float:
    """Probability of the all-zeros ancilla outcome on a unit input state.

    The block's strings act on the vector one at a time, so the only
    dense object is the state itself.
    """
    vec = np.asarray(state, dtype=np.complex128).ravel()
    dim_sys = 2**program.n_sites
    if vec.size != dim_sys:
        raise ValueError(f"state length {vec.size}, expected {dim_sys}")
    out = sum(t.coeff * apply_string(t.string, vec) for t in encoded_block(program))
    return float(np.vdot(out, out).real)


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
    lines.append("prep " + " ".join(f"{program.pair_index(a, b)}:{amp:.12g}" for a, b, amp, _ in program.prep))
    for a, b, _, ph in program.prep:
        pattern = format(program.pair_index(a, b), f"0{width}b") if width else "-"
        row = f"cpauli {pattern} {program.left[a]}{program.right[b]}"
        if ph != 1:
            row += f" phase={_fmt_phase(ph)}"
        lines.append(row)
    lines.append("unprep")
    return "\n".join(lines) + "\n"


def _gate_number(token: str, line_no: int, parse=float):
    try:
        value = parse(token)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"line {line_no}: expected a finite number, got {token!r}")
    return value


def parse_gates(text: str) -> dict:
    """Parse a gate listing back into its structured pieces.

    Every malformed line raises ValueError naming its 1-based number; a
    prep index and a cpauli row must pair up, as in the program's table.
    """
    lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    first_no, first = lines[0] if lines else (1, "")
    header = re.match(
        rf"#\s*{GATES_FORMAT}\s+n_sites=(\d+)\s+cut=(\d+)\s+a_left=(\d+)"
        r"\s+a_right=(\d+)\s+lambda=(\S+)",
        first,
    )
    if header is None:
        raise ValueError(f"line {first_no}: missing {GATES_FORMAT} header")
    out = {key: int(v) for key, v in zip(("n_sites", "cut", "a_left", "a_right"), header.groups())}
    out.update(lam=_gate_number(header.group(5), first_no), amps={}, rows=[])
    if out["lam"] <= 0:
        raise ValueError(f"line {first_no}: expected a positive lambda, got {header.group(5)!r}")
    if lines[-1][1] != "unprep":
        raise ValueError(f"line {lines[-1][0]}: listing must end with unprep")
    n_sites, width = out["n_sites"], out["a_left"] + out["a_right"]
    prep_line, row_lines = None, {}
    for line_no, line in lines[1:-1]:
        parts = line.split()
        if parts[0] == "prep":
            if prep_line is not None:
                raise ValueError(f"line {line_no}: second prep line, the first is line {prep_line}")
            prep_line = line_no
            for token in parts[1:]:
                idx, _, amp = token.partition(":")
                idx = _gate_number(idx, line_no, int)
                if not 0 <= idx < 2**width:
                    raise ValueError(f"line {line_no}: prep index {idx} not in 0..{2**width - 1}")
                if idx in out["amps"]:
                    raise ValueError(f"line {line_no}: prep index {idx} appears twice")
                out["amps"][idx] = _gate_number(amp, line_no)
        elif parts[0] == "cpauli" and len(parts) in (3, 4):
            _, pattern, label, *annotation = parts
            if not ((len(pattern) == width and set(pattern) <= {"0", "1"}) if width else pattern == "-"):
                raise ValueError(f"line {line_no}: control pattern {pattern!r} is not {width} bits")
            index = int(pattern, 2) if width else 0
            if index in row_lines:
                raise ValueError(f"line {line_no}: control pattern {pattern} repeats line {row_lines[index]}")
            row_lines[index] = line_no
            if len(label) != n_sites or not set(label) <= set(SYMBOLS):
                raise ValueError(f"line {line_no}: expected a {n_sites}-site Pauli label, got {label!r}")
            phase = 1.0 + 0.0j
            if annotation:
                if not annotation[0].startswith("phase="):
                    raise ValueError(f"line {line_no}: bad annotation {annotation[0]!r}")
                token = annotation[0][len("phase=") :]
                phase = _gate_number(token, line_no, _parse_phase)
                if abs(abs(phase) - 1) > PHASE_TOL:
                    raise ValueError(f"line {line_no}: phase {token} is not on the unit circle")
            out["rows"].append((pattern, label, phase))
        else:
            raise ValueError(f"line {line_no}: bad gate row {line!r}")
    for idx in out["amps"]:
        if idx not in row_lines:
            raise ValueError(f"line {prep_line}: prep index {idx} has no cpauli row")
    for idx, line_no in row_lines.items():
        if idx not in out["amps"]:
            raise ValueError(f"line {line_no}: cpauli row has no prep weight")
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
        "prep": [{"a": a, "b": b, "amp": amp} for a, b, amp, _ in program.prep],
        "select": [
            {"a": a, "b": b, "pl": program.left[a], "pr": program.right[b],
             "phase_re": ph.real, "phase_im": ph.imag}
            for a, b, _, ph in program.prep
        ],
        "select_hash": program.select_hash,
    }
    return json_text(doc)


_malformed = partial(malformed, FORMAT_NAME)
_field = partial(json_field, FORMAT_NAME)
_finite = partial(json_finite, FORMAT_NAME)


def _index(row, key: str, size: int, where: str) -> int:
    value = _field(row, key, int, where)
    if not 0 <= value < size:
        raise _malformed(where + key, f"{value} not in 0..{size - 1}")
    return value


def program_from_json(text: str) -> LcuProgram:
    """Read an lcu-v1 document; every malformed field raises ValueError naming it.

    ``prep[k]`` and ``select[k]`` are one row of the program's table, so
    they must name the same pair, and ``select_hash`` must be the hash of
    the dictionaries and pairs read.
    """
    doc = json_document(text, FORMAT_NAME)
    n_sites = _field(doc, "n_sites", int)
    cut = _field(doc, "cut", int)
    if not 1 <= cut < n_sites:
        raise _malformed("cut", f"{cut} not in 1..{n_sites - 1}")
    left = json_labels(FORMAT_NAME, doc, "left", cut)
    right = json_labels(FORMAT_NAME, doc, "right", n_sites - cut)
    lam = _finite(doc, "lambda")
    if lam <= 0:
        raise _malformed("lambda", f"expected a positive one-norm, got {lam!r}")
    for key, labels in (("a_left", left), ("a_right", right)):
        want = (len(labels) - 1).bit_length()
        if _field(doc, key, int) != want:
            raise _malformed(key, f"{len(labels)} fragments need {want} ancillas, got {doc[key]}")
    preps, selects = _field(doc, "prep", list), _field(doc, "select", list)
    if len(preps) != len(selects):
        raise _malformed("select", f"{len(selects)} rows, prep has {len(preps)}")
    rows = {}
    for k, (p_row, s_row) in enumerate(zip(preps, selects)):
        where = f"select[{k}]."
        a = _index(s_row, "a", len(left), where)
        b = _index(s_row, "b", len(right), where)
        if _field(s_row, "pl", str, where) != left[a] or _field(s_row, "pr", str, where) != right[b]:
            raise _malformed(where + "pl/pr", "select row labels disagree with the dictionaries")
        if (a, b) in rows:
            raise _malformed(f"select[{k}]", f"pair ({a}, {b}) appears twice")
        phase = complex(_finite(s_row, "phase_re", where), _finite(s_row, "phase_im", where))
        if abs(abs(phase) - 1) > PHASE_TOL:
            raise _malformed(f"select[{k}]", f"phase {phase} has modulus {abs(phase):.6g}, not 1")
        where = f"prep[{k}]."
        pair = (_index(p_row, "a", len(left), where), _index(p_row, "b", len(right), where))
        if pair != (a, b):
            raise _malformed(f"prep[{k}]", f"pair {pair} is not the pair ({a}, {b}) of select[{k}]")
        rows[pair] = (a, b, _finite(p_row, "amp", where), phase)
    norm = math.sqrt(sum(amp * amp for _, _, amp, _ in rows.values()))
    if abs(norm - 1.0) > PREP_NORM_TOL:
        raise _malformed("prep", f"amplitude norm {norm:.6g} is not 1")
    program = LcuProgram(cut=cut, left=left, right=right, lam=lam, prep=tuple(rows.values()))
    if _field(doc, "select_hash", str) != program.select_hash:
        raise _malformed("select_hash", "is not the hash of the dictionaries and pairs")
    return program
