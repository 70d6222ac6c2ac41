"""Quantum setups and the behaviors they generate.

A setup is a bipartite density matrix plus one measurement set per party;
the Born rule turns it into a behavior on the matching scenario.  The
module also covers the two standard experimental complications: detector
inefficiency, modeled by shrinking every effect and adding an explicit
no-click outcome, and the bookkeeping step of folding no-clicks back into
an ordinary outcome.  States and effects are checked at the tolerances
of ``tolerances``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .scenario import Behavior, Scenario, flat_index, validate_behavior
from .tolerances import DEFAULT_TOL, EFFECT_TOL, EIG_FLOOR, STATE_TOL

DIM_CAP = 4


def _as_square_complex(raw, dim: int, what: str) -> np.ndarray:
    mat = np.array(raw, dtype=complex)
    if mat.shape != (dim, dim):
        raise ValidationError(f"{what} has shape {mat.shape}, expected ({dim}, {dim})")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValidationError(f"{what} contains non-finite entries")
    return mat


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A bipartite density matrix on C^dim_a tensor C^dim_b.

    The matrix is stored row-major over the product basis with the first
    factor slowest, matching the party order used everywhere else.
    """

    dim_a: int
    dim_b: int
    rho: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValidationError("state dimensions must be >= 1")
        rho = _as_square_complex(self.rho, self.dim_a * self.dim_b, "density matrix")
        skew = float(np.abs(rho - rho.conj().T).max())
        if skew > STATE_TOL:
            raise ValidationError(f"density matrix is not hermitian: asymmetry {skew:.3e}")
        trace = complex(np.trace(rho)).real
        if abs(trace - 1.0) > STATE_TOL:
            raise ValidationError(f"density matrix has trace {trace!r}, expected 1")
        low = float(np.linalg.eigvalsh(rho).min())
        if low < EIG_FLOOR:
            raise ValidationError(
                f"density matrix is not positive semidefinite: eigenvalue {low:.3e}"
            )
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """One party's measurements: ``effects[x][a]`` is the operator whose
    Born-rule weight is the probability of outcome ``a`` under input ``x``.
    Each input's effects must be positive and sum to the identity; outcome
    counts may differ between inputs."""

    dim: int
    effects: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("measurement dimension must be >= 1")
        if len(self.effects) < 1:
            raise ValidationError("a measurement set needs at least one input")
        eye = np.eye(self.dim)
        checked = []
        for x, row in enumerate(self.effects):
            if len(row) < 1:
                raise ValidationError(f"input {x} has no outcomes")
            mats = []
            for a, raw in enumerate(row):
                m = _as_square_complex(raw, self.dim, f"effect ({x}, {a})")
                skew = float(np.abs(m - m.conj().T).max())
                if skew > EFFECT_TOL:
                    raise ValidationError(
                        f"effect ({x}, {a}) is not hermitian: asymmetry {skew:.3e}"
                    )
                low = float(np.linalg.eigvalsh(m).min())
                if low < EIG_FLOOR:
                    raise ValidationError(
                        f"effect ({x}, {a}) is not positive semidefinite: eigenvalue {low:.3e}"
                    )
                m.setflags(write=False)
                mats.append(m)
            total = sum(mats)
            gap = float(np.abs(total - eye).max())
            if gap > EFFECT_TOL:
                raise ValidationError(
                    f"input {x}: effects sum to identity only within {gap:.3e}"
                )
            checked.append(tuple(mats))
        object.__setattr__(self, "effects", tuple(checked))

    @property
    def input_count(self) -> int:
        return len(self.effects)

    @property
    def outcome_counts(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.effects)


@dataclass(frozen=True, eq=False)
class BellSetup:
    """A shared state with one measurement set per party."""

    state: QuantumState
    alice: MeasurementSet
    bob: MeasurementSet

    def __post_init__(self):
        if self.alice.dim != self.state.dim_a:
            raise ValidationError(
                f"first party measures dimension {self.alice.dim}, state side is {self.state.dim_a}"
            )
        if self.bob.dim != self.state.dim_b:
            raise ValidationError(
                f"second party measures dimension {self.bob.dim}, state side is {self.state.dim_b}"
            )

    @property
    def scenario(self) -> Scenario:
        return Scenario(
            inputs_per_party=(self.alice.input_count, self.bob.input_count),
            outputs=(self.alice.outcome_counts, self.bob.outcome_counts),
        )


def behavior_from_setup(setup: BellSetup, tol: float = DEFAULT_TOL) -> Behavior:
    """Born-rule behavior of a setup: P(ab|xy) = Tr[rho (A_a^x tensor B_b^y)].

    The result is always no-signalling because each party's effects sum to
    the identity, so remote choices marginalize away.
    """
    da, db = setup.alice.dim, setup.bob.dim
    # rho[(i, k), (j, l)] as rho4[i, k, j, l]; Tr[rho (A tensor B)] sums
    # rho4[i, k, j, l] A[j, i] B[l, k] for every (x, a) row and (y, b) column
    rho4 = setup.state.rho.reshape(da, db, da, db)
    alice = np.array([m for row in setup.alice.effects for m in row])
    bob = np.array([m for row in setup.bob.effects for m in row])
    table = np.einsum("ikjl,rji,slk->rs", rho4, alice, bob).real
    # joint input major, then the outputs, party 0 slowest in both
    split_a = np.cumsum(setup.alice.outcome_counts)[:-1]
    split_b = np.cumsum(setup.bob.outcome_counts)[:-1]
    vec = np.concatenate([block.ravel() for rows in np.split(table, split_a, axis=0)
                          for block in np.split(rows, split_b, axis=1)])
    return validate_behavior(setup.scenario, vec, tol=tol)


def lift_with_efficiency(mset: MeasurementSet, efficiency: float) -> MeasurementSet:
    """Model a detector that fires with the given probability.

    Every effect is scaled by the efficiency and a fresh last outcome
    collects the missing weight, so each input keeps summing to the
    identity.  At efficiency 1 the extra outcome never occurs; at 0 it
    always does.
    """
    if not 0.0 <= efficiency <= 1.0:
        raise ValidationError(f"efficiency {efficiency!r} outside [0, 1]")
    eye = np.eye(mset.dim, dtype=complex)
    rows = tuple(
        tuple(efficiency * m for m in row) + ((1.0 - efficiency) * eye,)
        for row in mset.effects
    )
    return MeasurementSet(dim=mset.dim, effects=rows)


def bin_last_outcome(behavior: Behavior) -> Behavior:
    """Fold each party's last outcome into outcome 0, input by input.

    This is the bookkeeping step of recording a failed detection as an
    ordinary outcome instead of keeping it as its own symbol.  It is a
    deliberate data-processing choice, kept separate from the physics of
    lossy detection itself.
    """
    sc = behavior.scenario
    for p, row in enumerate(sc.outputs):
        for x, n in enumerate(row):
            if n < 2:
                raise ValidationError(
                    f"party {p}, input {x} has a single outcome; nothing to fold"
                )
    target = Scenario(
        inputs_per_party=sc.inputs_per_party,
        outputs=tuple(tuple(n - 1 for n in row) for row in sc.outputs),
    )
    vec = np.zeros(target.dimension)
    for joint in sc.joint_inputs():
        counts = sc.outputs_for(joint)
        for outs in sc.joint_outputs(joint):
            folded = tuple(0 if o == counts[p] - 1 else o for p, o in enumerate(outs))
            vec[flat_index(target, joint, folded)] += behavior.prob(joint, outs)
    return validate_behavior(target, vec, tol=behavior.tol)


def spin_projectors(angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the +1 and -1 eigenstates of the qubit observable
    at the given angle in the x-z plane: cos(angle) Z + sin(angle) X."""
    observable = np.array(
        [
            [np.cos(angle), np.sin(angle)],
            [np.sin(angle), -np.cos(angle)],
        ],
        dtype=complex,
    )
    eye = np.eye(2, dtype=complex)
    return (eye + observable) / 2.0, (eye - observable) / 2.0


def _singlet_state() -> QuantumState:
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return QuantumState(dim_a=2, dim_b=2, rho=np.outer(psi, psi.conj()))


def _chsh_measurements() -> tuple[MeasurementSet, MeasurementSet]:
    # second party takes the minus projector as outcome 0 so the standard
    # CHSH combination of correlators comes out at +2*sqrt(2)
    alice = MeasurementSet(
        dim=2, effects=tuple(spin_projectors(t) for t in (0.0, np.pi / 2.0))
    )
    bob = MeasurementSet(
        dim=2, effects=tuple(spin_projectors(t)[::-1] for t in (np.pi / 4.0, -np.pi / 4.0))
    )
    return alice, bob


def named_setup(name: str, parameter: float | None = None) -> BellSetup:
    """Catalog of reference setups.

    ``singlet_chsh`` is the two-qubit singlet with the measurement angles
    that maximize the CHSH score; ``werner`` mixes the singlet with white
    noise at the given visibility and keeps the same angles;
    ``product_basis`` prepares both qubits in the computational ground
    state and measures it, so every input pair yields outputs (0, 0).
    """
    if name == "singlet_chsh":
        if parameter is not None:
            raise ValidationError("singlet_chsh takes no parameter")
        alice, bob = _chsh_measurements()
        return BellSetup(state=_singlet_state(), alice=alice, bob=bob)
    if name == "werner":
        if parameter is None:
            raise ValidationError("werner needs a visibility parameter")
        if not 0.0 <= parameter <= 1.0:
            raise ValidationError(f"visibility {parameter!r} outside [0, 1]")
        rho = parameter * _singlet_state().rho + (1.0 - parameter) * np.eye(4) / 4.0
        alice, bob = _chsh_measurements()
        return BellSetup(
            state=QuantumState(dim_a=2, dim_b=2, rho=rho), alice=alice, bob=bob
        )
    if name == "product_basis":
        if parameter is not None:
            raise ValidationError("product_basis takes no parameter")
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        z_basis = MeasurementSet(dim=2, effects=(spin_projectors(0.0),) * 2)
        return BellSetup(
            state=QuantumState(dim_a=2, dim_b=2, rho=rho), alice=z_basis, bob=z_basis
        )
    raise ValidationError(f"unknown setup name {name!r}")


def _random_projective(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, ...]:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(raw)
    return tuple(np.outer(q[:, k], q[:, k].conj()) for k in range(dim))


def random_setup(
    seed: int, dims: tuple[int, int] = (2, 2), inputs: tuple[int, int] = (2, 2)
) -> BellSetup:
    """Seeded random pure state with random projective measurements.

    The stream drawn from ``numpy.random.default_rng(seed)`` is, in order:
    the real then imaginary parts of the joint state vector (normalized
    afterwards), then for each input of the first party a complex square
    matrix of standard normals whose QR factorization supplies an
    orthonormal basis (outcome k projects onto column k), then the same
    for the second party.  Local dimensions are capped at 4, and a
    negative seed is refused with ``ValidationError``.
    """
    dim_a, dim_b = dims
    if not (1 <= dim_a <= DIM_CAP and 1 <= dim_b <= DIM_CAP):
        raise ValidationError(f"dims {dims!r} outside [1, {DIM_CAP}]")
    n_a, n_b = inputs
    if n_a < 1 or n_b < 1:
        raise ValidationError(f"inputs {inputs!r} must be >= 1")
    try:
        rng = np.random.default_rng(seed)
    except ValueError:  # numpy's refusal of a negative seed
        raise ValidationError(f"seed {seed!r} must be a nonnegative integer") from None
    d = dim_a * dim_b
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi = psi / np.linalg.norm(psi)
    state = QuantumState(dim_a=dim_a, dim_b=dim_b, rho=np.outer(psi, psi.conj()))
    alice = MeasurementSet(
        dim=dim_a, effects=tuple(_random_projective(rng, dim_a) for _ in range(n_a))
    )
    bob = MeasurementSet(
        dim=dim_b, effects=tuple(_random_projective(rng, dim_b) for _ in range(n_b))
    )
    return BellSetup(state=state, alice=alice, bob=bob)
