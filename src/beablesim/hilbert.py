"""Finite-dimensional complex Hilbert-space kernel.

State vectors, dense linear operators, complete projector families, tensor
products, unitary time evolution, Born probabilities and Lüders collapse.
Everything is ``complex128``, immutable after construction, and validated
against the central tolerance record in :mod:`beablesim.tolerances`.

Time evolution diagonalizes the (Hermitian) generator instead of truncating a
series: the propagator is then unitary to floating-point accuracy, which
matters because conditional-probability denominators downstream amplify any
norm drift.  A generator is diagonalized once per operator, and a
:class:`Projector` is validated once, when it is built.  All reductions use a
fixed summation order, so results are bit-stable across repeated calls.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import tolerances
from .errors import CapacityError, ValidationError, InvariantBreachError, ZeroProbabilityBranchError

__all__ = [
    "StateVector",
    "LinearOperator",
    "Projector",
    "ProjectorFamily",
    "tensor_product",
    "propagate",
    "evolve",
    "evolution_operator",
    "born_probability",
    "luders_collapse",
    "validate_projector",
]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _hermitian_residue(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T)))


class StateVector:
    """A normalized ket on a finite-dimensional complex Hilbert space.

    Parameters
    ----------
    amplitudes : array_like
        One-dimensional complex amplitudes.  The squared amplitudes must sum
        to one within the scalar tolerance; use :meth:`normalized` to build a
        state from an unnormalized vector.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        arr = np.ascontiguousarray(amplitudes, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("state amplitudes must form a nonempty 1-D array")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - 1.0) > tolerances.TOL.scalar:
            raise ValidationError(
                f"state is not normalized: sum of |amplitude|^2 is {norm_sq!r}"
            )
        self.amplitudes = _frozen(arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build a state from any nonzero vector by rescaling it to unit norm."""
        arr = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(arr))
        if norm <= 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(arr / norm)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        """The computational basis ket ``|index>`` in ``dim`` dimensions."""
        if not 0 <= index < dim:
            raise ValidationError(f"basis index {index} out of range for dim {dim}")
        arr = np.zeros(dim, dtype=np.complex128)
        arr[index] = 1.0
        return cls(arr)

    def inner(self, other: "StateVector") -> complex:
        """Inner product ``<self|other>``."""
        if other.dim != self.dim:
            raise ValidationError("inner product requires equal dimensions")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateVector(dim={self.dim})"


class LinearOperator:
    """A dense operator on a finite-dimensional space.

    Operators may be flagged ``hermitian`` and/or ``unitary``; flags are
    verified at construction (max-norm residues against the scalar and
    structural tolerances respectively) so downstream code can rely on them.
    """

    __slots__ = ("matrix", "hermitian", "unitary", "_spectrum")

    def __init__(self, matrix, *, hermitian: bool = False, unitary: bool = False) -> None:
        arr = np.ascontiguousarray(matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValidationError("operator entries must form a square matrix")
        if hermitian:
            residue = _hermitian_residue(arr)
            if residue > tolerances.TOL.scalar:
                raise ValidationError(f"operator flagged Hermitian has residue {residue:.3e}")
        if unitary:
            eye = np.eye(arr.shape[0])
            residue = float(np.max(np.abs(arr @ arr.conj().T - eye)))
            if residue > tolerances.TOL.structural:
                raise ValidationError(f"operator flagged unitary has residue {residue:.3e}")
        self.matrix = _frozen(arr)
        self.hermitian = bool(hermitian)
        self.unitary = bool(unitary)
        self._spectrum = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "LinearOperator":
        return cls(np.eye(dim), hermitian=True, unitary=True)

    @classmethod
    def zero(cls, dim: int) -> "LinearOperator":
        return cls(np.zeros((dim, dim)), hermitian=True)

    @classmethod
    def projector_onto(cls, *states: StateVector) -> "Projector":
        """The orthogonal projector onto the span of the given orthonormal kets."""
        if not states:
            raise ValidationError("projector_onto needs at least one state")
        dim = states[0].dim
        vecs = np.column_stack([s.amplitudes for s in states])
        gram = vecs.conj().T @ vecs
        if float(np.max(np.abs(gram - np.eye(len(states))))) > tolerances.TOL.structural:
            raise ValidationError("projector_onto requires orthonormal states")
        return Projector(vecs @ vecs.conj().T)

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of this Hermitian operator, cached on first use."""
        if self._spectrum is None:
            _require_hermitian(self)
            w, v = np.linalg.eigh(self.matrix)
            self._spectrum = (_frozen(w), _frozen(v))
        return self._spectrum

    def apply(self, state: StateVector) -> np.ndarray:
        """Raw matrix-vector product; the result is generally unnormalized."""
        if state.dim != self.dim:
            raise ValidationError("operator/state dimension mismatch")
        return self.matrix @ state.amplitudes

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        if not isinstance(other, LinearOperator):
            return NotImplemented
        if other.dim != self.dim:
            raise ValidationError("operator dimension mismatch")
        return LinearOperator(self.matrix @ other.matrix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = [name for name in ("hermitian", "unitary") if getattr(self, name)]
        suffix = f", {'|'.join(flags)}" if flags else ""
        return f"LinearOperator(dim={self.dim}{suffix})"


def validate_projector(op: LinearOperator, *, what: str = "operator") -> None:
    """Raise unless ``op`` is an orthogonal projector.

    Checks hermiticity against the scalar tolerance and idempotency
    (``max|P^2 - P|``) against the structural tolerance.
    """
    mat = op.matrix
    herm = _hermitian_residue(mat)
    if herm > tolerances.TOL.scalar:
        raise ValidationError(f"{what} is not Hermitian (residue {herm:.3e})")
    idem = float(np.max(np.abs(mat @ mat - mat)))
    if idem > tolerances.TOL.structural:
        raise ValidationError(f"{what} is not idempotent (residue {idem:.3e})")


class Projector(LinearOperator):
    """An orthogonal projector, validated once when it is built and then trusted.

    A 1-D argument is a site-basis mask, kept as ``mask`` (``None`` if dense):
    ``diag(mask)`` is a projector exactly when every entry is 0 or 1.
    """

    __slots__ = ("mask",)

    def __init__(self, matrix, *, what: str = "projector") -> None:
        self.mask = None
        if np.ndim(matrix) == 1:
            self.mask = _frozen(np.asarray(matrix).astype(bool))
            if not np.array_equal(self.mask, matrix):
                raise ValidationError(f"{what} mask has entries other than 0 and 1")
            matrix = np.diag(self.mask.astype(np.complex128))
        super().__init__(matrix)
        if self.mask is None:
            validate_projector(self, what=what)
        self.hermitian = True

    @classmethod
    def of(cls, op: LinearOperator, *, what: str = "operator") -> "Projector":
        """``op`` itself if it is already a ``Projector``, else ``op`` validated."""
        if isinstance(op, Projector):
            return op
        return cls(op.matrix, what=what)


class ProjectorFamily:
    """An ordered, complete family of mutually orthogonal projectors.

    Each member carries a real outcome label (a mass, an index, ...) and is
    held as a :class:`Projector`.  The constructor verifies pairwise
    orthogonality and completeness ``sum(P_i) == I``, both in max-norm against
    the structural tolerance; a family of masks must cover each basis index once.
    """

    __slots__ = ("members", "labels")

    def __init__(self, members: Sequence[LinearOperator], labels: Sequence[float]) -> None:
        members = tuple(members)
        labels = tuple(float(v) for v in labels)
        if not members:
            raise ValidationError("projector family must have at least one member")
        if len(members) != len(labels):
            raise ValidationError("projector family needs one label per member")
        dim = members[0].dim
        if any(member.dim != dim for member in members):
            raise ValidationError("projector family members must share one dimension")
        members = tuple(Projector.of(m, what=f"family member {k}") for k, m in enumerate(members))
        if all(member.mask is not None for member in members):
            stray = np.sum([member.mask for member in members], axis=0) != 1
            if np.any(stray):
                raise ValidationError(f"basis index {np.argmax(stray)} is not in exactly one family member")
        else:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    residue = float(np.max(np.abs(members[i].matrix @ members[j].matrix)))
                    if residue > tolerances.TOL.structural:
                        raise ValidationError(
                            f"family members {i} and {j} are not orthogonal (residue {residue:.3e})"
                        )
            total = np.zeros((dim, dim), dtype=np.complex128)
            for member in members:
                total = total + member.matrix
            completeness = float(np.max(np.abs(total - np.eye(dim))))
            if completeness > tolerances.TOL.structural:
                raise ValidationError(f"projector family is not complete (residue {completeness:.3e})")
        self.members = members
        self.labels = labels

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def __len__(self) -> int:
        return len(self.members)

    def items(self) -> Iterable[tuple[float, Projector]]:
        return zip(self.labels, self.members)

    @classmethod
    def from_basis(cls, states: Sequence[StateVector], labels: Sequence[float] | None = None) -> "ProjectorFamily":
        """Rank-1 family ``{|b_i><b_i|}`` from a complete orthonormal basis."""
        members = [LinearOperator.projector_onto(s) for s in states]
        if labels is None:
            labels = [float(i) for i in range(len(states))]
        return cls(members, labels)

    @classmethod
    def two_outcome(cls, projector: LinearOperator, labels: tuple[float, float] = (1.0, 0.0)) -> "ProjectorFamily":
        """The family ``{P, I - P}``, labelled ``labels`` in that order."""
        complement = Projector(np.eye(projector.dim) - projector.matrix, what="complement")
        return cls([projector, complement], labels)


def _check_capacity(dim: int) -> None:
    cap = tolerances.TOL.dimension_cap
    if dim > cap:
        raise CapacityError(f"total dimension {dim} exceeds the configured cap {cap}")


def tensor_product(a, b):
    """Kronecker product of two states or two operators (``a``'s index major).

    Raises
    ------
    CapacityError
        If the combined dimension exceeds the configured cap.
    ValidationError
        If the operands are not both states or both operators.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        _check_capacity(a.dim * b.dim)
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, LinearOperator) and isinstance(b, LinearOperator):
        _check_capacity(a.dim * b.dim)
        return LinearOperator(
            np.kron(a.matrix, b.matrix),
            hermitian=a.hermitian and b.hermitian,
            unitary=a.unitary and b.unitary,
        )
    raise ValidationError("tensor_product requires two StateVectors or two LinearOperators")


def _require_hermitian(hamiltonian: LinearOperator) -> None:
    if hamiltonian.hermitian:
        return
    residue = _hermitian_residue(hamiltonian.matrix)
    if residue > tolerances.TOL.scalar:
        raise ValidationError(f"generator is not Hermitian (residue {residue:.3e})")


def _static(hamiltonian: LinearOperator | None, t: float) -> bool:
    """``exp(-iHt)`` is exactly the identity: ``t = 0``, frozen (None) or zero dynamics."""
    return t == 0.0 or hamiltonian is None or not np.any(hamiltonian.matrix)


def propagate(hamiltonian: LinearOperator | None, vectors: np.ndarray, t: float) -> np.ndarray:
    """``exp(-iHt)`` applied to one vector or to every column of a batch.

    Uses the generator's cached eigenpairs; ``t = 0`` and frozen (``None``) or
    zero dynamics return ``vectors`` itself.
    """
    if _static(hamiltonian, t):
        return vectors
    w, v = hamiltonian.spectrum()
    phases = np.exp(-1j * w * t)
    if vectors.ndim == 2:
        phases = phases[:, None]
    return v @ (phases * (v.conj().T @ vectors))


def evolve(hamiltonian: LinearOperator, t: float, state: StateVector) -> StateVector:
    """Evolve ``state`` to ``exp(-i H t) |state>`` (natural units).

    With ``t = 0`` or a zero generator the very same ``state`` is returned.
    """
    _require_hermitian(hamiltonian)
    if state.dim != hamiltonian.dim:
        raise ValidationError("generator/state dimension mismatch")
    amps = propagate(hamiltonian, state.amplitudes, t)
    return state if amps is state.amplitudes else StateVector(amps)


def evolution_operator(hamiltonian: LinearOperator, t: float) -> LinearOperator:
    """The unitary ``exp(-i H t)`` as an explicit operator."""
    _require_hermitian(hamiltonian)
    if _static(hamiltonian, t):
        return LinearOperator.identity(hamiltonian.dim)
    w, v = hamiltonian.spectrum()
    phases = np.exp(-1j * w * t)
    return LinearOperator((v * phases) @ v.conj().T, unitary=True)


def born_probability(state: StateVector, projector: LinearOperator) -> float:
    """Born probability ``<psi|P|psi>`` of the projective outcome ``P``.

    The imaginary residue must stay below the scalar tolerance, and values are
    clamped to ``[0, 1]`` only when they lie within that tolerance of the
    boundary; anything further out is reported as an invariant breach.
    """
    projector = Projector.of(projector, what="Born-rule projector")
    if state.dim != projector.dim:
        raise ValidationError("projector/state dimension mismatch")
    raw = complex(np.vdot(state.amplitudes, projector.matrix @ state.amplitudes))
    tol = tolerances.TOL.scalar
    if abs(raw.imag) > tol:
        raise InvariantBreachError(f"Born probability has imaginary residue {raw.imag:.3e}")
    value = raw.real
    if value < 0.0:
        if value < -tol:
            raise InvariantBreachError(f"Born probability {value!r} below zero beyond tolerance")
        value = 0.0
    elif value > 1.0:
        if value > 1.0 + tol:
            raise InvariantBreachError(f"Born probability {value!r} above one beyond tolerance")
        value = 1.0
    return value


def luders_collapse(state: StateVector, projector: LinearOperator) -> StateVector:
    """Post-measurement state ``P|psi> / ||P|psi>||``.

    Raises
    ------
    ZeroProbabilityBranchError
        If the outcome probability does not exceed the branch cutoff; callers
        must not collapse onto an impossible outcome.
    """
    probability = born_probability(state, projector)
    if probability <= tolerances.TOL.branch_cutoff:
        raise ZeroProbabilityBranchError(
            f"cannot collapse onto an outcome of probability {probability!r}"
        )
    amps = projector.matrix @ state.amplitudes
    return StateVector(amps / np.linalg.norm(amps))
