"""Density matrices with validated invariants, plus the two probe-state
families used throughout: Bloch-parametrized single qubits and the
white-noise-mixed two-qubit GHZ state."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimMismatchError,
    InvalidBlochError,
    InvalidStateError,
    InvalidWeightError,
    NotHermitianError,
)

TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
SUPPORT_OVERLAP_TOL = 1e-10


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with its spectrum cached.

    The eigendecomposition happens once at construction; every downstream
    bound needs only k_min and k_max, so caching avoids repeated solves in
    parameter sweeps. Rank-deficient (e.g. pure) states are accepted and
    exposed through `full_rank`; the entropy and bound routines decide
    per-formula whether such states are admissible.
    """

    __slots__ = ("mat", "eigenvalues", "eigenvectors", "k_min", "k_max")

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"expected a square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise InvalidStateError("matrix has non-finite entries")
        if linalg.asymmetry(mat) > linalg.HERMITIAN_TOL:
            raise InvalidStateError(
                f"not Hermitian: asymmetry {linalg.asymmetry(mat):.3e}"
            )
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"trace {trace} differs from 1 beyond {TRACE_TOL}")
        try:
            values, vectors = linalg.eigh(mat)
        except NotHermitianError as exc:  # pragma: no cover - guarded above
            raise InvalidStateError(str(exc)) from exc
        if values[0] < -EIGENVALUE_TOL:
            raise InvalidStateError(
                f"negative eigenvalue {values[0]:.3e} below -{EIGENVALUE_TOL:.0e}"
            )
        self.mat = linalg.hermitian_part(mat)
        self.eigenvalues = np.maximum(values, 0.0)
        self.eigenvectors = vectors
        self.k_min = float(self.eigenvalues[0])
        self.k_max = float(self.eigenvalues[-1])

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def full_rank(self) -> bool:
        return self.k_min > linalg.SUPPORT_TOL

    def allclose(self, other: "DensityMatrix", tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.mat - other.mat)) <= tol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(dim={self.dim}, k_min={self.k_min:.6g}, k_max={self.k_max:.6g})"


@dataclass(frozen=True)
class BlochVector:
    """Bloch-sphere coordinates: radius r in [0, 1], polar theta, azimuth phi."""

    r: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not -1e-12 <= self.r <= 1.0 + 1e-12:
            raise InvalidBlochError(f"radius {self.r} outside [0, 1]")

    @property
    def pure(self) -> bool:
        return abs(self.r - 1.0) <= 1e-12

    @property
    def cartesian(self) -> np.ndarray:
        return self.r * np.array(
            [
                np.sin(self.theta) * np.cos(self.phi),
                np.sin(self.theta) * np.sin(self.phi),
                np.cos(self.theta),
            ]
        )


@dataclass(frozen=True)
class GHZMixedParams:
    """Mixing weight p of the GHZ projector against white noise."""

    p: float
    separable: bool = field(init=False)

    def __post_init__(self):
        if not -1e-12 <= self.p <= 1.0 + 1e-12:
            raise InvalidWeightError(f"weight {self.p} outside [0, 1]")
        object.__setattr__(self, "separable", self.p <= 1.0 / 3.0)


def bloch_state(b: BlochVector) -> DensityMatrix:
    """(1/2)(I + r·sigma). Eigenvalues are (1 -/+ r)/2."""
    v = b.cartesian
    mat = (
        np.eye(2, dtype=complex)
        + v[0] * linalg.SIGMA_X
        + v[1] * linalg.SIGMA_Y
        + v[2] * linalg.SIGMA_Z
    ) / 2
    return DensityMatrix(mat)


def ghz_ket() -> np.ndarray:
    """(|00> + |11>)/sqrt(2)."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1.0 / np.sqrt(2.0)
    return ket


def ghz_mixed(g: GHZMixedParams) -> DensityMatrix:
    """[(1-p)/4] I⊗I + p |GHZ><GHZ|.

    Spectrum: (1+3p)/4 once and (1-p)/4 with threefold degeneracy.
    """
    ket = ghz_ket()
    mat = (1.0 - g.p) / 4.0 * np.eye(4, dtype=complex) + g.p * np.outer(ket, ket.conj())
    return DensityMatrix(mat)


def support_contained(a: DensityMatrix, b: DensityMatrix) -> bool:
    """True iff supp(a) is contained in supp(b).

    Checked spectrally: each eigenvector of `a` on its support must have
    squared projection onto the null space of `b` below tolerance.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"dims {a.dim} and {b.dim} differ")
    null_cols = b.eigenvectors[:, b.eigenvalues <= linalg.SUPPORT_TOL]
    if null_cols.shape[1] == 0:
        return True
    support_cols = a.eigenvectors[:, a.eigenvalues > linalg.SUPPORT_TOL]
    overlaps = np.abs(null_cols.conj().T @ support_cols) ** 2
    return bool(overlaps.sum(axis=0).max(initial=0.0) < SUPPORT_OVERLAP_TOL)


def state_to_text(dm: DensityMatrix) -> str:
    """Serialize as the dimension followed by dim^2 lines "re im", row-major."""
    lines = [str(dm.dim)]
    for entry in dm.mat.reshape(-1):
        lines.append(f"{entry.real:.17g} {entry.imag:.17g}")
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> DensityMatrix:
    """Parse the format produced by state_to_text."""
    tokens = text.split()
    if not tokens:
        raise InvalidStateError("empty state file")
    try:
        dim = int(tokens[0])
    except ValueError as exc:
        raise InvalidStateError(f"bad dimension field {tokens[0]!r}") from exc
    need = 1 + 2 * dim * dim
    if len(tokens) != need:
        raise InvalidStateError(
            f"expected {need} fields for dim {dim}, found {len(tokens)}"
        )
    try:
        vals = np.array([float(t) for t in tokens[1:]], dtype=float)
    except ValueError as exc:
        raise InvalidStateError(f"bad numeric field: {exc}") from exc
    mat = (vals[0::2] + 1j * vals[1::2]).reshape(dim, dim)
    return DensityMatrix(mat)


def save_state(path, dm: DensityMatrix) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(state_to_text(dm))


def load_state(path) -> DensityMatrix:
    with open(path) as fh:
        return state_from_text(fh.read())
