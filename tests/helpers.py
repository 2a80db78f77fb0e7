"""Shared random-instance generators and panel builders for the test
suite."""

from typing import NamedTuple

import numpy as np

from azqsl import dynamics as dyn
from azqsl.dynamics import KrausFamily
from azqsl.entropy import EntropyParams
from azqsl.errors import AzqslError, _attempt
from azqsl.states import BlochVector, DensityMatrix, GHZMixedParams, bloch_state, ghz_mixed


def random_density(rng, dim: int) -> DensityMatrix:
    """Full-rank state from a rectangular Ginibre draw (well conditioned)."""
    x = rng.normal(size=(dim, 2 * dim)) + 1j * rng.normal(size=(dim, 2 * dim))
    m = x @ x.conj().T
    return DensityMatrix(m / np.real(np.trace(m)))


def random_hermitian(rng, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


def random_unitary(rng, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class StinespringFamily(KrausFamily):
    """Dense trace-preserving family K_l(t) = (<l| ⊗ I) e^(-iHt) (|0> ⊗ I)
    for a Hermitian H on the n_ops * dim dilation, with the analytic
    derivatives dK_l = (<l| ⊗ I) (-iH) e^(-iHt) (|0> ⊗ I), batched over
    times."""

    def __init__(self, h: np.ndarray, dim: int, n_ops: int):
        super().__init__(dim=dim, n_ops=n_ops, ops_fn=None, dops_fn=None)
        self.h = h
        self._w, self._v = np.linalg.eigh(h)

    def _isometries(self, times) -> np.ndarray:
        # the first dim columns of e^(-iHt), rows indexed by l * dim + i
        phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), self._w))
        return (self._v * phases[:, None, :]) @ self._v[: self.dim].conj().T

    def _split(self, u: np.ndarray) -> np.ndarray:
        return u.reshape(len(u), self.n_ops, self.dim, self.dim)

    def op_stacks(self, times) -> np.ndarray:
        return self._split(self._isometries(times))

    def stacks(self, times):
        u = self._isometries(times)
        return self._split(u), self._split(-1j * self.h @ u)


def stinespring_family(rng, dim: int, n_ops: int) -> StinespringFamily:
    return StinespringFamily(random_hermitian(rng, n_ops * dim), dim, n_ops)


def random_params(rng, dpi_valid: bool = True) -> EntropyParams:
    alpha = rng.uniform(0.05, 0.95)
    if dpi_valid:
        z = rng.uniform(max(alpha, 1.0 - alpha), 1.0)
    else:
        z = rng.uniform(0.05, 1.0)
    return EntropyParams(float(alpha), float(z))


def random_bloch_state(rng, r_max: float = 0.95):
    bv = BlochVector(
        float(rng.uniform(0.02, r_max)),
        float(rng.uniform(0.0, np.pi)),
        float(rng.uniform(0.0, 2 * np.pi)),
    )
    return bloch_state(bv), bv


def random_ghz_state(rng, p_max: float = 0.95):
    params = GHZMixedParams(float(rng.uniform(0.02, p_max)))
    return ghz_mixed(params), params


class Held(NamedTuple):
    """What a panel's columns hold for one horizon: the times, speeds,
    k_min and rates (None without) of its samples, and its t = 0 and end
    states, each a DensityMatrix or the error its validation raised."""

    times: np.ndarray
    speeds: np.ndarray
    kmins: np.ndarray
    rates: np.ndarray | None
    initial: DensityMatrix | AzqslError
    final: DensityMatrix | AzqslError


def held(cols: dyn._Columns, c: int) -> Held:
    """What the columns `cols` hold for their column `c`."""
    rows = cols.rows[c]
    return Held(cols.times[rows], cols.speeds[rows], cols.kmins[rows],
                None if cols.rates is None else cols.rates[rows], cols.probe, cols.finals[c])


def trajectories(model, rho0, taus, n_steps: int, rates: bool = False) -> list:
    """For each horizon of `taus`, in order, what its column of
    `dynamics._columns` holds (`Held`), or the AzqslError it ended in:
    what `evolve_unitary` (a Hamiltonian) or `evolve_kraus` (a Kraus
    family) gives for it, without the interior states."""
    cols = dyn._columns(model, rho0, taus, n_steps, rates)
    return [cols.errors[c] or held(cols, c) for c in range(len(taus))]


def trajectory_columns(outcomes: list) -> dyn._Columns:
    """The `dynamics._Columns` of trajectories and errors, in order: the
    samples of every trajectory concatenated (with rates when all carry
    them), each column's rows into them, the first trajectory's t = 0
    state as the probe and each trajectory's end state, validated."""
    trajs = [o for o in outcomes if not isinstance(o, AzqslError)]
    samples = [np.concatenate([np.zeros(0)] + [getattr(t, name) for t in trajs])
               for name in ("times", "speeds", "kmins")]
    with_rates = bool(trajs) and all(t.rates is not None for t in trajs)
    rates = np.concatenate([t.rates for t in trajs]) if with_rates else None
    starts = iter(np.cumsum([0] + [t.n_samples for t in trajs]).tolist())
    rows, finals, errors = [], [], []
    for o in outcomes:
        failed = isinstance(o, AzqslError)
        rows.append(None if failed else next(starts) + np.arange(o.n_samples))
        finals.append(None if failed else _attempt(getattr, o, "final_state"))
        errors.append(o if failed else None)
    probe = _attempt(getattr, trajs[0], "initial_state") if trajs else None
    return dyn._Columns(*samples, rates, rows, probe, finals, errors)
