"""Randomized checks of the bounds and speed limits on dense Kraus
families: random Stinespring dilations in dimensions 2-4, parameter pairs
inside and outside the data-processing region, and full-rank probes mixed
down towards a pure state, deep into the chain_sign regime where the bound
is evaluated as written."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from azqsl import dynamics as dyn
from azqsl import qsl
from azqsl.entropy import EntropyParams
from azqsl.errors import AzqslError
from azqsl.states import DensityMatrix
from helpers import random_density, stinespring_family

REL = 1e-9
N_STEPS = 1001


@st.composite
def instances(draw):
    dim = draw(st.integers(2, 4))
    n_ops = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        z = draw(st.floats(max(alpha, 1.0 - alpha), 1.0))
    else:
        z = draw(st.floats(0.05, 1.0))
    # weight of the full-rank part; small weights put k_min far below the
    # chain_sign threshold exp(-1 / (1 - alpha))
    mix = 10.0 ** draw(st.floats(-3.5, -0.5))
    tau = draw(st.floats(0.2, 3.0))
    fam = stinespring_family(rng, dim, n_ops)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    rho0 = DensityMatrix((1.0 - mix) * pure + mix * random_density(rng, dim).mat)
    return fam, rho0, EntropyParams(alpha, z), tau


def evaluated(fn, *args):
    """The report, or None when the instance is outside the method's domain
    (a quadrature too coarse for fast dynamics, a support mismatch)."""
    try:
        return fn(*args)
    except AzqslError:
        return None


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(instances())
def test_bounds_and_speed_limits_hold(instance):
    fam, rho0, p, tau = instance
    traj = dyn.evolve_kraus(fam, rho0, tau, N_STEPS, rates=True)
    bound = evaluated(qsl.integrate_bounds, traj, p)
    if bound is not None:
        assert bound.d_sym <= bound.rhs_sym * (1.0 + REL)
    # Schatten speed, then the summed Kraus rates
    for limit in (evaluated(qsl.qsl_general, replace(traj, rates=None), p),
                  evaluated(qsl.qsl_general, traj, p)):
        if limit is not None:
            assert limit.tau_qsl <= tau * (1.0 + REL)
