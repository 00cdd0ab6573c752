import numpy as np
import pytest

from omsqueeze.core import MechanicalMode, OpticalMode, SystemParams

TWO_PI = 2 * np.pi

KAPPA = TWO_PI * 3.42e9
ETA_KAPPA = 0.55
OMEGA_M0 = TWO_PI * 28e6
GAMMA_I = TWO_PI * 172.0
G0 = TWO_PI * 750e3
DELTA = 0.044 * KAPPA
N_C = 790.0


@pytest.fixture
def paper_optical():
    return OpticalMode(omega_o=TWO_PI * 194.67e12, kappa=KAPPA, kappa_e=ETA_KAPPA * KAPPA)


@pytest.fixture
def paper_mech():
    return MechanicalMode(omega_m0=OMEGA_M0, gamma_i=GAMMA_I, g0=G0)


@pytest.fixture
def paper_params(paper_optical, paper_mech):
    return SystemParams.build(paper_optical, paper_mech, delta=DELTA, n_c=N_C)


@pytest.fixture
def resonant_bad_cavity(paper_mech):
    """Delta = 0, perfectly coupled, kappa = 122 omega_m: the simplified regime."""
    kappa = 122 * OMEGA_M0
    optical = OpticalMode(omega_o=TWO_PI * 194.67e12, kappa=kappa, kappa_e=kappa)
    return SystemParams.build(optical, paper_mech, delta=0.0, n_c=N_C)
