"""Shared parameter set for the test suite (the bundled reference scenario):
microwave coupling 2pi x 150 kHz, Raman couplings 2pi x 5 MHz, one-photon
detuning 2pi x 10 GHz, sweep range +-2pi x 10 MHz, decay 2pi x 5.6 MHz."""

from __future__ import annotations

import math

import pytest
from hypothesis import settings

from quadsim import LambdaParams, TwoLevelParams, angular

OMEGA_M = angular(150e3)
DELTA_M = angular(10e6)
OMEGA0 = angular(5e6)
DELTA_BIG = angular(10e9)
GAMMA = angular(5.6e6)
TAU_PI = math.pi / OMEGA_M  # = 1/300000 s

# property tests draw the same cases on every run, and a loaded machine
# cannot fail them on a deadline
settings.register_profile("quadsim", derandomize=True, deadline=None)
settings.load_profile("quadsim")


@pytest.fixture(scope="session")
def two_level_params() -> TwoLevelParams:
    return TwoLevelParams(omega_m=OMEGA_M)


@pytest.fixture(scope="session")
def lambda_params() -> LambdaParams:
    return LambdaParams(
        omega_p0=OMEGA0, omega_s0=OMEGA0, delta_one_photon=DELTA_BIG, gamma=GAMMA
    )


@pytest.fixture(scope="session")
def lambda_params_no_decay() -> LambdaParams:
    return LambdaParams(omega_p0=OMEGA0, omega_s0=OMEGA0, delta_one_photon=DELTA_BIG)
