"""The package's literal physical constants against scipy's CODATA values."""

import scipy.constants

from pdcmodes import constants


def test_literals_equal_codata():
    for name in ("c", "hbar", "epsilon_0"):
        assert getattr(constants, name) == getattr(scipy.constants, name), name
