"""Pulsed frequency-degenerate parametric downconversion toolbox.

Crystal dispersion from Sellmeier data files, quasi-phase-matching and
group-velocity-matching design, joint spectral amplitudes with their
Schmidt-mode structure, and squeezing budgets versus crystal length and
pump power. See the ``pdcmodes`` command-line tool for file-based runs.

Public names resolve on first access: ``import pdcmodes`` loads no layer,
and reading a name loads only the submodule that defines it and what that
submodule imports. ``pdcmodes.load_bundled_crystal``, for instance, loads
the dispersion layer but not the JSA or squeezing layers.
"""

import importlib

__version__ = "0.1.0"

# Every public name and the submodule that defines it.
_HOMES = {
    **dict.fromkeys(("PdcModesError", "DomainError", "ValidationError",
                     "SolverError"), "errors"),
    **dict.fromkeys(("CrystalModel", "load_crystal", "load_crystal_file",
                     "load_bundled_crystal", "bundled_crystal_path",
                     "refractive_index", "wavevector", "group_index", "gvd"),
                    "dispersion"),
    **dict.fromkeys(("PdcConfig", "poling_period", "phase_mismatch",
                     "walkoff_time", "solve_cgvm", "solve_cgvm_temperature"),
                    "phasematch"),
    **dict.fromkeys(("PumpPulse", "FrequencyGrid", "JsaGrid",
                     "SchmidtDecomposition", "pump_spectral_amplitude",
                     "default_grid", "compute_jsa", "jsa_parts",
                     "schmidt_decompose", "jsa_efficiency"), "jsa"),
    **dict.fromkeys(("SqueezingResult", "pulse_duration", "peak_power",
                     "beam_waist", "pdc_efficiency", "squeezing_spectrum",
                     "length_scan"), "squeezing"),
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Read from the submodule on every access, never stored here: a tracer
    # that rebinds the submodule's functions, and later restores them, is
    # then seen by every caller that goes through the package.
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *_HOMES})
