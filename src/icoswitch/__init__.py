"""Switched quantum channel with indefinite causal order for noisy qubit phase estimation.

A control qubit in superposition selects the order in which two copies of a
noisy phase process act on a probe qubit.  The package builds the joint
probe-control output, the reduced control state and its coupling scalar,
and evaluates quantum and classical Fisher information for estimating the
phase, each quantity both in closed form and through independent
brute-force density-matrix routes.

A public name is imported from its submodule when it is looked up (PEP 562),
so ``import icoswitch`` loads no submodule and ``from icoswitch import
evaluate_grid`` loads only ``icoswitch.engine``.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SOURCE = {
    name: module
    for module, names in {
        "channels": "KrausChannel bloch_to_density check_density"
        " depolarizing_channel noisy_phase_channel pauli_channel rotation_unitary",
        "engine": "bloch_vector evaluate_grid noise_weights switch_state_grid unit_axis",
        "metrology": "cfi_control cfi_numeric control_family qfi_cascade qfi_control"
        " qfi_joint qfi_numeric",
        "qmat": "EigDecomp as_cmatrix channel_choi herm_eig partial_trace",
        "selfcheck": "CheckResult run_all_checks",
        "switch": "SwitchResult qc_closed_form qc_numeric s00 s01"
        " switch_kraus_apply switch_kraus_ops switch_state",
        "sweep": "ConfigError SweepConfig fig2_preset parse_config render_csv render_svg run_sweep",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    # Nothing is stored here, so every lookup sees the submodule's current attribute.
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
