"""Switched quantum channel with indefinite causal order for noisy qubit phase estimation.

A control qubit in superposition selects the order in which two copies of a
noisy phase process act on a probe qubit.  The package builds the joint
probe-control output, the reduced control state and its coupling scalar,
and evaluates quantum and classical Fisher information for estimating the
phase, each quantity both in closed form and through independent
brute-force density-matrix routes.
"""

from .channels import (
    KrausChannel,
    PauliAxis,
    apply_channel,
    bloch_to_density,
    bloch_vector,
    check_density,
    depolarizing_channel,
    noisy_phase_channel,
    pauli_channel,
    rotation_unitary,
    unit_axis,
)
from .engine import (
    evaluate_grid,
    noise_weights,
    switch_state_grid,
)
from .metrology import (
    cascade_family,
    cfi_control,
    cfi_numeric,
    control_family,
    joint_family,
    qfi_cascade,
    qfi_control,
    qfi_joint,
    qfi_numeric,
)
from .qmat import (
    EigDecomp,
    as_cmatrix,
    channel_choi,
    herm_eig,
    partial_trace,
)
from .selfcheck import CheckResult, run_all_checks
from .switch import (
    SwitchResult,
    qc_closed_form,
    qc_numeric,
    reduced_control,
    s00,
    s01,
    switch_kraus_apply,
    switch_kraus_ops,
    switch_state,
)
from .sweep import (
    ConfigError,
    SweepConfig,
    emit_csv,
    emit_svg,
    fig2_preset,
    parse_config,
    render_csv,
    render_svg,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConfigError",
    "EigDecomp",
    "KrausChannel",
    "PauliAxis",
    "SweepConfig",
    "SwitchResult",
    "apply_channel",
    "as_cmatrix",
    "bloch_to_density",
    "bloch_vector",
    "cascade_family",
    "cfi_control",
    "cfi_numeric",
    "channel_choi",
    "check_density",
    "control_family",
    "depolarizing_channel",
    "emit_csv",
    "emit_svg",
    "evaluate_grid",
    "fig2_preset",
    "herm_eig",
    "joint_family",
    "noise_weights",
    "noisy_phase_channel",
    "parse_config",
    "partial_trace",
    "pauli_channel",
    "qc_closed_form",
    "qc_numeric",
    "qfi_cascade",
    "qfi_control",
    "qfi_joint",
    "qfi_numeric",
    "reduced_control",
    "render_csv",
    "render_svg",
    "rotation_unitary",
    "run_all_checks",
    "run_sweep",
    "s00",
    "s01",
    "switch_kraus_apply",
    "switch_kraus_ops",
    "switch_state",
    "switch_state_grid",
    "unit_axis",
]
