"""``point`` checks each input once, by its flag's rule, and then calls the engine's
_evaluate past evaluate_grid's checks.  The bytes it prints are pinned in
tests/golden/point.txt, which tests/test_golden.py checks and rewrites.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from icoswitch import cli, engine
from icoswitch.engine import NOISE_KINDS, QUANTITIES, _evaluate, evaluate_grid
from test_golden import check

# A probe whose norm overshoots 1 by about 5e-13, on which a second rescale
# by bloch_vector moves a bit.
OVERSHOOT = "-0.5114278630209694,-0.8446027737845795,-0.15839095757712598"


def test_point_runs_no_engine_check(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("point ran an engine check")

    monkeypatch.setattr(engine, "_validated", refuse)
    with pytest.raises(AssertionError, match="point ran an engine check"):  # the patch is seen
        evaluate_grid(("qc",), "bitflip", [0.3], 0.5, 0.1, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    check("point.txt", tmp_path)


def test_evaluate_rescales_an_overshooting_probe_once():
    # bloch_vector moves OVERSHOOT's bits on its first and its second
    # application, and the fq_cas bits tell all three probes apart.
    probe = cli._COMMANDS["point"][1]["--probe"][0](OVERSHOOT)
    rescaled = engine.bloch_vector(probe)
    flips = engine._flip_weights(engine.noise_weights("bitflip", [0.0, 0.37]))
    axis = np.array([0.6, 0.0, -0.8])
    never, once, twice = (
        engine._cascade_qfi(flips, axis, 1.1, r).tobytes()
        for r in (np.asarray(probe), rescaled, engine.bloch_vector(rescaled))
    )
    assert len({never, once, twice}) == 3
    got = _evaluate(("fq_cas",), "bitflip", [0.0, 0.37], 0.3, 1.1, axis, probe)["fq_cas"]
    assert got.tobytes() == once


def typed(x: float):
    """``x`` as a user might type it: every digit, a few, or padded as in a config file."""
    return st.sampled_from([repr(x), f"{x:.6g}", f"{x:.3e}", f" {x!r} "])


def triples(scale):
    """Raw X,Y,Z text of a random direction times a length drawn from ``scale``."""

    def text(direction, length, sep):
        norm = math.sqrt(sum(c * c for c in direction))
        return sep.join(repr(c / norm * length) for c in direction)

    direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda d: max(map(abs, d)) > 1e-3)
    return st.builds(text, direction, scale, st.sampled_from([",", ", "]))


AXES = st.one_of(
    st.sampled_from(["0,1,0", "0.6,0,-0.8", "0.70710678,0,0.70710678"]),
    triples(st.floats(1.0 - 1e-6, 1.0 + 1e-6)),
)
PROBES = st.one_of(
    st.sampled_from(["0,0,1", "-0.3,0.2,0.1", OVERSHOOT]),
    triples(st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1.0 + 1e-12), st.just(1.0 + 5e-13))),
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(NOISE_KINDS),
    p=st.floats(0.0, 1.0),
    pc=st.floats(0.0, 1.0).flatmap(typed),
    xi=st.floats(-1e20, 1e20).flatmap(typed),
    axis=AXES,
    probe=PROBES,
)
@example(kind="depolarizing", p=0.37, pc="0.3", xi="1.1", axis="0,1,0", probe=OVERSHOOT)
def test_evaluate_on_rule_values_is_evaluate_grid(kind, p, pc, xi, axis, probe):
    # Every value point's flag rules accept passes evaluate_grid's checks
    # unchanged, so skipping them moves no bit of any column.
    rules = cli._COMMANDS["point"][1]
    values = []
    for flag, raw in (("--pc", pc), ("--xi", xi), ("--axis", axis), ("--probe", probe)):
        try:
            values.append(rules[flag][0](raw))
        except ValueError:
            assume(False)
    got = _evaluate(QUANTITIES, kind, [p], *values)
    want = evaluate_grid(QUANTITIES, kind, [p], *values)
    for name in QUANTITIES:
        assert got[name].tobytes() == want[name].tobytes(), name

