"""The layer names the benchmark tracer wraps must exist in the program.

``perfbench/layertrace.py`` wraps each ``LAYER_FUNCTIONS`` entry in every
``twirlkit`` module that holds the same object, so a renamed or re-bound
function would otherwise fail only when the benchmark runs. The list is
read from that file's source, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from twirlkit import cli, measures, protocol, states, twirl

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layer_functions():
    for node in ast.parse(LAYERTRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {LAYERTRACE}")


@pytest.mark.parametrize("module_name, qualname", _layer_functions())
def test_traced_name_resolves(module_name, qualname):
    target = importlib.import_module(f"twirlkit.{module_name}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_sweep_calls_the_traced_kernels():
    # run_sweep calls these through the cli module's own names; the tracer
    # reaches them there only while they are the same objects
    assert cli.discord_eigen is measures.discord_eigen
    assert cli.concurrence is measures.concurrence
    assert cli.min_error_rate is protocol.min_error_rate
    assert cli.twirl_analytic is twirl.twirl_analytic


@pytest.mark.parametrize("family", list(states.FAMILY_PARAMS))
def test_sweep_length_is_its_point_count(family):
    # the tracer counts cli.run_sweep.points, and so sweep_points_per_s, as
    # len() of run_sweep's result
    p = 0.5 if states.FAMILY_PARAMS[family][1:] else None
    spec = cli.SweepSpec(family=family, grid=np.linspace(0.1, 0.9, 7), p=p)
    assert len(cli.run_sweep(spec)) == 7
