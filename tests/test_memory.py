"""Memory bounds: how many n x m float64 buffers the calibrate and diagnose
paths hold at once, measured as tracemalloc's peak above the level at the call.

At 1000 x 100 the leave-one-out ridge pass peaks at 5.4 buffers (9.5 before
the refill reused its buffers, the dense standardization and the engine
worked in place) and the column-space alignment report at 4.6 (8.3 before it
built and decomposed one matrix at a time). The bounds leave about a buffer
of slack for allocation differences between numpy versions.
"""

import tracemalloc

import pytest

from twincal.calibrate import loo_evaluate
from twincal.diagnostics import alignment_report
from twincal.matcore import MaskedMatrix
from twincal.regress import RegressConfig
from twincal.synth import generate_latent_world

N, M = 1000, 100
LOO_BOUND = 6.25
ALIGNMENT_BOUND = 5.5


@pytest.fixture(scope="module")
def world():
    _, human, twin, _ = generate_latent_world(
        N, M, 5, seed=18, missing_frac=0.1, alignment="linear_distortion",
        noise_sigma=0.1, row_bias_scale=0.5)
    return human, MaskedMatrix(twin.values[:, :M], twin.mask[:, :M])


def traced_peak_buffers(call) -> float:
    """The traced peak of ``call()`` above the level it started at, in
    n x m float64 buffers."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (N * M * 8)


def test_loo_ridge_peak(world):
    human, twin = world
    peak = traced_peak_buffers(lambda: loo_evaluate(
        human, twin, RegressConfig("ridge"), impute_rank=5, return_predictions=True))
    assert peak <= LOO_BOUND


def test_column_space_alignment_peak(world):
    human, twin = world
    peak = traced_peak_buffers(lambda: alignment_report(
        human, twin, "column_space", seed=0, rank=5, impute_rank=5))
    assert peak <= ALIGNMENT_BOUND
