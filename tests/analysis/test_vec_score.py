"""Column scoring against the scalar analytic model, bit for bit.

The tuner scores every shape from columns gathered once per candidate
set (:func:`repro.analysis.vec_score.column_scores`); each element
must equal :func:`repro.sim.engine.analytic_kernel_time_s` for its
candidate on any shape, GPU, back-end and SM count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.vec_score import column_scores
from repro.core.offline import PCNN_BACKEND, tuning_candidates
from repro.gpu import list_architectures
from repro.gpu.kernels import GemmShape
from repro.sim.engine import analytic_kernel_time_s


@pytest.mark.parametrize(
    "arch",
    list_architectures(include_extensions=True),
    ids=lambda arch: arch.name,
)
@given(
    shape=st.tuples(
        st.integers(1, 4096), st.integers(1, 60000), st.integers(1, 25088)
    ),
    library=st.sampled_from([None, PCNN_BACKEND]),
    sm_share=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_columns_score_like_the_scalar_model(arch, shape, library, sm_share):
    shape = GemmShape(*shape)
    n_sms = max(1, round(sm_share * arch.n_sms))
    candidates = tuning_candidates(arch)
    scores = column_scores(
        arch, candidates.columns, shape, library=library, n_sms=n_sms
    )
    expected = [
        analytic_kernel_time_s(
            arch, kernel, shape, library=library, tlp=tlp, n_sms=n_sms
        ).hex()
        for kernel, tlp in zip(candidates.kernels, candidates.tlps)
    ]
    assert scores.dtype == np.float64
    assert [float(score).hex() for score in scores] == expected
