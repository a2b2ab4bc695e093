"""The unified ``LinkPredictor.top_k(side=...)`` entry point.

One ``top_k`` serves every side with shared knobs (``k``, ``filtered``,
``exact``); side-incompatible knobs are rejected up front by its
``check_query``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.errors import ServingError
from repro.serving import LinkPredictor

pytestmark = pytest.mark.ingest

BUDGET = 16


@pytest.fixture(scope="module")
def predictor(tiny_dataset):
    model = make_complex(
        tiny_dataset.num_entities,
        tiny_dataset.num_relations,
        BUDGET,
        np.random.default_rng(21),
    )
    return LinkPredictor(model, tiny_dataset)


class TestValidation:
    def test_unknown_side_rejected(self, predictor):
        with pytest.raises(ServingError, match="unknown side"):
            predictor.top_k([0], [0], side="edge", k=2)

    def test_k_below_one_rejected_for_every_side(self, predictor):
        for side in ("tail", "head", "relation"):
            with pytest.raises(ServingError, match="k must be"):
                predictor.top_k([0], [0], side=side, k=0)

    def test_relation_side_rejects_filtered(self, predictor):
        with pytest.raises(ServingError, match="filtered"):
            predictor.top_k([0], [1], side="relation", k=2, filtered=True)

    def test_relation_side_rejects_candidates(self, predictor):
        with pytest.raises(ServingError, match="candidates"):
            predictor.top_k(
                [0], [1], side="relation", k=2, candidates=np.array([0, 1])
            )
