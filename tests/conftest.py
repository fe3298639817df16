from __future__ import annotations

import numpy as np
import pytest

from chanrate.model import LinkModel, RateSet, demo_model


@pytest.fixture(scope="session")
def demo() -> LinkModel:
    return demo_model()


@pytest.fixture()
def tiny_model() -> LinkModel:
    # 2 channels x 2 rates, unique optimum at channel 1 rate 2.
    theta = np.array([[0.9, 0.6], [0.5, 0.3]])
    return LinkModel(rates=RateSet.of([1.0, 2.0]), theta=theta)
