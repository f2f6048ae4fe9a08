import numpy as np
import pytest

from urlknet import build_named, model_astype
from urlknet.container import write_container
from urlknet.model import iter_state


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=["one-f64-tensor", "f32-eps"])
def mixed_dtype_weights(request, tmp_path):
    """An A train-structure f32 container that save_model never writes: one
    tensor stored in f64, or every BN eps stored in f32."""
    arrays = dict(iter_state(model_astype(build_named("A", seed=0), np.float32)))
    if request.param == "one-f64-tensor":
        name = "stage2.block0.se.reduce.weight"
        arrays[name] = arrays[name].astype(np.float64)
    else:
        arrays = {name: arr.astype(np.float32) for name, arr in arrays.items()}
    path = tmp_path / f"{request.param}.urlk"
    write_container(path, list(arrays.items()), model_name="A", mode="train-structure")
    return path
