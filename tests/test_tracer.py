"""bench/tracer.py against the program: its spans and node counts read the
computation record through Value's nid, parents, needs_grad and vjp, so a
change to Value that breaks `bench/run.py --trace 1` fails here."""

import importlib.util
from pathlib import Path

import numpy as np

from stgcvae import evaluation, model, synthetic, training

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
spec = importlib.util.spec_from_file_location("tracer", TRACER)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


def test_traced_training_and_sampling():
    m = model.TrajCvae(model.ModelConfig(), rng=np.random.default_rng(0))
    one = synthetic.make_window("turn", 3, np.random.default_rng(1))
    other = synthetic.make_window("stop", 2, np.random.default_rng(4))
    t = tracer.Tracer()
    t.install()
    try:
        training.chunk_gradients(m, [one], 0, np.random.default_rng(2))
        training.chunk_gradients(m, [one, other], 0,
                                 np.random.default_rng(3))
        evaluation.sample_futures(m, one, np.random.default_rng(5), 2)
    finally:
        t.uninstall()

    spans = {t.names[i] for i in t.name}
    for kind in ("conv_time", "prelu", "mix_agents"):
        assert f"autodiff.{kind}.bwd" in spans
    # the default config's record, constant operands included, for one
    # window and for two stacked ones
    assert t.backward_nodes == [136, 136]
