"""Forward outputs and gradients do not depend on the BLAS thread count.

Each run happens in a fresh interpreter, because OpenBLAS reads its thread
count once, when numpy is first imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import dmsn

SRC = str(Path(dmsn.__file__).resolve().parents[1])

# Hashes every array a micro eval forward caches, plus the scores, for float32
# clips and float64 parameters (the init_params default), and the scores of
# the uncached forward (model_forward, which normalizes in place).  The micro
# models' per-tap GEMM depths stay under the 448 split.  Direct 3x3x3 convs
# from 64 channels (576 per tap, as in a full-width spatial conv) and from 56
# (504) are cut inside a tap; unsplit, 504 differs between thread counts on
# OpenBLAS 0.3.31, while 576 happens to match.
FORWARD_DIGEST = """
import hashlib
from fractions import Fraction
import numpy as np
from dmsn.blocks import RunState
from dmsn.model import (ModelConfig, build_model, forward_with_state,
                        init_params, model_forward)
from dmsn.ops import ConvLayerSpec, conv3d_forward

def arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays(item)

clip = np.random.default_rng(3).normal(size=(2, 3, 8, 32, 32)).astype(np.float32)
for kind in ("dmsn", "dmsn-a", "dmsn-c"):
    spec = build_model(ModelConfig(model_kind=kind, clip_len=8, input_size=(32, 32),
                                   width_multiplier=Fraction(1, 8)))
    params = init_params(spec, seed=0)
    state = RunState(mode="eval", cache={})
    scores = forward_with_state(spec, params, clip, state)
    digest = hashlib.sha256(scores.tobytes())
    for key in sorted(state.cache):
        for arr in arrays(state.cache[key]):
            digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(model_forward(spec, params, clip).tobytes())
    print(kind, scores.dtype, digest.hexdigest())

for c in (64, 56):
    rng = np.random.default_rng(4)
    spec = ConvLayerSpec(c, 16, (3, 3, 3), padding=(1, 1, 1))
    y = conv3d_forward(rng.normal(size=(2, c, 4, 16, 16)).astype(np.float32),
                       spec, rng.normal(size=spec.weight_shape))
    print("conv3d", c, y.dtype, hashlib.sha256(y.tobytes()).hexdigest())
"""


# Hashes the input and weight gradients of a 64->64 (1, 3, 3) conv, whose
# weight gradient reduces over 784 output positions per sample, and every
# gradient of a desk-scale train-mode backward (batch 8, 8x32x32 clips, width
# 1/8), whose stem reduces over 2,048.  Both reductions are cut at the
# forward's GEMM depth; unsplit, the conv's weight gradient differs between
# 1 and 2 threads on OpenBLAS 0.3.31.
BACKWARD_DIGEST = """
import hashlib
from fractions import Fraction
import numpy as np
from dmsn.blocks import RunState
from dmsn.model import (ModelConfig, backward_from_cache, build_model,
                        forward_with_state, init_params)
from dmsn.ops import ConvLayerSpec, conv3d_backward

rng = np.random.default_rng(5)
spec = ConvLayerSpec(64, 64, (1, 3, 3), padding=(0, 1, 1))
x = rng.normal(size=(2, 64, 4, 14, 14)).astype(np.float32)
go = rng.normal(size=x.shape).astype(np.float32)
gx, gw = conv3d_backward(x, spec, rng.normal(size=spec.weight_shape), go)
print("conv gx", gx.dtype, hashlib.sha256(gx.tobytes()).hexdigest())
print("conv gw", gw.dtype, hashlib.sha256(gw.tobytes()).hexdigest())

spec = build_model(ModelConfig(clip_len=8, input_size=(32, 32),
                               width_multiplier=Fraction(1, 8)))
clip = rng.normal(size=(8, 3, 8, 32, 32)).astype(np.float32)
params = init_params(spec, seed=0)
state = RunState(mode="train", cache={})
forward_with_state(spec, params, clip, state)
grads = backward_from_cache(spec, params, state.cache, rng.normal(size=8))
digest = hashlib.sha256()
for name in sorted(grads):
    digest.update(grads[name].tobytes())
print("desk backward", len(grads), digest.hexdigest())
"""


def _run(script: str, threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_eval_forward_bytes_equal_at_one_and_two_threads():
    one, two = _run(FORWARD_DIGEST, 1), _run(FORWARD_DIGEST, 2)
    assert one.count("float32") == 5
    assert one == two


def test_backward_bytes_equal_at_one_and_two_threads():
    one, two = _run(BACKWARD_DIGEST, 1), _run(BACKWARD_DIGEST, 2)
    assert one.count("conv g") == 2 and "desk backward 527" in one
    assert one == two
