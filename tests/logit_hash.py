"""Print one sha256 over a fixed set of forward logits, to check that a change keeps outputs
bit-identical. Not a test: the digest depends on the BLAS build, so compare it only between
two checkouts run on the same machine.

    PYTHONPATH=src python tests/logit_hash.py

The recipe: A at res 64, then TOY (tests/helpers.py) at res 32, each built at seed 7 in
float64 and then in float32 (`dtype=` at build), on the input
`default_rng(7).standard_normal((2, 3, res, res))` cast to that dtype; the train-structure
model then its merged twin, three forwards each, every logit array hashed in that order
(float64 first). The float64 and float32 halves are also printed, each hashed alone.
"""

from __future__ import annotations

import hashlib

import numpy as np

from helpers import TOY
from urlknet.model import build_model, build_named, forward, merge_for_deploy


def main() -> None:
    whole = hashlib.sha256()
    halves = {}
    for dtype in (np.float64, np.float32):
        half = hashlib.sha256()
        for build, res in ((lambda: build_named("A", seed=7, dtype=dtype), 64),
                           (lambda: build_model(TOY, seed=7, dtype=dtype), 32)):
            model = build()
            x = np.random.default_rng(7).standard_normal((2, 3, res, res)).astype(dtype)
            for m in (model, merge_for_deploy(model)):
                for _ in range(3):
                    logits = forward(m, x).tobytes()
                    whole.update(logits)
                    half.update(logits)
        halves[np.dtype(dtype).name] = half.hexdigest()
    print(whole.hexdigest())
    for name, digest in halves.items():
        print(f"{name} half: {digest}")


if __name__ == "__main__":
    main()
