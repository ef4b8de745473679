"""The shared generators draw the same corpus in every interpreter."""

from __future__ import annotations

import os
import subprocess
import sys

import rccs

# Prints a seeded corpus of coherent processes. Before random_walk broke
# ties on the printed target, the two branches of !f.!g + !f were chosen
# in frozenset order, and this corpus changed with the hash seed.
_PRINT_CORPUS = """
import random
from generators import random_coherent
from rccs.machine import format_process
rng = random.Random(61)
for _ in range(400):
    print(format_process(random_coherent(rng, max_prefixes=6, steps=5)))
"""


def test_seeded_corpus_does_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rccs.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join([src, tests]))
        done = subprocess.run(
            [sys.executable, "-c", _PRINT_CORPUS],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count("\n") == 400
    assert outputs[0] == outputs[1]
