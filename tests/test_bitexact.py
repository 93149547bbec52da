"""scripts/bitexact.py, the byte-for-byte check that bit-exact changes are
judged by: two dumps of one tree from fresh interpreters compare equal, and
a one-ulp change to a single array makes `compare` fail naming it (about
9 s in all)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bitexact.py"


def bitexact(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=300,
                          env=env)


def test_dumps_agree_and_a_changed_array_is_found(tmp_path):
    a, b, changed = tmp_path / "a.npz", tmp_path / "b.npz", tmp_path / "c.npz"
    for out in (a, b):
        done = bitexact("dump", out)
        assert done.returncode == 0, done.stderr

    same = bitexact("compare", a, b)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 of 4304 arrays differ; 0 names in only one file" in same.stdout

    arrays = dict(np.load(a))
    name = "train/b1/dec.out.b"
    arrays[name] = arrays[name].copy()
    arrays[name][0] = np.nextafter(arrays[name][0], np.inf)
    np.savez(changed, **arrays)
    differ = bitexact("compare", a, changed)
    assert differ.returncode == 1
    assert f"differs: {name} " in differ.stdout
    assert "1 of 4304 arrays differ" in differ.stdout
