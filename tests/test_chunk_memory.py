"""scripts/chunk_memory.py on one small chunk."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "chunk_memory.py"
spec = importlib.util.spec_from_file_location("chunk_memory", SCRIPT)
chunk_memory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(chunk_memory)


def test_phase_peaks_of_a_small_chunk(capsys):
    chunk_memory.main(["--chunks", "2+1"])
    got = json.loads(capsys.readouterr().out)
    assert list(got) == ["2+1"]
    peaks = got["2+1"]
    assert list(peaks) == ["forward", "backward", "gradient_stage"]
    assert all(0.0 < v < 10.0 for v in peaks.values())
