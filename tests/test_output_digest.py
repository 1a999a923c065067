"""``tools/output_digest.py``, the output-identity check, runs and is deterministic."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_digest_prints_the_same_five_digests_twice():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, str(ROOT / "tools" / "output_digest.py"), "--workload", "train", "--seed", "1"]
    outputs = []
    for _ in range(2):
        run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout.splitlines())
    names = [line.split(" ")[0] for line in outputs[0]]
    assert names == ["rows", "online", "report", "loss", "branches"]
    assert all(re.fullmatch(r"[a-z]+ [0-9a-f]{64}", line) for line in outputs[0])
    assert outputs[0] == outputs[1]
