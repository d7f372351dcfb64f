"""The serving example runs end to end as a script.

``examples/movie_recommender.py`` trains a 30-node deployment and serves
node 0's snapshot through the one-endpoint fleet driver; this runs it in
a subprocess, exactly as a reader would, and checks the lines whose
values follow from the seeded workload alone.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_movie_recommender_example(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "movie_recommender.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "served 763 queries:" in out and ", 0 shed" in out
    assert "exclusion check passed" in out
