"""The package works on exactly its declared runtime dependencies.

The dev extra installs optional packages (``cryptography``, ``networkx``,
test tooling) that a bare ``pip install .`` does not.  This test runs the
core paths in a subprocess whose import system refuses every top-level
package named in the ``dev`` extra but not in ``[project].dependencies``,
so an undeclared runtime import fails here instead of on a user's host.
It also covers the portable NumPy AEAD backend end to end, because the
native one comes from the blocked ``cryptography`` package.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(pyproject: str, key: str):
    """Top-level module names of the ``key = [...]`` requirement list."""
    match = re.search(rf"^{key}\s*=\s*\[(.*?)\]", pyproject, re.MULTILINE | re.DOTALL)
    assert match, f"no {key} list in pyproject.toml"
    specs = re.findall(r"\"([^\"]+)\"", match.group(1))
    return {re.match(r"[A-Za-z0-9_.\-]+", s).group(0).lower().replace("-", "_") for s in specs}


def undeclared_dev_packages():
    pyproject = (ROOT / "pyproject.toml").read_text()
    return sorted(_names(pyproject, "dev") - _names(pyproject, "dependencies"))


SCRIPT = textwrap.dedent(
    """
    import sys

    BLOCKED = set(sys.argv[1:])

    class Block:
        def find_spec(self, fullname, path=None, target=None):
            if fullname.split(".")[0] in BLOCKED:
                raise ModuleNotFoundError(f"{fullname} is not a declared dependency")
            return None

    sys.meta_path.insert(0, Block())

    import repro
    from repro.core import CryptoMode, Dissemination, RexCluster, RexConfig, SharingScheme
    from repro.data.movielens import MovieLensSpec, generate_movielens
    from repro.data.partition import partition_users_across_nodes
    from repro.ml.mf import MfHyperParams
    from repro.net.topology import Topology
    from repro.sim.fleet import MfFleetSim
    from repro.tee.crypto.backend import aead_backend

    assert aead_backend() == "numpy", aead_backend()

    spec = MovieLensSpec(
        name="declared", n_ratings=400, n_items=60, n_users=16, last_updated=2020
    )
    split = generate_movielens(spec, seed=1).split(0.7, seed=1)
    train = partition_users_across_nodes(split.train, 4, seed=1)
    test = partition_users_across_nodes(split.test, 4, seed=1)
    mf = MfHyperParams(k=4, batch_size=8, batches_per_epoch=1)

    config = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=1,
        share_points=5,
        mf=mf,
        crypto_mode=CryptoMode.REAL,
    )
    run = RexCluster(Topology.fully_connected(4), config).run(
        train, test, global_mean=split.train.global_mean()
    )
    assert run.epochs_completed >= 1 and run.total_network_bytes > 0

    fleet = RexConfig(
        scheme=SharingScheme.DATA,
        dissemination=Dissemination.DPSGD,
        epochs=2,
        share_points=5,
        mf=mf,
    )
    result = MfFleetSim(
        list(train), list(test), Topology.ring(4), fleet,
        global_mean=split.train.global_mean(),
    ).run()
    assert len(result.records) == 2
    print("ok")
    """
)


def test_core_paths_run_on_declared_dependencies():
    blocked = undeclared_dev_packages()
    assert "cryptography" in blocked  # the optional native AEAD backend
    env = {k: v for k, v in os.environ.items() if k != "REPRO_AEAD_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *blocked],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
