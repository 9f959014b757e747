"""``import repro`` stays light: an optional dependency loads on use."""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_import_repro_loads_no_scipy():
    # scipy backs only repro.nn.masks (the ``masks`` extra).  The
    # package, its CLI and a spawn shard worker's imports must not
    # pull it in, so a fresh interpreter is the only honest probe.
    probe = (
        "import sys\n"
        "import repro, repro.cli, repro.serving.shard.worker\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] == 'scipy'))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == "[]"
