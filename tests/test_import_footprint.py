"""What ``import repro`` must not load.

``xml.sax.saxutils`` imports ``urllib.request``, which brings in
``http.client``, ``email`` and ``ssl``: tens of milliseconds of every
process start, for two string functions.  ``repro.xmlkit.serialize`` has
its own byte-identical ``escape``/``quoteattr``; this keeps the heavy
modules out of a fresh interpreter's ``import repro``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("urllib.request", "http.client", "email", "ssl", "xml.sax.saxutils")


def test_import_repro_loads_no_url_or_mail_stack():
    probe = (
        "import sys, repro\n"
        f"print(' '.join(m for m in {UNWANTED!r} if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out.split() == []
