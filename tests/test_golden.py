"""Every benchmark command prints the bytes recorded in `perfbench/golden.json`.

The commands are those of `perfbench/workloads.golden_argvs()`, run in
process through `cli.main`; each stdout is compared with its recorded digest
by `perfbench/oracle.digest` under the key `oracle.key_of(argv)`.  The files
under `perfbench/` are only read.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from oracle import digest, key_of  # noqa: E402
from workloads import golden_argvs  # noqa: E402

from semireg import cli  # noqa: E402


def test_every_golden_command_prints_its_recorded_bytes():
    recorded = json.loads((PERFBENCH / "golden.json").read_text())["outputs"]
    argvs = golden_argvs()
    assert len(argvs) == 2169
    differing = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0 or digest(out.getvalue()) != recorded[key_of(argv)]:
            differing.append(key_of(argv))
    assert differing == []
