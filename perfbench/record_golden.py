#!/usr/bin/env python3
"""Record golden.json: the digest of every benchmark command's stdout.

    python3 perfbench/record_golden.py

Runs every command a workload can send (all seeds draw from one finite
shape pool), refuses to record unless each output passes the independent
checks of `oracle.py`, and stores a 64-bit SHA-256 prefix of each output
plus the per-suite case counts of the `verify` commands.  Re-record only
when a change to the CLI's output bytes is intended, and say so in the
change's notes: the benchmark counts any byte difference as a failed op.
"""

from __future__ import annotations

import json
import sys

from oracle import SUITE_LINE, Oracle, digest, key_of
from run import HERE, ROOT, call, commit_hash, load_program
from workloads import golden_argvs


def main() -> int:
    cli = load_program()
    if cli is None:
        print("error: no semireg package under src/", file=sys.stderr)
        return 2
    oracle = Oracle(ROOT, {"outputs": {}, "verify_checked": {}})
    outputs, verify_checked, bad = {}, {}, []
    for argv in golden_argvs():
        *_, rc, text = call(cli, argv)
        reason = f"exit status {rc!r}" if rc != 0 else oracle.independent(argv, text)
        if reason is not None:
            bad.append(f"{key_of(argv)}: {reason}")
            continue
        outputs[key_of(argv)] = digest(text)
        if argv[0] == "verify":
            verify_checked[argv[1]] = {
                m.group(1): int(m.group(3))
                for m in map(SUITE_LINE.match, text.splitlines()) if m
            }
    if bad:
        print("\n".join(bad[:20]), file=sys.stderr)
        print(f"error: {len(bad)} commands failed their checks; nothing recorded",
              file=sys.stderr)
        return 1
    golden = {"recorded_at": commit_hash(), "outputs": outputs,
              "verify_checked": verify_checked}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(outputs)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
