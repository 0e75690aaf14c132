"""Digest what the CLI prints for the benchmark's ops, one line per workload.

Run from a checkout with ``python tools/cli_digest.py``.  For each workload of
``perfbench/workloads.py`` it takes the warm-up round and rounds 0-2 at seeds
1, 7 and 101, runs every op through ``sympbranch.cli.main`` in this process,
once as written and once more without ``--json``, and hashes each (exit code,
stdout) in order.  Two checkouts that print the same digests print the same
bytes for all of those ops.  ``tools/cli_digests.txt`` holds the expected
output, and CI diffs the two.  Standard library only; no options.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7, 101)
ROUNDS = (0, 1, 2)


def _run(cli, argv) -> tuple[object, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is part of what is compared
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue()


def _forms(argv):
    yield argv
    if "--json" in argv:
        yield [a for a in argv if a != "--json"]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from sympbranch import cli
    import workloads

    for name in workloads.STRATA:
        ops = workloads.Workload(name, SEEDS[0]).warmup()
        for seed in SEEDS:
            workload = workloads.Workload(name, seed)
            ops += [op for r in ROUNDS for op in workload.round(r)]
        digest, runs = hashlib.sha256(), 0
        for op in ops:
            for argv in _forms(op.argv):
                code, text = _run(cli, argv)
                digest.update(f"{code}\n{len(text)}\n{text}".encode())
                runs += 1
        print(f"{name} {runs} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
