"""Injection-ledger benchmark entry point.

Run from the root of a checkout of the repository:

    python3 ledgerbench/run.py --workload regfile --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (injections per second and set-up time);
``--trace 1`` runs the same campaign with spans around every layer call
and reports the per-layer breakdown instead, writing the spans to
``ledgerbench/out/``.  ``--setup-only`` times one set-up and prints
just its seconds; a run uses it to time set-ups in fresh processes.
See ``ledgerbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"ledgerbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from ledger import WORKLOADS, run_workload, set_up_only

    if args.workload not in WORKLOADS:
        print(
            f"ledgerbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        print(set_up_only(args.workload, args.seed))
        return 0
    out_dir = os.path.join(HERE, "out")
    # Pool workers spool golden references through temporary files.
    tempfile.tempdir = os.path.join(out_dir, "tmp")
    os.makedirs(tempfile.tempdir, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
