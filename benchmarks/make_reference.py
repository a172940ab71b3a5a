"""Record the reference outputs of every workload at the default seed.

    python3 benchmarks/make_reference.py

Writes ``reference/<workload>.json``: the workload sizes and the summary of
its outputs (see ``workloads.summarize``) from one ``--workers 1`` run at
``DEFAULT_SEED``. The benchmark compares default-seed runs with these files.
Re-record only when the workload sizes change, from a commit whose outputs
are trusted, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from worker import invoke, set_up
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, check_outputs, reference_path, summarize


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        set_up(w)
        with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parents[1]) as tmp:
            op = invoke(w, DEFAULT_SEED, 1, Path(tmp) / "op")
        problems, _ = check_outputs(w, op.rc, op.files)
        if op.error or problems:
            print(f"{w.name}: {op.error or problems}", file=sys.stderr)
            return 1
        doc = {"seed": DEFAULT_SEED, "sizes": w.sizes(), "summary": summarize(w, op.files)}
        reference_path(w).write_text(json.dumps(doc) + "\n")
        print(f"wrote {reference_path(w)} ({op.wall:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
