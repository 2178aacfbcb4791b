"""Freeze the reference outputs of every workload for the default seed.

Run from the repository root on a commit whose outputs are trusted::

    PYTHONPATH=src python3 perfbench/freeze.py

It rewrites ``perfbench/references.json``: the output text of every
operation of every workload at both sizes, keyed by the operation's
command, plus the closed-form values the solver checks compare against.
"""

import json
import sys
import tempfile

import workloads
from bench import execute


def main():
    from seqkey.binary import BscCascadeSource, c_wsk_bsc

    outputs = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads.WORKLOADS:
            for size in workloads.SIZES:
                for op in workloads.build(name, workloads.DEFAULT_SEED, size,
                                          workdir):
                    rc, text, _ = execute(op, workdir)
                    if rc != 0:
                        sys.exit(f"{op.key}: exit code {rc}\n{text}")
                    outputs[op.key] = text
    refs = {
        "seed": workloads.DEFAULT_SEED,
        "closed_forms": {workloads.CLOSED_FORM_OPTIMIZE: c_wsk_bsc(
            BscCascadeSource(0.1, 0.2), 0.3)},
        "outputs": outputs,
    }
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1,
                                               sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
