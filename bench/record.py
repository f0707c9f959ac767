"""Record the expected report of every pool document.

    python3 bench/record.py [workload ...]

Writes ``bench/expected/<workload>.json``, mapping each document name to the
SHA-256 of its input text and the canonical text of its report.  A document
whose report fails an oracle check is not recorded, and the script exits 1.
Re-record only when the benchmark's documents or report format change,
never to accept a changed library output.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, sha256  # sets up the import path for nilfol

import docs
import oracle
import report


def record(workload: str) -> list[str]:
    expected, problems = {}, []
    for doc in docs.pool(workload):
        text = doc.to_json()
        result = report.full_report(text, doc.name)
        found = oracle.report_problems([c.dim for c in result.cohomology], doc)
        if found:
            problems += [f"{doc.name}: {p}" for p in found]
            continue
        expected[doc.name] = {"input_sha256": sha256(text), "report": report.render(result)}
    path = BENCH / "expected" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"{path.name}: {len(expected)} documents", flush=True)
    return problems


def main() -> int:
    problems = []
    for workload in sys.argv[1:] or docs.WORKLOADS:
        problems += record(workload)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
