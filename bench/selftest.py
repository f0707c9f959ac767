"""Self-tests of the benchmark's own checks.

    python3 bench/selftest.py

Exits 0 when the oracle, the expected-output gate and the metric names
behave; prints each failed check and exits 1 otherwise.  Takes about ten
seconds.
"""

from __future__ import annotations

import itertools
import json
import sys

import run  # sets up the import path for nilfol

import docs
import oracle
import report

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def test_oracle_rejects_broken_duality() -> None:
    expect(oracle.betti_violations([1, 2, 2, 1]) == [], "Heisenberg Betti vector rejected")
    expect(any("duality" in p for p in oracle.betti_violations([1, 2, 1, 1])),
           "Betti vector breaking duality accepted")
    expect(oracle.betti_violations([2, 2]) != [], "b_0 = 2 accepted")
    expect(oracle.b1_oracle(docs.iwasawa9_docs()[0]) == 5, "b_1 oracle on iwasawa9 is not 5")


def test_gate_rejects_corrupted_expected_output() -> None:
    doc = docs.small_doc(4)
    text = doc.to_json()
    result = report.full_report(text, doc.name)
    expected = run.load_expected("small-batch")
    checker = run.Checker(expected)
    expect(checker.problems(doc, text, result) == [], "recorded report does not match")

    entry = expected[doc.name]
    corrupted = entry["report"].replace("dim", "dim 1", 1)
    checker = run.Checker({doc.name: {**entry, "report": corrupted}})
    expect(any("differs" in p for p in checker.problems(doc, text, result)),
           "corrupted expected report accepted")
    checker = run.Checker({doc.name: {**entry, "input_sha256": "0" * 64}})
    expect(checker.problems(doc, text, result) != [], "report for another input accepted")
    checker = run.Checker(expected)
    checker.check(doc, text, ValueError("boom"))
    expect(checker.failed == 1 and checker.attempted == 1, "raising report not counted")


def test_metric_names_match_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == units, f"{key} in BENCHMARK.json differs from run.py: "
                                  f"{sorted(set(declared) ^ set(units))}")
    batch = [docs.small_doc(0), docs.small_doc(8)]
    checker = run.Checker(run.load_expected("small-batch"))
    values, _ = run.plain_run(itertools.repeat(batch), checker, 0)
    expect(set(values) == set(run.END_TO_END_UNITS), "plain run metric names differ")
    values, _, spans = run.traced_run(itertools.repeat(batch), checker, 0)
    expect(set(values) == set(run.PER_LAYER_UNITS), "traced run metric names differ")
    expect(bool(spans) and all(
        s.parent is None or spans[s.parent].start_ns <= s.start_ns <= s.end_ns
        <= spans[s.parent].end_ns for s in spans), "spans missing or not nested in their parent")
    expect(checker.failed == 0, f"checks failed: {checker.failures}")


def main() -> int:
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            before = len(FAILURES)
            test()
            print(f"{name}: {'ok' if len(FAILURES) == before else 'FAILED'}")
    for message in FAILURES:
        print(f"  {message}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
