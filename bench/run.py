"""Benchmark of nilfol: input document -> full report, end to end and per
module.

    python3 bench/run.py --workload iwasawa9 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each workload is a stream of passes (see ``docs.py``); a pass produces the
full report (see ``report.py``) of every document in it.  Passes repeat
until the next one would overrun ``--seconds``.  Every report is checked
against the expected text recorded in ``expected/`` and against the oracles
in ``oracle.py``; a report that raises or fails a check counts as failed,
and any failure makes the exit code 1.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference speed of the host, which the yardstick in ``speed.py`` measures
while they run; the info line gives the scale factor of the whole run.

* ``wall_s``: median over passes of the time the library spends on one
  pass (the sum of the per-document times); on small-batch the info line
  also gives it as documents per second;
* ``doc_p50_s``, ``doc_p90_s``: percentiles over the documents of a
  document's report time, its median over the passes; each percentile is
  the mean of the values whose rank lies within ``BAND`` of it (see
  ``percentile``).  Taking each document's median first keeps the sample
  set the same whether one pass fits in ``--seconds`` or several.  The info
  line gives the sample count and how many samples lie beyond each
  percentile (a percentile is resolved only with ten or more);
* ``peak_rss_mb``: peak resident memory of this process;
* ``setup_s``: median time for a fresh interpreter to import nilfol and
  parse a minimal document, which loads the input schema.

``--trace 1`` first runs a probe on the first pass's documents: it calls
the inner public functions (``LieAlgebra.validate``, ``levi_civita``,
``d_matrix``, ``kernel``, ``Subspace``, ``basic_rational_basis``) one by
one and measures the d-matrices.  Then it runs each pass twice, plainly
and with a span around every public call of the report.  It prints the
per-module metrics derived from those spans (medians over passes), the
probe's spans and counts, and ``trace.overhead_s``, the median of traced
minus plain pass time over the pairs.
These times are not scaled: the timer of the yardstick would interrupt
the spans.

The second-to-last line of output is an ``info`` object with run metadata
(seed, passes, git sha, Python version, nproc, line count of src/nilfol);
the last line is the result object.  Both, plus the spans of a traced run,
are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    from nilfol import albanese, exactalg, geometry, inputdoc, invforms
except ModuleNotFoundError as exc:
    sys.exit(f"bench: cannot import nilfol from {SRC} ({exc}); run from the root of a checkout")

import docs  # noqa: E402
import oracle  # noqa: E402
import report  # noqa: E402
import speed  # noqa: E402

BAND = 0.05  # half width of the rank window of ``percentile``
SETUP_RUNS = 11
SETUP_SLICES = 50
MINIMAL_DOC = '{"name": "setup", "dim": 1, "brackets": [], "foliation": []}'
# The set-up a fresh interpreter does, then the time it finished and the
# scale of the host's speed, rated on slices run right after in the same
# interpreter.
SETUP_CODE = f"""
import time
from nilfol import inputdoc
inputdoc.parse_text({MINIMAL_DOC!r})
ready = time.perf_counter()
import sys
sys.path.insert(0, {str(BENCH)!r})
import speed
yardstick = speed.Yardstick()
yardstick.run({SETUP_SLICES})
print(ready, yardstick.scale())
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "doc_p50_s": "s",
    "doc_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> span names whose self times it sums, per pass
SPAN_METRICS = {
    "inputdoc.parse_s": ("inputdoc.parse_text",),
    "inputdoc.build_s": ("inputdoc.build",),
    "liealg.rational_hull_s": ("liealg.rational_hull",),
    "invforms.cohomology_s": ("invforms.cohomology",),
    "invforms.basic_h1_s": ("invforms.basic_h1",),
    "geometry.mean_curvature_s": ("geometry.mean_curvature",),
    "geometry.bundle_like_s": ("geometry.bundle_like_check",),
    "geometry.coclosed_s": ("geometry.coclosed_check",),
    "albanese.total_s": ("albanese.albanese_lattice", "albanese.classical_albanese",
                         "albanese.fiber_report", "albanese.basic_foliation_report",
                         "albanese.stratum_codim_check"),
}
# per-layer metric -> probe span name
PROBE_METRICS = {
    "liealg.validate_s": "liealg.validate",
    "invforms.d_matrix_s": "invforms.d_matrix",
    "exactalg.kernel_s": "exactalg.kernel",
    "exactalg.span_s": "exactalg.Subspace",
    "geometry.levi_civita_s": "geometry.levi_civita",
    "albanese.basic_basis_s": "albanese.basic_rational_basis",
}
PROBE_COUNTS = {
    "invforms.d_entries": "count",
    "exactalg.rank_sum": "count",
    "exactalg.max_degree": "count",
    "exactalg.max_coeff_bits": "bit",
    "exactalg.rational_entry_frac": "ratio",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "s" for name in PROBE_METRICS},
    **PROBE_COUNTS,
    "trace.overhead_s": "s",
}


class Checker:
    """Counts reports and records every failed check with its document."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, doc: docs.Doc, text: str, result: report.Report | Exception) -> None:
        self.attempted += 1
        problems = self.problems(doc, text, result)
        if problems:
            self.failed += 1
            self.failures.extend(f"{doc.name}: {p}" for p in problems)

    def problems(self, doc: docs.Doc, text: str, result: report.Report | Exception) -> list[str]:
        if isinstance(result, Exception):
            return [f"raised {type(result).__name__}: {result}"]
        problems = oracle.report_problems([c.dim for c in result.cohomology], doc)
        entry = self.expected.get(doc.name)
        if entry is None or entry["input_sha256"] != sha256(text):
            problems.append("no expected report recorded for this input")
        else:
            mismatch = oracle.text_mismatch(report.render(result), entry["report"])
            if mismatch:
                problems.append(f"report differs from the expected one: {mismatch}")
        return problems


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(batch, checker: Checker, tracer, tag: str, watch=speed.Stopwatch()) -> list[float]:
    """Full reports of a batch; returns the library time per document, as
    ``watch`` measures it."""
    times = []
    for doc in batch:
        text = doc.to_json()
        watch.start()
        try:
            result = report.full_report(text, f"{tag}:{doc.name}", tracer)
        except Exception as exc:  # a report that raises is a counted failure
            result = exc
        times.append(watch.stop())
        checker.check(doc, text, result)
    return times


def measure_setup(runs: int = SETUP_RUNS) -> tuple[float, float]:
    """Median of the setup times of fresh interpreters, each scaled to the
    reference speed, and the median scale.  Time runs from just before the
    child starts to the moment it reports set-up done (``perf_counter`` is
    one clock for all processes)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, scales = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=60)
        if child.returncode != 0:
            raise RuntimeError(f"setup interpreter exited with {child.returncode}: "
                               f"{child.stderr.strip()[-500:]}")
        ready, scale = map(float, child.stdout.split())
        times.append((ready - t0) * scale)
        scales.append(scale)
    return statistics.median(times), statistics.median(scales)


def percentile(samples: list[float], q: float) -> float:
    """Mean of the samples whose rank, as a share of the count, lies within
    ``BAND`` of ``q``; the plain interpolated percentile when none does.
    The report times of a workload fall into clusters, one per kind of
    document, and a plain percentile between two clusters jumps with the
    slowest sample of one and the fastest of the other."""
    ranked = sorted(samples)
    n = len(ranked)
    near = [x for r, x in enumerate(ranked) if abs((r + 0.5) / n - q) <= BAND]
    if near:
        return statistics.fmean(near)
    if n == 1:
        return ranked[0]
    return statistics.quantiles(ranked, n=100, method="inclusive")[round(q * 100) - 1]


def _beyond(samples: list[float], value: float) -> int:
    return sum(1 for x in samples if x > value)


def _time_left(start: float, seconds: float, rounds: list[float]) -> bool:
    """Whether one more round of the typical length fits in ``seconds``."""
    return time.perf_counter() - start + statistics.median(rounds) <= seconds


def plain_run(stream, checker: Checker, seconds: float) -> tuple[dict, dict]:
    setup, setup_scale = measure_setup()
    yardstick = speed.Yardstick()
    pass_times: list[float] = []
    rounds: list[float] = []
    doc_times: dict[str, list[float]] = {}
    start = time.perf_counter()
    while not rounds or _time_left(start, seconds, rounds):
        batch = next(stream)
        t0 = time.perf_counter()
        with yardstick.sampling():
            times = run_pass(batch, checker, report.NO_TRACER, f"p{len(pass_times)}", yardstick)
        rounds.append(time.perf_counter() - t0)
        pass_times.append(sum(times))
        for doc, t in zip(batch, times):
            doc_times.setdefault(doc.name, []).append(t)
    latencies = [statistics.median(ts) for ts in doc_times.values()]
    wall = statistics.median(pass_times)
    p50 = percentile(latencies, 0.5)
    p90 = percentile(latencies, 0.9)
    values = {
        "wall_s": wall,
        "doc_p50_s": p50,
        "doc_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    info = {
        "passes": len(pass_times),
        "pass_s": pass_times,
        "pass_scale": yardstick.scale(),
        "docs_per_pass": len(batch),
        "docs_per_s": len(batch) / wall,
        "doc_latency_samples": len(latencies),  # one per document
        "samples_beyond_p50": _beyond(latencies, p50),
        "samples_beyond_p90": _beyond(latencies, p90),
        "doc_s": latencies,
        "setup_scale": setup_scale,
        "speed_slices": yardstick.slices,
    }
    return values, info


def traced_run(stream, checker: Checker, seconds: float) -> tuple[dict, dict, list]:
    """The probe on the first batch, then pairs of plain and traced passes."""
    start = time.perf_counter()
    batch = next(stream)
    tracer = report.Tracer()
    values = probe(batch, tracer)
    probe_times = tracer.self_times()
    values.update({name: probe_times[span] for name, span in PROBE_METRICS.items()})

    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict[str, float]] = []
    pairs: list[float] = []
    while not pairs or _time_left(start, seconds, pairs):
        if pairs:
            batch = next(stream)
        first = len(tracer.spans)
        tag = f"p{len(pairs)}"
        # alternate which side runs first so neither always runs warm
        if len(pairs) % 2 == 0:
            plain.append(sum(run_pass(batch, checker, report.NO_TRACER, tag)))
            traced.append(sum(run_pass(batch, checker, tracer, tag)))
        else:
            traced.append(sum(run_pass(batch, checker, tracer, tag)))
            plain.append(sum(run_pass(batch, checker, report.NO_TRACER, tag)))
        pairs.append(plain[-1] + traced[-1])
        self_times = tracer.self_times(first)
        per_pass.append({name: sum(self_times.get(s, 0.0) for s in names)
                         for name, names in SPAN_METRICS.items()})
    values.update({name: statistics.median(p[name] for p in per_pass) for name in SPAN_METRICS})
    values["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    info = {"passes": len(pairs), "pass_s": plain, "traced_pass_s": traced,
            "docs_per_pass": len(batch)}
    return values, info, tracer.spans


def probe(batch, tracer) -> dict:
    """Time the inner public calls one by one, outside the compared passes,
    and measure the d-matrices, kernels and image spans of every degree."""
    entries = rational = rank_sum = max_degree = max_bits = 0

    def measure(scalars):
        nonlocal max_degree, max_bits
        for x in scalars:
            max_degree = max(max_degree, len(x.num) - 1, len(x.den) - 1)
            for c in x.num + x.den:
                max_bits = max(max_bits, c.numerator.bit_length(), c.denominator.bit_length())

    for doc in batch:
        doc_id = f"probe:{doc.name}"
        fnm = inputdoc.build(inputdoc.parse_text(doc.to_json(), doc.name))
        g = fnm.algebra
        with tracer.span("liealg.validate", doc_id):
            g.validate()
        with tracer.span("geometry.levi_civita", doc_id):
            geometry.levi_civita(g, fnm.metric)
        with tracer.span("albanese.basic_rational_basis", doc_id):
            albanese.basic_rational_basis(fnm)
        for k in range(g.n):
            with tracer.span("invforms.d_matrix", doc_id):
                d = invforms.d_matrix(g, k)
            with tracer.span("exactalg.kernel", doc_id):
                closed = exactalg.kernel(d)
            with tracer.span("exactalg.Subspace", doc_id):
                image = exactalg.Subspace(d.rows, [d.column(c) for c in range(d.cols)])
            nonzero = [x for row in d.entries for x in row if not x.is_zero]
            entries += len(nonzero)
            rational += sum(1 for x in nonzero if x.is_rational)
            rank_sum += image.dim
            measure(nonzero)
            measure(x for row in closed.basis + image.basis for x in row)
    return {
        "invforms.d_entries": entries,
        "exactalg.rank_sum": rank_sum,
        "exactalg.max_degree": max_degree,
        "exactalg.max_coeff_bits": max_bits,
        "exactalg.rational_entry_frac": rational / entries if entries else 1.0,
    }


def metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "nilfol").glob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "src_nilfol_lines": lines}


def load_expected(workload: str) -> dict:
    return json.loads((BENCH / "expected" / f"{workload}.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=docs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checker = Checker(load_expected(args.workload))
    stream = docs.passes(args.workload, args.seed)
    spans = []
    if args.trace:
        values, info, spans = traced_run(stream, checker, args.seconds)
        units = PER_LAYER_UNITS
    else:
        values, info = plain_run(stream, checker, args.seconds)
        units = END_TO_END_UNITS
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **info, "failed_frac": checker.failed / checker.attempted,
            "failures": checker.failures[:20], **metadata()}
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    if spans:
        (out / f"{stem}-spans.json").write_text(json.dumps(
            [{"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns, "parent": s.parent,
              "doc": s.doc} for s in spans]))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
