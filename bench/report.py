"""The full report of one input document, its canonical text, and the spans
recorded around each public ``nilfol`` call.

``full_report`` calls the library in a fixed order:

1. ``inputdoc.parse_text`` and ``inputdoc.build``;
2. ``invforms.cohomology`` for k = 0..n, then ``invforms.basic_h1``;
3. ``geometry.mean_curvature`` and ``geometry.bundle_like_check``;
4. ``LieAlgebra.rational_hull`` of the leaf;
5. ``albanese.albanese_lattice``, ``classical_albanese``, ``fiber_report``,
   ``basic_foliation_report`` and ``stratum_codim_check``;
6. ``geometry.coclosed_check`` on each basic rational form, which are the
   forms of the Albanese result from step 5.

``render`` turns the result into text that two versions of the library
must reproduce character for character.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from nilfol import albanese, exactalg, geometry, inputdoc, invforms


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    doc: str


@dataclass
class Tracer:
    """Spans kept in memory; ``span`` pushes and pops the current parent."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, doc: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter_ns(), 0, parent, doc)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds per span name over ``spans[first:]``, minus the time
        covered by child spans."""
        child_ns: dict[int, int] = {}
        for sp in self.spans[first:]:
            if sp.parent is not None:
                child_ns[sp.parent] = child_ns.get(sp.parent, 0) + sp.end_ns - sp.start_ns
        out: dict[str, float] = {}
        for index, sp in enumerate(self.spans[first:], first):
            own = sp.end_ns - sp.start_ns - child_ns.get(index, 0)
            out[sp.name] = out.get(sp.name, 0.0) + own / 1e9
        return out


class NoTracer:
    @contextmanager
    def span(self, name: str, doc: str):
        yield


NO_TRACER = NoTracer()


@dataclass
class Report:
    doc: inputdoc.InputDocument
    fnm: albanese.FoliatedNilmanifold
    cohomology: list[invforms.CohomologyReport]
    basic_h1: invforms.CohomologyReport
    mean_curvature: geometry.MeanCurvature
    bundle_like: geometry.BundleLikeResult
    hull: exactalg.Subspace
    albanese: albanese.AlbaneseResult
    classical: albanese.ClassicalAlbanese
    fiber: albanese.FiberReport
    basic_foliation: albanese.BasicFoliationReport
    stratum: albanese.StratumReport
    coclosed: list[bool]


def full_report(text: str, doc_id: str, tracer=NO_TRACER) -> Report:
    span = tracer.span
    with span("report", doc_id):
        with span("inputdoc.parse_text", doc_id):
            doc = inputdoc.parse_text(text, doc_id)
        with span("inputdoc.build", doc_id):
            fnm = inputdoc.build(doc)
        g, leaf, metric = fnm.algebra, fnm.leaf, fnm.metric
        coh = []
        for k in range(g.n + 1):
            with span("invforms.cohomology", doc_id):
                coh.append(invforms.cohomology(g, k))
        with span("invforms.basic_h1", doc_id):
            bh1 = invforms.basic_h1(g, leaf)
        with span("geometry.mean_curvature", doc_id):
            mc = geometry.mean_curvature(g, leaf, metric)
        with span("geometry.bundle_like_check", doc_id):
            bl = geometry.bundle_like_check(g, leaf, metric)
        with span("liealg.rational_hull", doc_id):
            hull = g.rational_hull(leaf.space)
        with span("albanese.albanese_lattice", doc_id):
            alb = albanese.albanese_lattice(fnm)
        with span("albanese.classical_albanese", doc_id):
            classical = albanese.classical_albanese(fnm)
        with span("albanese.fiber_report", doc_id):
            fiber = albanese.fiber_report(fnm)
        with span("albanese.basic_foliation_report", doc_id):
            bfr = albanese.basic_foliation_report(fnm)
        with span("albanese.stratum_codim_check", doc_id):
            stratum = albanese.stratum_codim_check(fnm)
        coclosed = []
        for form in alb.forms:
            with span("geometry.coclosed_check", doc_id):
                coclosed.append(geometry.coclosed_check(g, leaf, metric, form))
    return Report(doc, fnm, coh, bh1, mc, bl, hull, alb, classical, fiber, bfr, stratum,
                  coclosed)


# -- canonical text --------------------------------------------------------------

def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _rows(rows) -> str:
    return "[" + "; ".join(_vec(r) for r in rows) + "]"


def _space(space) -> str:
    if space is None:
        return "none"
    return f"dim {space.dim} of {space.ambient_dim}: {_rows(space.basis)}"


def _lattice(lattice) -> str:
    return "none" if lattice is None else _rows(lattice.basis)


def render(report: Report) -> str:
    names = report.fnm.algebra.basis_names
    form = lambda f: f.to_string(names)  # noqa: E731
    out = [f"document {report.doc.name} dim {report.fnm.n}"]
    for c in report.cohomology:
        out.append(f"H^{c.degree} dim {c.dim}")
        out.extend(f"  rep {form(r)}" for r in c.representatives)
    bh1 = report.basic_h1
    out.append(f"H^1_basic dim {bh1.dim} space {_space(bh1.space)}")
    out.extend(f"  rep {form(r)}" for r in bh1.representatives)
    mc = report.mean_curvature
    out.append(f"mean_curvature {form(mc.form)} vanishes {mc.vanishes} basic {mc.basic}")
    bl = report.bundle_like
    witness = "none" if bl.witness is None else (
        " ".join(_vec(v) for v in bl.witness[:3]) + f" value {bl.witness[3]}")
    out.append(f"bundle_like {bl.holds} witness {witness}")
    out.append(f"rational_hull {_space(report.hull)}")
    alb = report.albanese
    out.append(f"albanese k {alb.k} trivial {alb.trivial} torus {alb.torus.describe()}")
    out.extend(f"  form {form(f)}" for f in alb.forms)
    out.append(f"  periods {_rows(alb.period_matrix)}")
    out.append(f"  lattice {_lattice(alb.lattice)}")
    cl = report.classical
    torus = "none" if cl.torus is None else cl.torus.describe()
    out.append(f"classical_albanese b1 {cl.b1} status {cl.status} projection_ok "
               f"{cl.projection_ok} torus {torus} lattice {_lattice(cl.lattice)}")
    fb = report.fiber
    out.append(f"fiber {_space(fb.fiber)} subalgebra {fb.is_subalgebra} "
               f"restricted_dense {fb.restricted_dense}")
    bf = report.basic_foliation
    out.append(f"basic_foliation q_b {bf.q_b} h1 {bf.dim_h1_basic_foliation} k {bf.k} "
               f"tprank_ok {bf.tprank_ok} hull {_space(bf.hull)}")
    st = report.stratum
    out.append(f"stratum q {st.q} k {st.k} passes {st.passes} "
               f"closure_leaf_codim {st.closure_leaf_codim}")
    out.append("coclosed " + " ".join(str(c) for c in report.coclosed))
    return "\n".join(out) + "\n"
