"""Span tracing for the traced benchmark run.

Each wrapped function records a span (name, start, end, parent span) in
flat in-memory arrays; nothing is written until the run ends.  Wrappers
are installed only here, in the namespace each caller looks the function
up in (``wishartmin.sampler.smallest_singular_value``,
``wishartmin.exactlaw.logdet_lu``, ...), so the program itself is
unchanged and a function called from inside its own module is not split
into a separate span.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

ROOT = "cli.main"
DENSITY = "exactlaw.ExactLaw.density_detailed"
DETERMINANTS = ("linalg.logdet_lu", "linalg.sqrt_det_antisymmetric")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result, args)`` adds counts."""
        nid = self._intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def write(self, path: str):
        """All spans as gzipped CSV: name,start,end,parent (row index, -1 for roots)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("name,start,end,parent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")

    def summary(self, lo: int, hi: int) -> dict:
        """Calls, total and self seconds per span name over spans [lo, hi).

        Also counts determinant spans made inside a density span, at any depth.
        """
        child = [0.0] * (hi - lo)
        inside = [False] * (hi - lo)
        density = self._ids.get(DENSITY, -2)
        dets = {self._ids[n] for n in DETERMINANTS if n in self._ids}
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        calls, total, self_s = Counter(), Counter(), Counter()
        dets_in_density = 0
        for k in range(hi - lo):
            p = self.parent[lo + k]
            if p >= 0:
                child[p - lo] += dur[k]
                inside[k] = inside[p - lo] or self.name_id[p] == density
        for k in range(hi - lo):
            nid = self.name_id[lo + k]
            name = self.names[nid]
            calls[name] += 1
            total[name] += dur[k]
            self_s[name] += dur[k] - child[k]
            if inside[k] and nid in dets:
                dets_in_density += 1
        return {"calls": calls, "total": total, "self": self_s,
                "dets_in_density": dets_in_density}


def install(tracer: Tracer):
    """Wrap the layer boundaries the per-layer metrics are read from."""
    import numpy as np
    from wishartmin import cli, exactlaw, microlaw, sampler

    def count_batch(batch, _args):
        tracer.counts["sampler.samples"] += batch.count
        tracer.counts["sampler.zero_minima"] += int(np.count_nonzero(batch.values == 0.0))

    def count_grid(_result, args):
        tracer.counts["exactlaw.gap_grid_points"] += len(args[1])

    write_atomic = cli._write_atomic

    def counted_write(path, text):
        # a counter, not a span: writing is part of the CLI's own time
        tracer.counts["cli.bytes_written"] += len(text.encode("utf-8"))
        return write_atomic(path, text)

    cli._write_atomic = counted_write
    # methods on the real classes first, then the names callers construct them by
    tracer.patch(exactlaw.ExactLaw, "density_detailed", DENSITY)
    tracer.patch(exactlaw.ExactLaw, "gap_grid", "exactlaw.ExactLaw.gap_grid", count_grid)
    tracer.patch(exactlaw.KernelPolynomial, "evaluate", "exactlaw.KernelPolynomial.evaluate")
    tracer.patch(sampler.RngStream, "gaussians", "sampler.RngStream.gaussians")
    for owner, attr, layer, after in (
        (cli, "load_spectrum", "spectra", None),
        (cli, "make_config", "spectra", None),
        (cli, "ExactLaw", "exactlaw", None),
        (cli, "make_micro_config", "microlaw", None),
        (cli, "micro_gap", "microlaw", None),
        (cli, "micro_pmin", "microlaw", None),
        (cli, "micro_rescale", "microlaw", None),
        (cli, "sample_batch", "sampler", count_batch),
        (cli, "batch_csv_text", "sampler", None),
        (cli, "batch_metadata", "sampler", None),
        (cli, "ks_statistic", "stats", None),
        (cli, "build_histogram", "stats", None),
        (exactlaw, "elementary_symmetric", "spectra", None),
        (exactlaw, "inverse_trace_half_beta", "spectra", None),
        (exactlaw, "logdet_lu", "linalg", None),
        (exactlaw, "sqrt_det_antisymmetric", "linalg", None),
        (microlaw, "eta_scale", "spectra", None),
        (microlaw, "bessel_i_signedlog", "numerics", None),
        (microlaw, "logdet_lu", "linalg", None),
        (microlaw, "sqrt_det_antisymmetric", "linalg", None),
        (sampler, "RngStream", "sampler", None),
        (sampler, "smallest_singular_value", "linalg", None),
    ):
        tracer.patch(owner, attr, f"{layer}.{attr}", after)
    return tracer.wrap(ROOT, cli.main)


def layer_metrics(summary: dict, counts: Counter) -> dict:
    """The per-layer metrics of one round from its span summary and counters."""
    calls, total, self_s = summary["calls"], summary["total"], summary["self"]
    samples = counts["sampler.samples"]
    batch_s = total["sampler.sample_batch"]
    density_calls = calls[DENSITY]
    return {
        "cli.self_s": self_s[ROOT],
        "cli.bytes_written": counts["cli.bytes_written"],
        "spectra.self_s": sum(v for k, v in self_s.items() if k.startswith("spectra.")),
        "numerics.bessel_calls": calls["numerics.bessel_i_signedlog"],
        "numerics.bessel_s": total["numerics.bessel_i_signedlog"],
        "exactlaw.init_s": total["exactlaw.ExactLaw"],
        "exactlaw.poly_evals": calls["exactlaw.KernelPolynomial.evaluate"],
        "exactlaw.poly_eval_s": total["exactlaw.KernelPolynomial.evaluate"],
        "exactlaw.density_calls": density_calls,
        "exactlaw.density_s": total[DENSITY],
        "exactlaw.dets_per_density": (
            summary["dets_in_density"] / density_calls if density_calls else 0.0),
        "exactlaw.gap_grid_points": counts["exactlaw.gap_grid_points"],
        "exactlaw.gap_grid_s": total["exactlaw.ExactLaw.gap_grid"],
        "linalg.logdet_calls": calls["linalg.logdet_lu"],
        "linalg.logdet_s": total["linalg.logdet_lu"],
        "linalg.antisym_sqrt_calls": calls["linalg.sqrt_det_antisymmetric"],
        "linalg.antisym_sqrt_s": total["linalg.sqrt_det_antisymmetric"],
        "linalg.svd_calls": calls["linalg.smallest_singular_value"],
        "linalg.svd_s": total["linalg.smallest_singular_value"],
        "microlaw.gap_calls": calls["microlaw.micro_gap"],
        "microlaw.gap_s": total["microlaw.micro_gap"],
        "microlaw.pmin_calls": calls["microlaw.micro_pmin"],
        "microlaw.pmin_s": total["microlaw.micro_pmin"],
        "sampler.samples": samples,
        "sampler.batch_s": batch_s,
        "sampler.samples_per_s": samples / batch_s if batch_s else 0.0,
        "sampler.streams": calls["sampler.RngStream"],
        "sampler.stream_init_s": total["sampler.RngStream"],
        "sampler.draw_s": total["sampler.RngStream.gaussians"],
        "sampler.zero_minima": counts["sampler.zero_minima"],
        "stats.ks_s": total["stats.ks_statistic"],
        "stats.hist_s": total["stats.build_histogram"],
    }
