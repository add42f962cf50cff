"""Per-layer metrics from the span files of traced jobs.

A layer is one photonflow module.  A span's self time is its duration
minus the durations of its child spans (calls are nested on one thread,
so children never overlap).  Times and call counts are reported per
workload cycle, so they do not depend on how many cycles a run fits in;
a function that no longer exists reports 0 calls and 0 s.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path

MIB = float(1 << 20)
FLOWS = ("planewaves.analytic_probability_flow", "planewaves.analytic_weber_flow")

# (metric, unit).  Names are <module>.<function>.<stat> or <module>.<stat>.
PER_LAYER = (
    ("spectral.self_s", "s"),
    ("spectral.calls", "count"),
    ("spectral.evolve.self_s", "s"),
    ("spectral.evolve.calls", "count"),
    ("spectral.kgrid.self_s", "s"),
    ("spectral.forward_transform.self_s", "s"),
    ("spectral.transversality_residual.self_s", "s"),
    ("spectral.transversality_residual.calls", "count"),
    ("spectral.evolve_fft_ratio", "1"),
    ("spectral.kgrid.result_mib", "MiB"),
    ("photon.self_s", "s"),
    ("photon.calls", "count"),
    ("photon.photon_number.self_s", "s"),
    ("photon.normalize_single_photon.self_s", "s"),
    ("photon.photon_wavefunction.self_s", "s"),
    ("photon.to_position.self_s", "s"),
    ("photon.probability_flow.self_s", "s"),
    ("fieldio.self_s", "s"),
    ("fieldio.write_weber.self_s", "s"),
    ("fieldio.write_weber.mib_per_s", "MiB/s"),
    ("fieldio.read_weber.self_s", "s"),
    ("fieldio.read_weber.mib_per_s", "MiB/s"),
    ("planewaves.self_s", "s"),
    ("planewaves.calls", "count"),
    ("planewaves.analytic_probability_flow.calls", "count"),
    ("planewaves.analytic_probability_flow.self_s", "s"),
    ("planewaves.analytic_weber_flow.calls", "count"),
    ("planewaves.analytic_weber_flow.self_s", "s"),
    ("planewaves.coalesce.calls", "count"),
    ("planewaves.us_per_flow_eval", "us"),
    ("planewaves.points_per_flow_call", "count"),
    ("planewaves.sample_to_grid.self_s", "s"),
    ("planewaves.sample_to_grid.point_components_per_s", "1/s"),
    ("bohm.self_s", "s"),
    ("bohm.calls", "count"),
    ("bohm.integrate_trajectory.self_s", "s"),
    ("bohm.integrate_trajectory.calls", "count"),
    ("bohm.sample_points_on_line.self_s", "s"),
    ("bohm.frame_consistency_check.self_s", "s"),
    ("bohm.guidance_evals_per_step", "count"),
    ("bohm.node_stop_ratio", "1"),
    ("lorentz.self_s", "s"),
    ("lorentz.calls", "count"),
    ("lorentz.boost_plane_wave.self_s", "s"),
    ("lorentz.boost_plane_wave.calls", "count"),
    ("lorentz.audit_four_vector.self_s", "s"),
    ("fields.self_s", "s"),
    ("fields.total_energy.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.load_config.self_s", "s"),
    ("process.import_s", "s"),
    ("trace.overhead_ratio", "1"),
)


def _ratio(num, den):
    return num / den if den else 0.0


class LayerTotals:
    """Running totals over the span files of a run's traced jobs."""

    def __init__(self):
        self.self_s = Counter()      # by function and by layer
        self.total_s = Counter()     # inclusive time, by function
        self.calls = Counter()
        self.extra = Counter()       # summed span extras, by "<function>.<key>"
        self.kgrid_bytes = 0
        self.flow_us = []            # inclusive time of each flow evaluation
        self.flow_points = []
        self.import_s = []
        self.counts = Counter()      # counted private helpers

    def add(self, span_file: Path) -> None:
        dump = json.loads(span_file.read_text())
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, extra), child_s in zip(spans, child):
            layer = name.split(".", 1)[0]
            self_s = end - start - child_s
            for key in (name, layer):
                self.self_s[key] += self_s
                self.calls[key] += 1
            self.total_s[name] += end - start
            if name in FLOWS:
                self.flow_us.append((end - start) * 1e6)
                self.flow_points.append(extra["points"])
            for key, value in (extra or {}).items():
                if key == "result_bytes":
                    self.kgrid_bytes = max(self.kgrid_bytes, value)
                else:
                    self.extra[f"{name}.{key}"] += value
        self.import_s.append(dump["import_s"])
        self.counts.update(dump["counts"])

    def metrics(self, cycles: int, overhead_ratio: float) -> dict:
        per = 1.0 / cycles
        s, n, x = self.self_s, self.calls, self.extra
        values = {}
        for name, unit in PER_LAYER:
            if name.endswith(".self_s"):
                values[name] = s[name[:-len(".self_s")]] * per
            elif name.endswith(".calls"):
                values[name] = n[name[:-len(".calls")]] * per
        integrate = "bohm.integrate_trajectory"
        evals = self.counts[f"bohm._velocity_masked@{integrate}"]
        values.update({
            "spectral.evolve_fft_ratio": _ratio(
                _ratio(s["spectral.evolve"], n["spectral.evolve"]),
                _ratio(s["spectral.forward_transform"], n["spectral.forward_transform"])),
            "spectral.kgrid.result_mib": self.kgrid_bytes / MIB,
            "fieldio.write_weber.mib_per_s": _ratio(
                x["fieldio.write_weber.bytes"] / MIB, s["fieldio.write_weber"]),
            "fieldio.read_weber.mib_per_s": _ratio(
                x["fieldio.read_weber.bytes"] / MIB, s["fieldio.read_weber"]),
            "planewaves.us_per_flow_eval": statistics.median(self.flow_us) if self.flow_us else 0.0,
            "planewaves.points_per_flow_call": (statistics.median(self.flow_points)
                                                if self.flow_points else 0.0),
            # inclusive: the evaluation itself runs in the eval_weber child span
            "planewaves.sample_to_grid.point_components_per_s": _ratio(
                x["planewaves.sample_to_grid.point_components"],
                self.total_s["planewaves.sample_to_grid"]),
            # one evaluation starts each trajectory; the rest are per RK4 step
            "bohm.guidance_evals_per_step": _ratio(
                evals - n[integrate], x[f"{integrate}.steps"]),
            "bohm.node_stop_ratio": _ratio(x[f"{integrate}.node_hit"], n[integrate]),
            "process.import_s": statistics.median(self.import_s) if self.import_s else 0.0,
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
