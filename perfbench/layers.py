"""What the benchmark traces in ``sebd`` and the per-layer metrics it derives.

Layers are the program's modules. ``Layers(tracer, full=False)`` wraps
only the three sampler entry points, which is what the untraced run needs
to time trajectories; ``full=True`` wraps the public functions the
workloads reach and a metric reads, plus ``numpy.linalg.qr``/``svd`` as
leaves. ``max_bond`` is wrapped so that its time, which the sampler spends
after every gate, counts as ``mps`` work and not as sampler dispatch.

Denominators: ``mps.*`` and ``sampler.*`` counts and seconds are per
trajectory; ``lightcone.compile_calls``, ``oracles.*``, ``experiments.*``,
``analysis.*`` and ``serialize.*`` are per command.
"""

from __future__ import annotations

import statistics

import numpy.linalg

import sebd.analysis
import sebd.cli
import sebd.experiments
import sebd.lightcone
import sebd.mps
import sebd.oracles.mpo
import sebd.sampler
import sebd.serialize

from tracer import Tracer, patch_everywhere

__all__ = ["Layers", "ENTRIES"]

ENTRIES = ("sample", "estimate_probability", "purification_run")

_FUNCTIONS = (
    (sebd.lightcone, "lightcone", ("compile_sebd",)),
    (sebd.sampler, "sampler", ("run_trajectory",)),
    (sebd.oracles.mpo, "oracles.mpo", ("mpo_evolve",)),
    (sebd.analysis, "analysis", ("fit_tau",)),
    (sebd.experiments, "experiments", ("benchmark_ratios", "purification_point")),
    (sebd.serialize, "serialize", ("write_csv", "format_sample_record", "save_circuit")),
)
_MPS_METHODS = (
    "apply_1q", "apply_2q", "apply_kraus", "measure_reset", "project_onto",
    "attach_reference", "reference_entropy", "max_bond",
)


def _name(layer: str, fn: str) -> str:
    # oracles.mpo is a layer of its own and names its one span after itself
    return layer if layer == "oracles.mpo" else f"{layer}.{fn}"


class Layers:
    """Installs the wrappers and collects per-trajectory observations."""

    def __init__(self, tracer: Tracer, full: bool):
        self.tracer = tracer
        self.traj_ms: list = []
        self.discarded: list = []
        self.chi_peak = 0
        self.circuit: dict | None = None
        self._open = None  # (state, start) of the running trajectory
        for fn in ENTRIES:
            self._patch(sebd.sampler, "sampler", fn, self._close_hook if full else None)
        if not full:
            return
        after = {"compile_sebd": self._on_compile, "run_trajectory": self._close_hook}
        for module, layer, names in _FUNCTIONS:
            for fn in names:
                self._patch(module, layer, fn, after.get(fn))
        cls = sebd.mps.MatrixProductState
        for meth in _MPS_METHODS:
            hook = self._on_2q if meth == "apply_2q" else None
            setattr(cls, meth, tracer.wrap(f"mps.{meth}", getattr(cls, meth), hook))
        build = cls.__dict__["new_product_state"].__func__
        cls.new_product_state = classmethod(
            tracer.wrap("mps.new_product_state", build, self._on_new_state)
        )
        numpy.linalg.qr = tracer.wrap_leaf("qr", numpy.linalg.qr)
        numpy.linalg.svd = tracer.wrap_leaf("svd", numpy.linalg.svd)

    def _patch(self, module, layer, fn, after):
        old = getattr(module, fn)
        new = self.tracer.wrap(_name(layer, fn), old, after)
        if not patch_everywhere("sebd", old, new):
            raise RuntimeError(f"{module.__name__}.{fn} is bound nowhere")

    # -- hooks ---------------------------------------------------------------

    def _on_new_state(self, args, state, start, end):
        self._close(start)
        self._open = (state, start)

    def _close_hook(self, args, result, start, end):
        self._close(end)

    def _close(self, t: float):
        if self._open is None:
            return
        state, start = self._open
        self.traj_ms.append(1e3 * (t - start))
        self.discarded.append(state.trunc_log)
        self._open = None

    def _on_2q(self, args, result, start, end):
        if self.tracer.depth("mps.apply_2q") == 0:
            self.chi_peak = max(self.chi_peak, max(args[0].bond_dims()))

    def _on_compile(self, args, eff, start, end):
        if self.circuit is not None:
            return
        gate2 = [ev for ev in eff.events() if isinstance(ev, sebd.lightcone.Gate) and ev.j is not None]
        self.circuit = {
            "slots": eff.n_sites,
            "gate2": len(gate2),
            # apply_2q routes a gate of range r with r - 1 swaps in and r - 1 out
            "swaps": sum(2 * (abs(ev.i - ev.j) - 1) for ev in gate2),
        }

    # -- readings ------------------------------------------------------------

    def sampler_seconds(self) -> float:
        """Inclusive seconds spent inside the sampler entry points so far."""
        stats = self.tracer.stats
        return sum(stats[f"sampler.{fn}"].incl_s for fn in ENTRIES if f"sampler.{fn}" in stats)

    def metrics(self, n_traj: int, n_cmd: int, failed: int, out_bytes: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        st = self.tracer.stat
        stats = self.tracer.stats
        per_traj = 1.0 / max(n_traj, 1)
        per_cmd = 1.0 / max(n_cmd, 1)

        def leaf(kind):
            names = [n for n in stats if n.startswith("mps.") and n.endswith(":" + kind)]
            return sum(stats[n].calls for n in names), sum(stats[n].self_s for n in names)

        def self_sum(prefix):
            return sum(s.self_s for n, s in stats.items() if n.startswith(prefix) and ":" not in n)

        qr_calls, qr_s = leaf("qr")
        svd_calls, svd_s = leaf("svd")
        gate_svds = st("mps.apply_2q:svd").calls
        compile_ = st("lightcone.compile_sebd")
        circuit = self.circuit or {"slots": 0, "gate2": 0, "swaps": 0}
        ms = sorted(self.traj_ms)
        out = {
            "lightcone.compile_s": (compile_.incl_s / max(compile_.calls, 1), "s"),
            "lightcone.compile_calls": (compile_.calls * per_cmd, "count"),
            "lightcone.slots": (circuit["slots"], "count"),
            "lightcone.gate2_per_traj": (circuit["gate2"], "count"),
            "lightcone.swaps_per_traj": (circuit["swaps"], "count"),
            "mps.qr_calls": (qr_calls * per_traj, "count"),
            "mps.qr_s": (qr_s * per_traj, "s"),
            "mps.svd_calls": (svd_calls * per_traj, "count"),
            "mps.svd_s": (svd_s * per_traj, "s"),
            "mps.useful_svd_ratio": (st("mps.apply_2q").calls / gate_svds if gate_svds else 0.0, "ratio"),
            "mps.chi_peak": (self.chi_peak, "count"),
            "mps.discarded_weight_mean": (statistics.fmean(self.discarded) if self.discarded else 0.0, "prob"),
            "sampler.self_s": (self_sum("sampler.") * per_traj, "s"),
            "sampler.traj_p50_ms": (_quantile(ms, 0.5), "ms"),
            "sampler.traj_p90_ms": (_quantile(ms, 0.9), "ms"),
            "sampler.traj_samples": (len(ms), "count"),
            "sampler.failed": (failed, "count"),
            "oracles.mpo.calls": (st("oracles.mpo").calls * per_cmd, "count"),
            "oracles.mpo.s": (st("oracles.mpo").incl_s * per_cmd, "s"),
            "experiments.self_s": (self_sum("experiments.") * per_cmd, "s"),
            "analysis.fit_tau_s": (st("analysis.fit_tau").incl_s * per_cmd, "s"),
            "serialize.write_s": (sum(s.incl_s for n, s in stats.items() if n.startswith("serialize.")) * per_cmd, "s"),
            "serialize.bytes": (out_bytes * per_cmd, "B"),
        }
        for meth in ("apply_1q", "apply_2q", "apply_kraus", "measure_reset", "project_onto",
                     "attach_reference", "reference_entropy"):
            out[f"mps.{meth}.calls"] = (st(f"mps.{meth}").calls * per_traj, "count")
            out[f"mps.{meth}.self_s"] = (st(f"mps.{meth}").self_s * per_traj, "s")
        return out

    def self_seconds(self) -> float:
        """Self time of every span, hooks included: never more than the traced wall time."""
        return sum(s.self_s for s in self.tracer.stats.values())


def _quantile(sorted_vals: list, q: float) -> float:
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]
