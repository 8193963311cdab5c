"""Span tracing of rieszmc's public functions, installed from outside.

``Tracer.install`` replaces each traced function or method by a wrapper, in
every ``rieszmc`` module that holds it, and ``restore`` puts the originals
back.  A wrapper records one span per call: its id, the id of the span that
was open when the call began (the parent), the name, the start and end in
nanoseconds, and the run id (the benchmark operation the call belongs to).
Spans are kept in a flat in-memory array and written out once, by ``dump``.
Counters are bumped at the same boundaries from each call's arguments and
result.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (layer, module, attribute or Class.method); the span name is
# "<layer>.<attribute>" except for the model handles, which share one name
# per method whatever the model.
TRACED = [
    ("energy", "energy", "pair_log_energies"),
    ("energy", "energy", "config_energy"),
    ("sampler", "sampler", "generate_configuration"),
    ("sampler", "sampler", "quantile_mapped_configuration"),
    ("sampler", "sampler", "accept_candidate"),
    ("smc", "smc", "run_filter"),
    ("smc", "smc", "RieszProposalSet.sample"),
    ("smc", "smc", "RieszProposalSet.logpdf"),
    ("smc", "smc", "RieszProposalSet.standard_normal"),
    ("smc", "smc", "LgssFilterModel.proposal_moments"),
    ("smc", "smc", "LgssFilterModel.observation_logpdf"),
    ("smc", "smc", "LgssFilterModel.transition_logpdf"),
    ("smc", "smc", "SvFilterModel.proposal_moments"),
    ("smc", "smc", "SvFilterModel.observation_logpdf"),
    ("smc", "smc", "SvFilterModel.transition_logpdf"),
    ("ssm", "ssm", "lgss_optimal_proposal"),
    ("ssm", "ssm", "lgss_transition_logpdf"),
    ("ssm", "ssm", "lgss_observation_logpdf"),
    ("ssm", "ssm", "sv_transition_logpdf"),
    ("ssm", "ssm", "sv_observation_logpdf"),
    ("pmh", "pmh", "pmh_run"),
    ("cli", "cli", "main"),
    ("cli", "cli", "run_experiment"),
    ("cli", "cli", "load_prices_csv"),
]

LAYERS = ("energy", "sampler", "smc", "ssm", "pmh", "cli")

# per-layer metrics reported by the traced run, in BENCHMARK.json order, with
# the direction an optimisation should move them.  Times and counts are per
# timed operation; setup.* are totals of the set-up phase.
PER_LAYER = [
    ("energy.busy_s", "s", "lower"), ("energy.self_s", "s", "lower"),
    ("energy.pair_log_energies.s", "s", "lower"),
    ("energy.pair_log_energies.calls", "count", "lower"),
    ("energy.pair_terms", "count", "lower"),
    ("sampler.busy_s", "s", "lower"), ("sampler.self_s", "s", "lower"),
    ("sampler.generate_configuration.s", "s", "lower"),
    ("sampler.attempts", "count", "lower"),
    ("sampler.placed", "count", "higher"),
    ("sampler.accept_ratio", "ratio", "higher"),
    ("sampler.rejected_candidates", "count", "lower"),
    ("smc.busy_s", "s", "lower"), ("smc.self_s", "s", "lower"),
    ("smc.run_filter.s", "s", "lower"),
    ("smc.run_filter.self_s", "s", "lower"),
    ("smc.run_filter.calls", "count", "lower"),
    ("smc.steps", "count", "lower"),
    ("smc.particle_steps", "count", "lower"),
    ("smc.RieszProposalSet.sample.s", "s", "lower"),
    ("smc.RieszProposalSet.logpdf.s", "s", "lower"),
    ("smc.RieszProposalSet.standard_normal.s", "s", "lower"),
    ("smc.ess_mean_frac", "ratio", "higher"),
    ("smc.model.proposal_moments.s", "s", "lower"),
    ("smc.model.observation_logpdf.s", "s", "lower"),
    ("smc.model.transition_logpdf.s", "s", "lower"),
    ("ssm.busy_s", "s", "lower"), ("ssm.self_s", "s", "lower"),
    ("pmh.busy_s", "s", "lower"), ("pmh.self_s", "s", "lower"),
    ("pmh.pmh_run.s", "s", "lower"),
    ("pmh.iterations", "count", "higher"),
    ("pmh.filter_evals", "count", "lower"),
    ("pmh.accepted", "count", "higher"),
    ("pmh.accept_ratio", "ratio", "higher"),
    ("cli.busy_s", "s", "lower"), ("cli.self_s", "s", "lower"),
    ("cli.run_experiment.s", "s", "lower"),
    ("cli.load_prices_csv.s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("setup.sampler.busy_s", "s", "lower"),
    ("setup.energy.busy_s", "s", "lower"),
    ("trace.ops", "count", "higher"), ("trace.spans", "count", "lower"),
    ("trace.work_per_s", "work/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _span_name(layer: str, attr: str) -> str:
    cls, _, method = attr.rpartition(".")
    if cls.endswith("FilterModel"):
        return f"{layer}.model.{method}"
    return f"{layer}.{attr}"


class Tracer:
    """Records spans and counters for the wrapped rieszmc functions."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # flat records of (id, parent, name id, start ns, end ns, run id)
        self.spans = array("q")
        self.stack: list[int] = []
        self.open_names: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._next_id = 0
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        count = _COUNTERS.get(name)
        clock = time.perf_counter_ns
        spans, stack, open_names = self.spans, self.stack, self.open_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            open_names.append(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names.pop()
                spans.extend((sid, parent, name_id, start, end, self.run_id))
            if count is not None and self.run_id >= 1:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def in_span(self, name: str) -> bool:
        """Whether a span of this name is open."""
        return self._name_ids.get(name, -1) in self.open_names

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of TRACED wherever rieszmc holds it, unless
        they are wrapped already."""
        if self._restore:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "rieszmc" or n.startswith("rieszmc.")]
        for layer, mod_name, attr in TRACED:
            mod = sys.modules[f"rieszmc.{mod_name}"]
            name = _span_name(layer, attr)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(name, fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, fn))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def records(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6).copy()

    def dump(self, path: Path) -> None:
        """Write the spans as a compressed .npz of columns plus the name
        table; times are nanoseconds from the first span's start."""
        recs = self.records()
        t0 = recs[:, 3].min() if recs.shape[0] else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, id=recs[:, 0].astype(np.int32),
            parent=recs[:, 1].astype(np.int32),
            name=recs[:, 2].astype(np.int16), start_ns=recs[:, 3] - t0,
            end_ns=recs[:, 4] - t0, run=recs[:, 5].astype(np.int32),
            names=np.array(self.names))

    def summary(self, ops: int) -> dict[str, float]:
        """Per-layer figures of the timed operations, per operation.

        Spans with run id >= 1 belong to timed operations; their busy time
        per layer (from each layer's outermost spans), self time per layer
        and per span name, call counts and counters are divided by ``ops``.
        Run id 0 is set-up, reported as ``setup.<layer>.busy_s``; run id -1
        (the benchmark's checks) is left out.
        """
        recs = self.records()
        out: dict[str, float] = defaultdict(float)
        if recs.shape[0]:
            ids, parents, name_ids, run = (recs[:, 0], recs[:, 1],
                                           recs[:, 2], recs[:, 5])
            dur = (recs[:, 4] - recs[:, 3]) / 1e9
            order = np.argsort(ids)
            pos = np.clip(np.searchsorted(ids[order], parents), 0,
                          len(ids) - 1)
            has_parent = (parents >= 0) & (ids[order][pos] == parents)
            parent_row = np.where(has_parent, order[pos], 0)
            child_time = np.zeros(len(ids))
            np.add.at(child_time, parent_row[has_parent], dur[has_parent])
            self_time = dur - child_time
            layer_of = np.array([n.split(".", 1)[0] for n in self.names])
            span_layer = layer_of[name_ids]
            outer = ~has_parent | (span_layer[parent_row] != span_layer)
            timed, setup = run >= 1, run == 0
            for layer in LAYERS:
                in_layer = span_layer == layer
                out[f"{layer}.busy_s"] = dur[in_layer & outer & timed].sum()
                out[f"{layer}.self_s"] = self_time[in_layer & timed].sum()
                out[f"setup.{layer}.busy_s"] = dur[in_layer & outer
                                                   & setup].sum()
            for i, name in enumerate(self.names):
                rows = (name_ids == i) & timed
                out[f"{name}.s"] += dur[rows].sum()
                out[f"{name}.self_s"] += self_time[rows].sum()
                out[f"{name}.calls"] += rows.sum()
            out["trace.spans"] = float(timed.sum())
        out.update(self.counts)
        per_op = {k: float(v) / max(ops, 1) for k, v in out.items()
                  if not k.startswith(("setup.", "trace."))}
        out.update(per_op)
        attempts = out["sampler.attempts"]
        out["sampler.accept_ratio"] = (out["sampler.placed"] / attempts
                                       if attempts else 0.0)
        passes = out["smc.ess_passes"]
        out["smc.ess_mean_frac"] = (out["smc.ess_frac_sum"] / passes
                                    if passes else 0.0)
        iters = out["pmh.iterations"]
        out["pmh.accept_ratio"] = out["pmh.accepted"] / iters if iters else 0.0
        out["trace.ops"] = float(ops)
        return {k: float(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# counters, keyed by span name: f(tracer, args, kwargs, result)

def _count_pair_terms(tr, args, kwargs, result):
    log_e, _ = result
    tr.counts["energy.pair_terms"] += log_e.size


def _count_attempt(tr, args, kwargs, result):
    tr.counts["sampler.attempts"] += 1
    if result:
        tr.counts["sampler.placed"] += 1


def _count_generation(tr, args, kwargs, result):
    tr.counts["sampler.rejected_candidates"] += result.rejected_candidates


def _count_sample(tr, args, kwargs, result):
    x, _ = result
    tr.counts["smc.steps"] += 1
    tr.counts["smc.particle_steps"] += x.shape[0]


def _count_filter(tr, args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs["n"]
    tr.counts["smc.ess_frac_sum"] += float(np.mean(result.ess_trace)) / n
    tr.counts["smc.ess_passes"] += 1
    if tr.in_span("pmh.pmh_run"):
        tr.counts["pmh.filter_evals"] += 1


def _count_chain(tr, args, kwargs, result):
    tr.counts["pmh.iterations"] += result.samples.shape[0]
    tr.counts["pmh.accepted"] += int(result.accepted.sum())


def _count_run(tr, args, kwargs, result):
    out_dir = Path(args[0].output_dir)
    tr.counts["cli.bytes_written"] += sum(
        p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


_COUNTERS = {
    "energy.pair_log_energies": _count_pair_terms,
    "sampler.accept_candidate": _count_attempt,
    "sampler.generate_configuration": _count_generation,
    "smc.RieszProposalSet.sample": _count_sample,
    "smc.run_filter": _count_filter,
    "pmh.pmh_run": _count_chain,
    "cli.run_experiment": _count_run,
}
