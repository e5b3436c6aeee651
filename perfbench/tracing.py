"""Traced run: per-layer busy times and counts.

The traced run replays each operation of a workload call by call through
the public functions of ``focusfdr`` (the same calls, in the same order,
on the same inputs and random streams), with a span around every call.
Spans are kept in memory as (name, start, end, parent) and written out at
the end.  A span's name is ``<module>.<function>``; its layer is the
module.  A layer's self time is the time of its spans minus the part their
child spans cover.

Each operation is also run untraced next to its replay (after one
untimed warm-up call, alternating which of the two goes first), and the
replay's output is checked against the same reference, so the split
describes the program the untraced run measures.  Tracing overhead is the
replay's time minus the untraced time.  Times and counts are per pass
over the workload's operations (``PASSES`` passes); a layer that a
workload does not use reports 0.

Some metrics need one layer's work timed on its own; these probes run at
the end of each replayed analysis, check or replication, under a ``probe``
span, and count neither toward the layer self times nor toward the
replay's time:
  filters.count_curve / filters.apply_filter  on every wfbh call's input;
  special.chisq_survival                       on Fisher's closure statistics;
  dag.build_dag                                on each simulated graph, whose
                                               build ``generate_graph`` hides.
"""

from __future__ import annotations

import gc
import io
import json
import time
from contextlib import contextmanager

import numpy as np

import workloads as wl

LAYERS = ("io", "dag", "weights", "filters", "procedures", "combine",
          "special", "simulate", "checks")
PASSES = 2

# per-layer metric -> span name whose durations it sums
SPAN_METRICS = {
    "io.read_edge_csv_s": "io.read_edge_csv",
    "io.read_pvalue_csv_s": "io.read_pvalue_csv",
    "io.structure_summary_s": "io.structure_summary",
    "io.write_report_json_s": "io.write_report_json",
    "dag.build_dag_s": "dag.build_dag",
    "dag.compute_depths_s": "dag.compute_depths",
    "dag.group_index_s": "dag.group_index",
    "dag.ancestor_masks_s": "dag.ancestor_masks",
    "dag.descendant_masks_s": "dag.descendant_masks",
    "dag.descendant_indices_s": "dag.descendant_indices",
    **{f"combine.smooth_s.{c}": f"combine.smooth_all_descendants.{c}"
       for c in wl.SMOOTHERS},
    "combine.smooth_rows_s": "combine.smooth_rows",
    "special.chisq_survival_s": "special.chisq_survival",
    "weights.dag_weights_s": "weights.dag_weights",
    "filters.count_curve_s": "filters.count_curve",
    "filters.apply_filter_s": "filters.apply_filter",
    "procedures.wfbh_s": "procedures.wfbh",
    "simulate.generate_graph_s": "simulate.generate_graph",
    "simulate.assign_truth_s": "simulate.assign_truth",
    "simulate.sample_pvalues_s": "simulate.sample_pvalues",
}
COUNTS = ("io.rows", "combine.closure_entries", "procedures.candidates",
          "procedures.discoveries")


class Tracer:
    """Spans as [name, start, end, parent index] in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self):
        """Per span: its duration minus its children's durations."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out


class Replay:
    """Replays operations through the public API, collecting counts and the
    probes to run at the end of each replayed unit (an analysis, a check or
    a replication).  Each unit builds one Dag; ``done`` names the closures
    already computed on it."""

    def __init__(self, tracer):
        self.tr = tracer
        self.counts = dict.fromkeys(COUNTS, 0)
        self.base = 0
        self.closure_bytes = 0
        self.probes = []
        self._unit_bytes = 0

    # -- dag closures: computed lazily by the program, forced here as spans
    def ancestor_masks(self, dag, done):
        if "anc" not in done:
            done.add("anc")
            masks = self.tr.call("dag.ancestor_masks",
                                 lambda: dag.ancestor_masks)
            self.probes.append(lambda: self._closure_size(masks))

    def descendant_masks(self, dag, done):
        if "desc" not in done:
            done.add("desc")
            masks = self.tr.call("dag.descendant_masks",
                                 lambda: dag.descendant_masks)
            self.probes.append(lambda: self._closure_size(masks))

    def descendant_indices(self, dag, done):
        self.descendant_masks(dag, done)
        if "idx" not in done:
            done.add("idx")
            self.tr.call("dag.descendant_indices",
                         lambda: [dag.descendant_indices(v)
                                  for v in range(dag.m)])
            self.probes.append(lambda: self._closure_entries(dag))

    def _closure_entries(self, dag):
        self.counts["combine.closure_entries"] += sum(
            dag.descendant_indices(v).size + 1 for v in range(dag.m))

    def _closure_size(self, masks):
        # both closures of a Dag are alive together; report the largest Dag
        self._unit_bytes += sum((m.bit_length() + 7) // 8 for m in masks)
        self.closure_bytes = max(self.closure_bytes, self._unit_bytes)

    def smooth(self, dag, p, combiner_name, done):
        from focusfdr.combine import Combiner, smooth_all_descendants

        self.descendant_indices(dag, done)
        out = self.tr.call(f"combine.smooth_all_descendants.{combiner_name}",
                           smooth_all_descendants, dag, p,
                           Combiner.from_name(combiner_name))
        if combiner_name == "fisher":
            self.probes.append(lambda: self._chisq_probe(dag, p))
        return out

    def _chisq_probe(self, dag, p):
        from focusfdr.special import chisq_survival

        stats = []
        for v in range(dag.m):
            desc = dag.descendant_indices(v)
            if desc.size:
                cols = np.concatenate(([v], desc))
                with np.errstate(divide="ignore"):
                    stat = -2.0 * np.sum(np.log(p[cols]))
                stats.append((np.array([stat]), 2 * cols.size))
        with self.tr.span("special.chisq_survival"):
            for stat, df in stats:
                chisq_survival(stat, df)

    def wfbh(self, dag, p, w, fspec, q, reshaping, done):
        from focusfdr.procedures import wfbh

        if fspec.kind == "ds":
            self.ancestor_masks(dag, done)
        elif fspec.kind == "outer":
            self.descendant_masks(dag, done)
        res = self.tr.call("procedures.wfbh", wfbh, dag, p, w, fspec, q,
                           reshaping=reshaping)
        self.counts["procedures.candidates"] += res.candidate_count
        self.counts["procedures.discoveries"] += len(res.discovery_set)
        self.base += len(res.base_set)
        wp = np.asarray(res.weights_used) * p
        self.probes.append(
            lambda: self._filter_probe(dag, wp, p, fspec, res.base_set))
        return res

    def _filter_probe(self, dag, wp, p, fspec, base):
        from focusfdr.filters import apply_filter, filtered_count_curve

        cands = np.unique(np.concatenate(([0.0], wp)))
        with self.tr.span("filters.count_curve"):
            filtered_count_curve(fspec, dag, wp, p)(cands)
        self.tr.call("filters.apply_filter", apply_filter, fspec, dag, base, p)

    # -- operations
    def analyze(self, request):
        """``io.analyze`` for the wfbh method, call by call.  Its own code
        (report rows, freeing the Dag on return) is the io.analyze span's
        self time."""
        return self.tr.call("io.analyze", self._analyze, request)

    def _analyze(self, request):
        from focusfdr import io as fio
        from focusfdr.dag import build_dag, compute_depths, group_index
        from focusfdr.filters import FilterSpec, is_monotonic
        from focusfdr.weights import WeightConfig, dag_weights

        tr, done = self.tr, set()
        names, name_to_id, edges = tr.call("io.read_edge_csv",
                                           fio.read_edge_csv, request.dag_file)
        dag = tr.call("dag.build_dag", build_dag, len(names), edges)
        depths = tr.call("dag.compute_depths", compute_depths, dag)
        groups = tr.call("dag.group_index", group_index, dag, depths)
        lam = request.resolved_lambda()
        p_original = tr.call("io.read_pvalue_csv", fio.read_pvalue_csv,
                             request.pvalues_file, name_to_id)
        self.counts["io.rows"] += len(edges) + dag.m
        if np.any((p_original < 0) | (p_original > 1)):
            raise ValueError("p-values outside [0, 1]")
        p_used = p_original
        if request.combiner is not None:
            p_used = self.smooth(dag, p_original, request.combiner, done)
        fspec = FilterSpec.from_name(request.filter)
        wv = tr.call("weights.dag_weights", dag_weights, dag, depths, groups,
                     p_used, WeightConfig(lam=lam, c=request.c, dw=request.dw))
        result = self.wfbh(dag, p_used, wv, fspec, request.q, None, done)
        weights_arr = result.weights_used
        rows = [{"node": names[v], "id": int(v),
                 "depth": int(depths.depth[v]),
                 "p": float(p_original[v]), "p_used": float(p_used[v]),
                 "weight": float(weights_arr[v]),
                 "weighted_p": float(weights_arr[v] * p_used[v])}
                for v in sorted(result.discovery_set,
                                key=lambda i: (weights_arr[i] * p_used[i], i))]
        self.descendant_masks(dag, done)
        report = {
            "structure": tr.call("io.structure_summary",
                                 fio.structure_summary, dag, depths, groups),
            "filter_monotonic": tr.call("filters.is_monotonic",
                                        is_monotonic, fspec, dag),
            "node_ids": dict(name_to_id),
            "t_star": result.t_star,
            "fdp_hat_at_t_star": result.fdp_hat_at_tstar,
            "counts": {"base": len(result.base_set),
                       "discoveries": len(result.discovery_set)},
            "discoveries": rows,
        }
        tr.call("io.write_report_json", fio.write_report_json, report,
                io.StringIO())
        self.run_probes()
        return report

    def superuniformity(self, n_mc, seed):
        """``checks.check_superuniformity`` with its default combiners,
        through ``simulate.superuniformity_check``'s steps."""
        from focusfdr.combine import Combiner, smooth_rows
        from focusfdr.simulate import SuperuniformityResult, generate_graph
        from focusfdr.special import normal_quantile

        tr, done = self.tr, set()
        combiners = ("simes", "fisher", "stouffer", "bonferroni")
        with tr.span("checks.check_superuniformity"):
            dag = tr.call("simulate.generate_graph", generate_graph,
                          "deep-tree")
            self.descendant_indices(dag, done)
            ok, lines = True, []
            cells = dag.m * 5 * len(combiners)
            z_bound = float(tr.call("special.normal_quantile",
                                    normal_quantile, 1.0 - 0.001 / cells))
            for name in combiners:
                with tr.span("simulate.superuniformity_check"):
                    rng = np.random.default_rng(seed)
                    block = rng.uniform(size=(n_mc, dag.m))
                    smoothed = tr.call("combine.smooth_rows", smooth_rows,
                                       dag, block, Combiner.from_name(name))
                    thresholds = (0.01, 0.05, 0.1, 0.25, 0.5)
                    ts = np.asarray(thresholds, dtype=float)
                    cdf = np.stack([(smoothed <= t).mean(axis=0) for t in ts],
                                   axis=1)
                    se = np.sqrt(ts * (1.0 - ts) / n_mc)
                    res = SuperuniformityResult(thresholds=thresholds,
                                                cdf=cdf, se=se)
                z = res.max_excess_z()
                ok = ok and z <= z_bound
                lines.append(f"{name}: max (F_hat - t)/se over nodes = "
                             f"{z:.3f} (bound {z_bound:.2f})")
            self.run_probes()
        return ok, lines

    def simulation(self, config):
        """``run_simulation`` + ``write_simulation_csv``, replication by
        replication on the same ``default_rng([seed, p_idx, rep])`` streams;
        returns (summary, csv text) like the untraced operation."""
        from focusfdr import io as fio
        from focusfdr.simulate import CellSummary, SimSummary

        with self.tr.span("simulate.run_simulation"):
            results = {(p_idx, rep): self.tr.call(
                "simulate.replicate", self._replicate, config, p_idx, rep)
                for p_idx in range(len(config.p_nonnull))
                for rep in range(config.n_reps)}
            cells, histories, n = [], {}, config.n_reps
            for p_idx, p_nonnull in enumerate(config.p_nonnull):
                for mi, spec in enumerate(config.methods):
                    hist = np.array([results[(p_idx, rep)][mi]
                                     for rep in range(n)])
                    histories[(spec.label, p_nonnull)] = hist
                    fdr_hat, power_hat = hist.mean(axis=0)
                    sds = hist.std(axis=0, ddof=1) if n > 1 else np.zeros(2)
                    cells.append(CellSummary(
                        method=spec.procedure, filter=spec.filter,
                        p_nonnull=p_nonnull, fdr_hat=float(fdr_hat),
                        se_fdr=float(sds[0] / np.sqrt(n)),
                        power_hat=float(power_hat),
                        se_power=float(sds[1] / np.sqrt(n)), n_reps=n))
            summary = SimSummary(config=config, cells=tuple(cells),
                                 histories=histories)
        buf = io.StringIO()
        self.tr.call("io.write_simulation_csv", fio.write_simulation_csv,
                     summary, buf)
        self.counts["io.rows"] += buf.getvalue().count("\n") - 1
        return summary, buf.getvalue()

    def _replicate(self, config, p_idx, rep):
        from focusfdr.dag import build_dag, compute_depths, group_index
        from focusfdr.simulate import (assign_truth, generate_graph,
                                       sample_pvalues)

        tr, done, out = self.tr, set(), []
        p_nonnull = config.p_nonnull[p_idx]
        rng = np.random.default_rng([config.seed, p_idx, rep])
        dag = tr.call("simulate.generate_graph", generate_graph,
                      config.family, rng)
        self.probes.append(lambda: self.tr.call(
            "dag.build_dag", build_dag, dag.m, dag.edges))
        depths = tr.call("dag.compute_depths", compute_depths, dag)
        groups = tr.call("dag.group_index", group_index, dag, depths)
        self.ancestor_masks(dag, done)
        truth = tr.call("simulate.assign_truth", assign_truth, dag,
                        p_nonnull, rng)
        pv = tr.call("simulate.sample_pvalues", sample_pvalues, dag,
                     depths, truth, config.setup, config.rho, rng)
        if config.smoothing is not None:
            pv = self.smooth(dag, pv, config.smoothing, done)
        for spec in config.methods:
            with tr.span(f"simulate.run_method.{wl.method_label(spec)}"):
                disc = self.method(spec, dag, depths, groups, pv, config,
                                   done)
            n_disc = len(disc)
            false_disc = sum(1 for v in disc if v not in truth)
            out.append((false_disc / max(n_disc, 1),
                        (n_disc - false_disc) / max(len(truth), 1)))
        self.run_probes()
        return out

    def method(self, spec, dag, depths, groups, pv, config, done):
        """``simulate.run_method``'s dispatch, call by call."""
        from focusfdr.filters import FilterSpec
        from focusfdr.procedures import (ReshapingFn, bh, storey_bh,
                                         unity_weights)
        from focusfdr.weights import WeightConfig, dag_weights

        q, lam = config.q, config.resolved_lambda()
        fspec = FilterSpec.from_name(spec.filter)
        if spec.procedure == "bh":
            return self.tr.call("procedures.bh", bh, pv, q)
        if spec.procedure == "storey-bh":
            return self.tr.call("procedures.storey_bh", storey_bh, pv, q, lam)
        if spec.procedure == "fbh":
            return self.wfbh(dag, pv, unity_weights(dag.m), fspec, q, None,
                             done).discovery_set
        if spec.procedure in ("wfbh", "wrfbh"):
            wv = self.tr.call("weights.dag_weights", dag_weights, dag, depths,
                              groups, pv,
                              WeightConfig(lam=lam, c=config.c, dw=config.dw))
            beta = ReshapingFn.by(dag.m) if spec.procedure == "wrfbh" else None
            return self.wfbh(dag, pv, wv, fspec, q, beta, done).discovery_set
        raise ValueError(f"no replay for procedure {spec.procedure!r}")

    def run_probes(self):
        """Run the pending probes, then drop them and what they hold, so
        the caller's span pays for freeing its Dag as the program does."""
        with self.tr.span("probe"):
            for probe in self.probes:
                probe()
        self.probes = []
        self._unit_bytes = 0


def _replays(workload, inputs, replay):
    """(op, replay of op) pairs; each replay returns what the op returns."""
    ops, _ = wl.build(workload, inputs)
    out = []
    for op in ops:
        if workload in wl.SIM_FAMILIES:
            family, _, smoothing = op.name.rpartition("-")
            config = wl.sim_config(family, None if smoothing == "raw"
                                   else smoothing, inputs["variant"])
            out.append((op, lambda config=config: replay.simulation(config)))
        elif op.name == "superuniformity":
            out.append((op, lambda: replay.superuniformity(
                wl.SUPERUNIFORMITY_N_MC, inputs["variant"])))
        else:
            request = wl.analysis_request(
                inputs, "outer" if op.name == "outer" else "ds",
                op.name if op.name in wl.SMOOTHERS else None)
            out.append((op, lambda request=request: replay.analyze(request)))
    return out


def _same_histories(got, want):
    return got.keys() == want.keys() and all(
        np.array_equal(got[k], want[k]) for k in got)


def run_traced(workload, inputs, checker, spans_path):
    """Per-layer metrics of ``PASSES`` traced passes, reported per pass."""
    tracer = Tracer()
    replay = Replay(tracer)
    untraced = {}

    def traced(op, run):
        gc.collect()  # as before the untraced call
        with tracer.span(f"op.{op.name}"):
            return run()

    for op, _ in _replays(workload, inputs, replay):
        checker.run(op)  # warm-up: a process's first calls pay one-off costs
    for i in range(PASSES):
        for op, run in _replays(workload, inputs, replay):
            # alternate which of the two goes first, so order effects cancel
            out = traced(op, run) if i % 2 else None
            times, untraced_out = checker.run(op)
            untraced[op.name] = untraced.get(op.name, 0.0) + times["wall"]
            if not i % 2:
                out = traced(op, run)
            checker.record(op, op.fingerprint(out))
            if workload in wl.SIM_FAMILIES:
                checker.record_check(
                    f"{op.name} replay histories", untraced_out is not None
                    and _same_histories(out[0].histories,
                                        untraced_out[0].histories))
    # an op's traced time is its span's duration less the probes under it;
    # spans under a probe count toward no layer's self time
    self_t = tracer.self_times()
    replayed = dict.fromkeys(untraced, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    named = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    methods = {wl.method_label(s): 0.0 for s in wl.sim_methods()}
    root, probed = [], []
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        root.append(i if parent is None else root[parent])
        probed.append(name == "probe"
                      or (parent is not None and probed[parent]))
        op_name = tracer.spans[root[i]][0].removeprefix("op.")
        if parent is None:
            replayed[op_name] += end - start
        elif name == "probe":
            replayed[op_name] -= end - start
        layer = name.split(".", 1)[0]
        if layer in layer_self and not probed[i]:
            layer_self[layer] += self_t[i]
        if name in named:
            named[name] += end - start
        if name.startswith("simulate.run_method."):
            methods[name.split(".", 2)[2]] += end - start

    metrics = {f"{layer}.self_s": {"value": v / PASSES, "unit": "s"}
               for layer, v in layer_self.items()}
    metrics.update({m: {"value": named[s] / PASSES, "unit": "s"}
                    for m, s in SPAN_METRICS.items()})
    metrics.update({f"simulate.run_method_s.{k}": {"value": v / PASSES,
                                                   "unit": "s"}
                    for k, v in methods.items()})
    metrics.update({k: {"value": v // PASSES, "unit": "count"}
                    for k, v in replay.counts.items()})
    metrics["dag.closure_mb"] = {"value": replay.closure_bytes / 2**20,
                                 "unit": "MB"}
    discoveries = replay.counts["procedures.discoveries"]
    metrics["filters.kept_ratio"] = {
        "value": discoveries / replay.base if replay.base else 1.0,
        "unit": "ratio"}
    metrics["trace.overhead_s"] = {
        "value": (sum(replayed.values()) - sum(untraced.values())) / PASSES,
        "unit": "s"}
    metrics["trace.untraced_s"] = {"value": sum(untraced.values()) / PASSES,
                                   "unit": "s"}

    detail = {"trace.layer_self_sum_s": {
        "value": sum(layer_self.values()) / PASSES, "unit": "s"}}
    for op in untraced:
        detail[f"trace.{op}.untraced_s"] = {"value": untraced[op] / PASSES,
                                            "unit": "s"}
        detail[f"trace.{op}.traced_s"] = {"value": replayed[op] / PASSES,
                                          "unit": "s"}
    detail["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start", "end", "parent"],
                   "spans": tracer.spans,
                   "layer_self_s": {k: v / PASSES
                                    for k, v in layer_self.items()}}, fh)
    return metrics, detail
