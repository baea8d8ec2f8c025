"""Traced run of one workload: per-layer metrics from spans and exact counts.

Spans (name, start, end, parent) are recorded in memory by wrappers that
this file installs around calls into pointtomo's public functions, and are
written to ``.bench_work/trace-<workload>-seed<seed>.json`` at the end with
each span's self time (its duration minus the time its child spans cover).
Exact counts come from counting wrappers around ``estimator.pure_probabilities``
(one per likelihood evaluation) and ``povm.matrix_norm`` (one per design
objective evaluation).

The run makes, in order:

1. the workload's main call once, traced;
2. the sweep at 1 worker and at nproc workers (design_scan uses a small
   criterion-9 sweep), whose tables must be byte-identical; for the sweep
   workloads the traced main call is the 1-worker sweep;
3. ``estimate_theta`` one call at a time on the sweep's regenerated counts,
   and ``bootstrap_infidelity`` on the first trial of each N;
4. ``optimize_phases`` per family (design_scan: all 35 inside its traced
   call; the sweeps: a probe of 6 families) and ``haar_mean_c_norm``;
5. batched timings of the small kernels of ``states``, ``simulate`` and
   ``fisher``;
6. the tracing overhead: step 3's estimates, each run with and without the
   likelihood counter and its span back to back, for at least
   ``OVERHEAD_PASSES`` passes over the trials and until ``--seconds`` have
   passed since the start.

Steps 1 to 5 do a fixed amount of work and are not cut short by
``--seconds``. With run_seconds 50 on two cores, a traced plateau_bootstrap
run takes 55-100 s, because its nproc-worker sweep is oversubscribed (20-61 s
at this revision); a traced design_scan run ends near ``--seconds``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import numpy as np

MICRO_BATCHES = 15
MICRO_CALLS = 200
BOOT_PROBE = 10
OVERHEAD_PASSES = 3
WINNER = (4, 5, 6, 7)


class Counter:
    """Counts calls through :meth:`wrap`."""

    def __init__(self):
        self.n = 0

    def wrap(self, fn):
        def counted(*args, **kwargs):
            self.n += 1
            return fn(*args, **kwargs)
        return counted


class Tracer:
    """In-memory spans; a span opened inside another becomes its child."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, counter=None, attrs=None):
        """``fn`` inside a span; ``counter``'s increase is stored as ``count``."""
        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs else {}
            with self.span(name, **extra) as record:
                before = counter.n if counter else 0
                try:
                    return fn(*args, **kwargs)
                finally:
                    if counter:
                        record["count"] = counter.n - before
        return traced

    def named(self, name, first=0):
        return [s for s in self.spans[first:] if s["name"] == name]

    def within(self, outer, name):
        """Spans called ``name`` opened while ``outer`` was open."""
        return [s for s in self.spans[outer["id"] + 1:]
                if s["start"] < outer["end"] and s["name"] == name]

    def self_time(self, span):
        children = [s for s in self.spans[span["id"] + 1:] if s["parent"] == span["id"]]
        return duration(span) - sum(duration(c) for c in children)

    def dump(self, path):
        for span in self.spans:
            span["self"] = self.self_time(span)
        path.write_text(json.dumps(self.spans, indent=1) + "\n", encoding="utf-8")

    def summary(self):
        """(name, spans, total seconds, self seconds) per span name."""
        names = dict.fromkeys(s["name"] for s in self.spans)
        return [(name, len(group), sum(duration(s) for s in group),
                 sum(self.self_time(s) for s in group))
                for name in names for group in [self.named(name)]]


def duration(span) -> float:
    return span["end"] - span["start"]


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``(obj, attr, value)`` attributes, restoring them after."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def micro_us(tracer, name, fn):
    """Median microseconds per call over batches of calls, each batch one span."""
    first = len(tracer.spans)
    for _ in range(MICRO_BATCHES):
        with tracer.span(name, calls=MICRO_CALLS):
            for _ in range(MICRO_CALLS):
                fn()
    per_call = [duration(s) / MICRO_CALLS * 1e6 for s in tracer.named(name, first)]
    return statistics.median(per_call), MICRO_BATCHES * MICRO_CALLS


def p50_p90(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def traced_run(workload, table, pt, seed, seconds, nproc, work):
    """Run the traced steps; return (printable rows, checked calls, JSON metrics)."""
    tracer = Tracer()
    evals, norms = Counter(), Counter()
    design = table["design_scan"]
    sweep = workload.trace_sweep(table)
    is_sweep = sweep is workload
    wrappers = [
        (pt.estimator, "pure_probabilities", evals.wrap(pt.estimator.pure_probabilities)),
        (pt.povm, "matrix_norm", norms.wrap(pt.povm.matrix_norm)),
        (pt.cli, "run_sweep", tracer.wrap(pt.cli.run_sweep, "simulate.run_sweep")),
        (pt.simulate, "estimate_state",
         tracer.wrap(pt.simulate.estimate_state, "estimator.estimate_state", evals)),
        (pt.estimator, "estimate_state",
         tracer.wrap(pt.estimator.estimate_state, "estimator.estimate_state", evals)),
        (pt.simulate, "bootstrap_infidelity",
         tracer.wrap(pt.simulate.bootstrap_infidelity, "estimator.bootstrap_infidelity")),
        (pt.cli, "optimize_phases",
         tracer.wrap(pt.cli.optimize_phases, "povm.optimize_phases", norms,
                     attrs=lambda device, subset, **kw: {"subset": list(subset)})),
        (pt.cli, "haar_mean_c_norm",
         tracer.wrap(pt.cli.haar_mean_c_norm, "povm.haar_mean_c_norm")),
    ]
    calls, problems, rows = [], [], []

    def row(*fields):   # (name, value, unit, sample count)
        rows.append(fields)

    start = time.perf_counter()
    with tracer.span("trace", workload=workload.name, seed=seed):
        context = workload.prepare(pt, seed)
        sweep_context = context if is_sweep else sweep.prepare(pt, seed)
        with patched(wrappers), tracer.span("main.traced") as main_span:
            main = workload.call(pt, seed, context)
        calls.append(main)
        with patched(wrappers):
            pair = {workload.workers: (main, main_span)} if is_sweep else {}
            for workers in sorted({1, nproc} - set(pair)):
                with tracer.span("simulate.sweep", workers=workers) as outer:
                    pair[workers] = (sweep.call(pt, seed, sweep_context, workers=workers),
                                     outer)
                calls.append(pair[workers][0])
        serial, serial_span = pair[1]
        parallel = pair[nproc][0]
        serial_sweep = tracer.within(serial_span, "simulate.run_sweep")[0]

        device = pt.load_mbs(pt.assets.seven_port_matrix())
        povm = pt.effects_from_family(device, WINNER)
        cfg = sweep.config(pt, seed)
        rho = pt.prepared_state(cfg, povm.dim)
        probs = pt.born_probabilities(povm, rho)
        trials = [(n, t, pt.sample_counts(probs, n, pt.trial_rng(seed, i, t)))
                  for i, n in enumerate(cfg.n_grid) for t in range(cfg.repetitions)]
        with patched(wrappers[:1]), tracer.span("estimator.per_call"):
            estimates, at_bound, boots = per_call_estimates(
                tracer, pt, cfg, povm, rho, trials, seed, evals, serial, problems)

        povm_span = main_span
        if is_sweep:
            families = pt.enumerate_families(7, 4)[::8] + [WINNER]
            with patched(wrappers), tracer.span("povm.probe") as povm_span:
                for subset in families:
                    pt.cli.optimize_phases(device, subset, n_starts=design.starts, seed=seed)
                pt.cli.haar_mean_c_norm(4, 7, design.haar, np.random.default_rng(seed))

        theta = np.full(povm.dim - 1, np.sqrt(sweep.theta), dtype=complex)
        amps = pt.neighborhood_state(theta).amps
        c = pt.c_matrix(povm)
        rng = np.random.default_rng(seed)
        with tracer.span("micro"):
            micro = {
                "states.neighborhood_state_us": micro_us(
                    tracer, "states.neighborhood_state", lambda: pt.neighborhood_state(theta)),
                "states.density_matrix_us": micro_us(
                    tracer, "states.DensityMatrix", lambda: pt.DensityMatrix(rho.mat)),
                "states.pure_probabilities_us": micro_us(
                    tracer, "states.pure_probabilities",
                    lambda: pt.states.pure_probabilities(povm.effects, amps)),
                "simulate.sample_counts_us": micro_us(
                    tracer, "simulate.sample_counts",
                    lambda: pt.sample_counts(probs, sweep.n_grid[-1], rng)),
                "fisher.matrix_norm_us": micro_us(
                    tracer, "fisher.matrix_norm", lambda: pt.fisher.matrix_norm(c)),
                "fisher.c_norm_us": micro_us(tracer, "fisher.c_norm", lambda: pt.c_norm(povm)),
            }

        def estimate_s(counts, traced):
            """Seconds for one estimate, traced as in step 3 or not at all."""
            t0 = time.perf_counter()
            if traced:
                with patched(wrappers[:1]), tracer.span("overhead.estimate_theta"):
                    pt.estimate_theta(counts, povm, cfg.mle)
            else:
                pt.estimate_theta(counts, povm, cfg.mle)
            return time.perf_counter() - t0

        # Each estimate runs untraced and traced back to back, so that a change
        # in the host's speed, which takes seconds, cancels within a pair.
        ratios = []   # untraced over traced seconds, one per pair
        with tracer.span("overhead"):
            while (len(ratios) < OVERHEAD_PASSES * len(trials)
                   or time.perf_counter() - start < seconds):
                for _, _, counts in trials:
                    first = len(ratios) % 2 == 0   # alternate which side runs first
                    a, b = estimate_s(counts, first), estimate_s(counts, not first)
                    ratios.append(b / a if first else a / b)

    if serial.output != parallel.output:
        problems.append(f"tables differ between 1 and {nproc} workers")
        parallel.failed = parallel.items
    calls[-1].problems.extend(problems)

    for name in ("states.neighborhood_state_us", "states.density_matrix_us",
                 "states.pure_probabilities_us"):
        value, n = micro[name]
        row(name, value, "us", f"{n} calls")
    times_ms = [duration(s) * 1e3 for s, _ in estimates]
    p50, p90 = p50_p90(times_ms)
    total_evals = sum(e for _, e in estimates)
    n_est = f"{len(estimates)} estimates"
    row("estimator.estimate_ms_p50", p50, "ms", n_est)
    row("estimator.estimate_ms_p90", p90, "ms", n_est)
    row("estimator.loglik_evals_per_estimate", total_evals / len(estimates), "count", n_est)
    row("estimator.loglik_eval_us", sum(duration(s) for s, _ in estimates) / total_evals * 1e6,
        "us", f"{total_evals} evaluations")
    row("estimator.at_bound_frac", at_bound / len(estimates), "ratio", n_est)
    row("estimator.bootstrap_replica_ms",
        statistics.median(duration(s) / s["n_boot"] * 1e3 for s in boots), "ms",
        f"{sum(s['n_boot'] for s in boots)} replicas in {len(boots)} calls")
    value, n = micro["simulate.sample_counts_us"]
    row("simulate.sample_counts_us", value, "us", f"{n} calls")
    row("simulate.trial_overhead_ms", tracer.self_time(serial_sweep) / sweep.trials * 1e3, "ms",
        f"{sweep.trials} trials, serial {sweep.name}")
    row("simulate.parallel_efficiency", serial.wall / (nproc * parallel.wall), "ratio",
        f"{sweep.name} at 1 and {nproc} workers")
    row("simulate.cpu_per_wall_w1", serial.cpu / serial.wall, "s/s",
        f"{serial.wall:.2f} s serial {sweep.name}")
    opt = tracer.within(povm_span, "povm.optimize_phases")
    p50, p90 = p50_p90([duration(s) for s in opt])
    row("povm.optimize_phases_s_p50", p50, "s", f"{len(opt)} families")
    row("povm.optimize_phases_s_p90", p90, "s", f"{len(opt)} families")
    winner = [s for s in opt if tuple(s["subset"]) == WINNER][0]
    row("povm.norm_evals_per_family", winner["count"], "count", f"family {WINNER}")
    haar = tracer.within(povm_span, "povm.haar_mean_c_norm")[0]
    row("povm.haar_mean_c_norm_s", duration(haar), "s", f"1 call, {design.haar} samples")
    for name in ("fisher.matrix_norm_us", "fisher.c_norm_us"):
        value, n = micro[name]
        row(name, value, "us", f"{n} calls")
    row("trace.overhead_frac", 1.0 - statistics.median(ratios), "ratio",
        f"{len(ratios)} pairs of estimate_theta calls")

    path = work / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(path)
    print(f"# spans written to {path.name}; time per span name:")
    print(f"#   {'span':<34} {'count':>7} {'total_s':>10} {'self_s':>10}")
    for name, count, total, own in tracer.summary():
        print(f"#   {name:<34} {count:>7} {total:>10.4f} {own:>10.4f}")

    metrics = {name: {"value": float(value), "unit": unit} for name, value, unit, _ in rows}
    return rows, calls, metrics


def per_call_estimates(tracer, pt, cfg, povm, rho, trials, seed, evals, serial, problems):
    """Time estimates and bootstraps one call at a time on regenerated counts.

    ``trials`` holds (N, trial, counts), the counts drawn by ``trial_rng`` and
    ``sample_counts`` exactly as the sweep draws them, so each estimate's
    infidelity must match the serial sweep's table entry for the same trial.
    """
    table = serial.table
    estimates, boots, at_bound = [], [], 0
    for n, t, counts in trials:
        before = evals.n
        with tracer.span("estimator.estimate_theta", n=n, trial=t) as span:
            result = pt.estimate_theta(counts, povm, cfg.mle)
        estimates.append((span, evals.n - before))
        x = np.concatenate([result.theta.real, result.theta.imag])
        at_bound += bool(np.max(np.abs(x)) >= cfg.mle.chart_bound * (1 - 1e-9))
        infidelity = 1.0 - pt.fidelity(result.state, rho)
        row = table[(table[:, 0] == n) & (table[:, 1] == t)]
        if row.shape[0] != 1 or row[0, 2] != infidelity:
            problems.append(f"regenerated trial (N={n}, t={t}) does not reproduce the table")
            serial.failed = serial.items
        if t == 0:
            n_boot = max(cfg.n_boot, BOOT_PROBE)
            with tracer.span("estimator.bootstrap_infidelity", n=n, n_boot=n_boot) as span:
                pt.bootstrap_infidelity(counts, povm, rho, n_boot,
                                        pt.trial_rng(seed, cfg.n_grid.index(n), t, stream=1),
                                        cfg.mle)
            boots.append(span)
    return estimates, at_bound, boots
