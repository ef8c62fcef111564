"""Per-layer spans recorded from outside the program.

The tracer rebinds the module attributes that ``txsched.cli`` resolves at call
time (``cli.steady_state_covariance``, ``cli.stopping.solve_stopping``, ...)
to thin wrappers that record a span around each call, so no file of the
package changes. Each span has a name, start, end, parent and the run id of
the CLI command it belongs to; spans stay in memory until the run ends.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _solve_counts(args, sol):
    return {"sweeps": sol.sweeps_used, "cell_updates": sol.sweeps_used * sol.Qfun.size}


def _stopping_counts(args, sol):
    # only the continue slice is swept; the stop slice is the constant c_stop
    cells = sol.Qfun.shape[0] * sol.Qfun.shape[1]
    return {"sweeps": sol.sweeps_used, "cell_updates": sol.sweeps_used * cells}


def _update_counts(args, report):
    return {"update_checks": report.n_update_checks, "fsd_checks": report.n_fsd_checks}


def _sim_counts(args, result):
    stats = result[0] if isinstance(result, tuple) else result
    # every step either transmits (an attempt) or stops the episode
    steps = sum(stats.attempts_per_mode) + sum(stats.stop_time_histogram.values())
    return {"steps": int(steps), "episodes": stats.n_runs}


def _csv_bytes(args, result):
    out_dir = Path(args[1])
    return {"bytes": sum((out_dir / name).stat().st_size
                         for name in ("q_values.csv", "value_policy.csv"))}


# (attribute path under txsched.cli, span name, counter of the call's result)
TARGETS = [
    ("load_config", "config.load", None),
    ("steady_state_covariance", "lti_estimation.steady_state", None),
    ("holding_cost_table", "lti_estimation.cost_table", None),
    ("check_mode_kernel_tp2", "channel.mode_kernel_tp2", None),
    ("folding.verify_fold_equivalence", "folding.fold_equivalence", None),
    ("folding.verify_folded_tp2", "folding.folded_tp2", None),
    ("belief_mdp.verify_update_monotonicity", "belief_mdp.update_monotonicity",
     _update_counts),
    ("belief_mdp.value_iterate", "belief_mdp.value_iterate", _solve_counts),
    ("belief_mdp.verify_value_monotonicity", "belief_mdp.value_monotonicity", None),
    ("belief_mdp.check_contraction", "belief_mdp.contraction",
     lambda args, report: {"m": report.m}),
    ("stopping.solve_stopping", "stopping.solve", _stopping_counts),
    ("stopping.extract_threshold", "stopping.extract_threshold", None),
    ("stopping.verify_threshold_monotone", "stopping.threshold_monotone", None),
    ("stopping.verify_submodularity", "stopping.submodularity", None),
    ("sim.run_batch", "sim.run_batch_{policy}", _sim_counts),
    ("write_solution_csvs", "cli.write_solution_csvs", _csv_bytes),
    ("read_value_policy_csv", "cli.read_value_policy", None),
]


class Tracer:
    """In-memory span recorder for one workload pass; parents index
    ``spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = ""
        self.policy = ""

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def command(self, name: str, run_id: str, policy: str = ""):
        """Root span of one CLI command; its children share its run id."""
        self.run_id, self.policy = run_id, policy
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name.format(policy=self.policy))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts.update(counter(args, result))
            return result
        return traced

    @contextmanager
    def installed(self, cli):
        """Rebind every target under ``cli`` for the duration of the block;
        yields the targets that no longer exist (they record no spans)."""
        saved, missing = [], []
        for path, name, counter in TARGETS:
            *owners, attr = path.split(".")
            owner = cli
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(path)
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, counter))
        try:
            yield missing
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals for one workload pass: seconds are summed over the
    pass's calls of each layer, counts likewise."""
    secs, calls, counts = {}, {}, {}
    for s in spans:
        secs[s.name] = secs.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1
        for k, v in s.counts.items():
            key = f"{s.name}:{k}"
            counts[key] = max(counts.get(key, 0), v) if k == "m" else counts.get(key, 0) + v

    def t(name):
        return secs.get(name, 0.0)

    def n(key):
        return counts.get(key, 0)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    own = {}
    for i, s in enumerate(spans):
        if s.parent is None:
            own[s.name] = own.get(s.name, 0.0) + self_seconds(s, children.get(i, []))

    sim_s = t("sim.run_batch_solved") + t("sim.run_batch_never")
    sim_steps = n("sim.run_batch_solved:steps") + n("sim.run_batch_never:steps")
    sim_episodes = n("sim.run_batch_solved:episodes") + n("sim.run_batch_never:episodes")
    vi_s, st_s = t("belief_mdp.value_iterate"), t("stopping.solve")
    return {
        "config.load_s": t("config.load"),
        "lti_estimation.steady_state_s": t("lti_estimation.steady_state"),
        "lti_estimation.cost_table_s": t("lti_estimation.cost_table"),
        "lti_estimation.calls": calls.get("lti_estimation.steady_state", 0)
        + calls.get("lti_estimation.cost_table", 0),
        "channel.mode_kernel_tp2_s": t("channel.mode_kernel_tp2"),
        "folding.fold_equivalence_s": t("folding.fold_equivalence"),
        "folding.folded_tp2_s": t("folding.folded_tp2"),
        "stochastic_orders.fsd_checks": n("belief_mdp.update_monotonicity:fsd_checks"),
        "belief_mdp.value_iterate_s": vi_s,
        "belief_mdp.sweeps": n("belief_mdp.value_iterate:sweeps"),
        "belief_mdp.sweep_ms": per(vi_s, n("belief_mdp.value_iterate:sweeps"), 1e3),
        "belief_mdp.cell_updates_per_s": per(n("belief_mdp.value_iterate:cell_updates"), vi_s),
        "belief_mdp.solve_calls": calls.get("belief_mdp.value_iterate", 0)
        + calls.get("stopping.solve", 0),
        "belief_mdp.update_monotonicity_s": t("belief_mdp.update_monotonicity"),
        "belief_mdp.update_checks": n("belief_mdp.update_monotonicity:update_checks"),
        "belief_mdp.contraction_s": t("belief_mdp.contraction"),
        "belief_mdp.contraction_m": n("belief_mdp.contraction:m"),
        "belief_mdp.value_monotonicity_s": t("belief_mdp.value_monotonicity"),
        "stopping.solve_s": st_s,
        "stopping.sweeps": n("stopping.solve:sweeps"),
        "stopping.sweep_ms": per(st_s, n("stopping.solve:sweeps"), 1e3),
        "stopping.cell_updates_per_s": per(n("stopping.solve:cell_updates"), st_s),
        "stopping.extract_threshold_s": t("stopping.extract_threshold"),
        "stopping.threshold_monotone_s": t("stopping.threshold_monotone"),
        "stopping.submodularity_s": t("stopping.submodularity"),
        "sim.run_batch_solved_s": t("sim.run_batch_solved"),
        "sim.run_batch_never_s": t("sim.run_batch_never"),
        "sim.steps": sim_steps,
        "sim.episodes": sim_episodes,
        "sim.mean_episode_steps": per(sim_steps, sim_episodes),
        "sim.steps_per_s": per(sim_steps, sim_s),
        "cli.write_solution_csvs_s": t("cli.write_solution_csvs"),
        "cli.csv_bytes": n("cli.write_solution_csvs:bytes"),
        "cli.read_value_policy_s": t("cli.read_value_policy"),
        "cli.solve_self_s": own.get("cli.solve", 0.0),
        "cli.verify_self_s": own.get("cli.verify", 0.0),
        "cli.simulate_self_s": own.get("cli.simulate", 0.0),
    }
