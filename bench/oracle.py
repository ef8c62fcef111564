"""Output oracle: checks what each CLI command wrote against the reference
recorded from the seed code in ``reference/<workload>/``.

- solve: the policy and threshold arrays are identical; V and Q lie within
  2 gamma / (1 - gamma) * vi_tol of the reference in the solver's own norm,
  so a kernel or stopping-rule change that stays inside its error bound passes.
- verify: every check status is identical.
- simulate: at the config's own seed the stats JSON is byte-identical; at any
  other seed it must be valid JSON with histogram counts <= n_runs and a mean
  within 5 standard errors (of the difference) of the reference mean.
"""

import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def solver_norm(f, rho: float, eps: float) -> float:
    """Sup over the lattice of |f| / s(tau), s(tau) = max(rho + eps, 1)^(2 tau);
    axis 0 of f indexes tau. For a stable plant this is the plain sup norm."""
    s = max(rho + eps, 1.0) ** (2.0 * np.arange(f.shape[0]))
    return float(np.max(np.abs(f).reshape(f.shape[0], -1).max(axis=1) / s))


def _read_table(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def read_solution(out_dir: Path, tau_max: int, grid_n: int, stopping: bool) -> dict:
    """Arrays written by ``solve``, reshaped to the (tau, belief[, action])
    lattice after checking the row order."""
    n_tau, n_b = tau_max + 1, grid_n + 1
    vp = _read_table(out_dir / "value_policy.csv", "tau,belief,value,policy")
    q = _read_table(out_dir / "q_values.csv", "tau,belief,action,q_value")
    if vp.shape[0] != n_tau * n_b or q.shape[0] % (n_tau * n_b):
        raise ValueError("solution CSVs do not cover the lattice")
    n_a = q.shape[0] // (n_tau * n_b)
    grid = np.linspace(0.0, 1.0, n_b)
    lattice = (np.repeat(np.arange(n_tau), n_b), np.tile(grid, n_tau))
    if not (np.array_equal(vp[:, 0], lattice[0])
            and np.allclose(vp[:, 1], lattice[1], rtol=0, atol=1e-11)
            and np.array_equal(q[:, 0], np.repeat(lattice[0], n_a))
            and np.array_equal(q[:, 2], np.tile(np.arange(n_a), n_tau * n_b))):
        raise ValueError("solution CSV rows are not in (tau, belief, action) order")
    sol = {"V": vp[:, 2].reshape(n_tau, n_b),
           "policy": vp[:, 3].astype(np.int8).reshape(n_tau, n_b),
           "Q": q[:, 3].reshape(n_tau, n_b, n_a)}
    if stopping:
        th = _read_table(out_dir / "thresholds.csv", "tau,b_th,is_sentinel")
        if not np.array_equal(th[:, 0], np.arange(n_tau)):
            raise ValueError("thresholds.csv does not list tau = 0..tau_max")
        sol["b_th"] = th[:, 1]
        sol["is_sentinel"] = th[:, 2].astype(np.int8)
    return sol


def verify_statuses(out_dir: Path) -> list:
    report = json.loads((out_dir / "verify_report.json").read_text(encoding="utf-8"))
    return [[c["check"], c["status"]] for c in report["checks"]]


class Reference:
    """Recorded outputs of one workload and the rules to compare against them."""

    def __init__(self, workload: str, raw_cfg: dict):
        self.dir = REFERENCE_DIR / workload
        solver = raw_cfg["solver"]
        self.tau_max, self.grid_n = solver["tau_max"], solver["grid_n"]
        self.stopping = "c_stop" in raw_cfg["costs"]
        self.tol = 2.0 * solver["gamma"] / (1.0 - solver["gamma"]) * solver["vi_tol"]
        A = np.asarray(raw_cfg["system"]["A"], dtype=float)
        self.rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        self.eps = solver["weight_eps"]
        self.default_seed = raw_cfg.get("sim", {}).get("seed")

    def check_solve(self, out_dir: Path):
        """Returns (ok, detail, max |V - V_ref|)."""
        got = read_solution(out_dir, self.tau_max, self.grid_n, self.stopping)
        with np.load(self.dir / "solution.npz") as ref:
            ref = dict(ref)
        if got.keys() != ref.keys() or any(got[k].shape != ref[k].shape for k in ref):
            return False, "solution arrays differ in shape", float("inf")
        value_err = float(np.max(np.abs(got["V"] - ref["V"])))
        bad = [k for k in ("policy", "is_sentinel") if k in ref
               and not np.array_equal(got[k], ref[k])]
        if "b_th" in ref and not np.array_equal(got["b_th"], ref["b_th"], equal_nan=True):
            bad.append("b_th")
        for k in ("V", "Q"):
            dist = solver_norm(got[k] - ref[k], self.rho, self.eps)
            if not dist <= self.tol:
                bad.append(f"{k} (distance {dist:.3e} > {self.tol:.3e})")
        return not bad, "differs from reference: " + ", ".join(bad) if bad else "", value_err

    def check_verify(self, out_dir: Path):
        got = verify_statuses(out_dir)
        ref = json.loads((self.dir / "verify_statuses.json").read_text(encoding="utf-8"))
        if got == ref:
            return True, ""
        return False, f"verify statuses {got} differ from reference {ref}"

    def check_simulate(self, out_dir: Path, policy: str, seed: int):
        name = f"simstats_{policy}.json"
        data = (out_dir / name).read_bytes()
        ref_bytes = (self.dir / name).read_bytes()
        if seed == self.default_seed:
            return data == ref_bytes, "" if data == ref_bytes else f"{name} not byte-identical"
        got, ref = json.loads(data), json.loads(ref_bytes)
        n = got["n_runs"]
        counts = list(got["stop_time_histogram"].values())
        se = (got["stderr"] ** 2 + ref["stderr"] ** 2) ** 0.5
        gap = abs(got["mean_discounted_cost"] - ref["mean_discounted_cost"])
        problems = []
        if got["seed"] != seed or n != ref["n_runs"]:
            problems.append("seed or n_runs not as requested")
        if any(c < 0 or c > n for c in counts) or sum(counts) > n:
            problems.append("stop-time histogram exceeds n_runs")
        if not gap <= 5.0 * se:
            problems.append(f"mean off the reference by {gap:.4g} > 5 SE ({5 * se:.4g})")
        return not problems, "; ".join(problems)
