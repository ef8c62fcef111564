"""README's code runs as written and the figures it quotes hold, so a rename
in the API or a changed result fails here instead of leaving the docs
stale."""

import re
from pathlib import Path

import numpy as np

import txsched as tx
from txsched.belief_mdp import _lattice_moduli, _stencil

ROOT = Path(__file__).resolve().parents[1]


def python_block(heading: str) -> str:
    """The first ```python block after the line ``heading`` in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_library_sketch_runs(capsys):
    exec(compile(python_block("## Library sketch"), "README.md", "exec"), {})
    assert " +- " in capsys.readouterr().out


def test_quoted_lattice_moduli():
    # the contraction note quotes fine-unstable's L_1..L_m; they hold on the
    # two-point grid that check_contraction reads and on the solver's grid
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    m, quoted = re.search(r"On `fine-unstable` `L_1\.\.L_(\d+)` are (.*?)\.\s", text).groups()
    quoted = [float(x) for x in re.findall(r"\d+\.\d+", quoted)]
    cfg = tx.load_config(ROOT / "bench/workloads/fine-unstable.yaml")
    s = tx.weight_profile(cfg.system.spectral_radius(), cfg.solver.weight_eps,
                          cfg.solver.tau_max)
    assert len(quoted) == int(m) == tx.check_contraction(cfg.channel, cfg.system,
                                                         cfg.solver).m
    for grid in (np.array([0.0, 1.0]), cfg.solver.belief_grid()):
        moduli = _lattice_moduli(_stencil(cfg.channel, grid), s, cfg.solver.gamma, int(m))
        assert [round(L, 3) for L in moduli] == quoted
