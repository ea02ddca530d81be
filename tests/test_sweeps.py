"""Property sweeps decided per shape group.

``tspectral sweep`` draws every trial from its own ``default_rng((seed,
trial))``, groups the trials by shape and decides each group in one pass.
The verdicts must be those of the frozen per-trial loop in
``helpers_oracles``, trial by trial, and any trial must replay alone.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tspectral import (
    DomainError,
    NumericError,
    extremal_ratio_bounds,
    random_psd,
    sandwich_bounds,
    vn_trace_bounds,
)
import tspectral
from tspectral import cli
from tspectral.cli import main
from tspectral.spectral import _gram
from helpers_oracles import _frozen_random_hermitian, frozen_sweep

BATCHED = ["vn-bounds", "sandwich", "ratio", "concavity"]
# Trials per job as the benchmark's tiny-sweeps workload runs them (sandwich and
# ratio are not in it), and its per-job seeds run_seed * 1_000_000 + job index.
TRIALS = {"vn-bounds": 70, "sandwich": 50, "ratio": 50, "concavity": 60}
BENCH_SEEDS = [run_seed * 1_000_000 + index for run_seed in (1, 2, 101) for index in range(4)]
SEEDS = list(range(30)) + BENCH_SEEDS


def _pass_list(prop, seed, trials):
    draw, decide, _ = cli._SWEEPS[prop]
    draws = [draw(np.random.default_rng((seed, trial))) for trial in range(trials)]
    return cli._decide_all(decide, draws).tolist()


@pytest.mark.parametrize("prop", BATCHED)
def test_pass_lists_equal_the_frozen_loop(prop):
    for seed in SEEDS:
        assert _pass_list(prop, seed, TRIALS[prop]) == frozen_sweep(prop, seed, TRIALS[prop]), seed


@pytest.mark.parametrize("prop", BATCHED)
def test_trials_are_grouped_by_shape(prop):
    draw = cli._SWEEPS[prop][0]
    keys = {draw(np.random.default_rng((0, trial)))[0] for trial in range(200)}
    n_end, p_end = (5, 5) if prop == "vn-bounds" else (4, 4) if prop == "concavity" else (5, 4)
    assert keys == {(n, p) for n in range(1, n_end) for p in range(1, p_end)}


_BOUNDS = {
    "vn-bounds": (vn_trace_bounds, random_psd),
    "sandwich": (sandwich_bounds, random_psd),
    "ratio": (extremal_ratio_bounds, _frozen_random_hermitian),
}


@pytest.mark.parametrize("prop", list(_BOUNDS))
@pytest.mark.parametrize("seed", [0, 1, 101_000_000])
def test_group_bounds_equal_the_single_tensor_reports(prop, seed):
    """The draws are today's: each trial's tensors, rebuilt from its draw,
    equal those the per-trial loop builds, and the bound's report on a batch
    equals its single-tensor reports to roundoff."""
    bound, first = _BOUNDS[prop]
    draw = cli._SWEEPS[prop][0]
    for trial in range(40):
        (n, p), (m_a, m_b) = draw(np.random.default_rng((seed, trial)))
        rng = np.random.default_rng((seed, trial))
        assert (int(rng.integers(1, 5)), int(rng.integers(1, 5 if prop == "vn-bounds" else 4))) == (n, p)
        a, b = first(n, p, rng), random_psd(n, p, rng)
        batch_a = cli._hermitian_part(m_a[None]) if prop == "ratio" else _gram(m_a[None])
        batch_b = _gram(m_b[None])
        assert batch_a[0].tobytes() == a.data.tobytes()
        assert batch_b[0].tobytes() == b.data.tobytes()
        one, group = bound(a, b), bound(batch_a, batch_b)
        got = [group.lower[0], group.value[0], group.upper[0]]
        np.testing.assert_allclose(got, [one.lower, one.value, one.upper], rtol=1e-12, atol=1e-12)
        assert group.satisfied.tolist() == [one.satisfied]


@pytest.mark.parametrize("prop", BATCHED)
def test_cli_output_is_unchanged(capsys, prop):
    seed, trials = 101_000_002, TRIALS[prop]
    assert main(["sweep", prop, "--trials", str(trials), "--seed", str(seed)]) == 0
    assert capsys.readouterr() == (f"{prop}: {trials}/{trials} pass\n", "")


def _fail_trial(monkeypatch, prop, seed, trial):
    """Make ``prop``'s decide report trial ``trial`` of ``seed`` as failed."""
    draw, decide, hard = cli._SWEEPS[prop]
    target = draw(np.random.default_rng((seed, trial)))[1][0]

    def failing(first, *rest):
        verdicts = decide(first, *rest)
        if first.shape[1:] == target.shape:
            verdicts = verdicts & ~np.all(first == target, axis=(1, 2, 3))
        return verdicts

    monkeypatch.setitem(cli._SWEEPS, prop, (draw, failing, hard))


@pytest.mark.parametrize("prop", BATCHED)
def test_failing_trial_is_named_and_replays_alone(capsys, monkeypatch, prop):
    seed, bad = 7, 13
    _fail_trial(monkeypatch, prop, seed, bad)
    assert main(["sweep", prop, "--trials", "30", "--seed", str(seed)]) == 1
    out, err = capsys.readouterr()
    assert out == f"{prop}: 29/30 pass\n"
    assert err == f"sweep {prop}: seed {seed} trial {bad} failed\n"
    assert cli.sweep_trial(prop, seed, bad) is False
    assert cli.sweep_trial(prop, seed, bad - 1) is True


def test_failing_trials_are_named_in_trial_order(capsys, monkeypatch):
    for trial in (21, 4, 9):
        _fail_trial(monkeypatch, "vn-bounds", 3, trial)
    assert main(["sweep", "vn-bounds", "--trials", "25", "--seed", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "vn-bounds: 22/25 pass\n"
    assert err == "".join(f"sweep vn-bounds: seed 3 trial {t} failed\n" for t in (4, 9, 21))


@pytest.mark.parametrize("prop", ["kyfan", "bw-metric-axioms", "relax-bounds"])
def test_per_trial_sweeps_replay_alone(prop):
    draw = cli._SWEEPS[prop][0]
    verdicts = [cli.sweep_trial(prop, 5, trial) for trial in range(6)]
    assert verdicts == [draw(np.random.default_rng((5, trial)))[1][0] for trial in range(6)]


def test_group_error_is_the_lowest_failing_trials(monkeypatch):
    """Trials 9 and 2 raise; whichever group is decided first, the error is
    trial 2's, as in a loop over the trials."""
    draw, decide, hard = cli._SWEEPS["vn-bounds"]
    draws = [draw(np.random.default_rng((11, trial))) for trial in range(12)]
    marks = {9: NumericError("trial 9"), 2: DomainError("trial 2")}
    assert draws[9][0] != draws[2][0]

    def raising(first, *rest):
        for trial, error in marks.items():
            mark = draws[trial][1][0]
            if first.shape[1:] == mark.shape and np.all(first == mark, axis=(1, 2, 3)).any():
                raise error
        return decide(first, *rest)

    with pytest.raises(DomainError, match="^trial 2$"):
        cli._decide_all(raising, draws)
    del marks[2]
    with pytest.raises(NumericError, match="^trial 9$"):
        cli._decide_all(raising, draws)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # matmul
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # matmul
def test_overflowing_trial_raises_its_own_error():
    """A real check inside a group: trial 4's Gaussian draw overflows its Gram
    tensor, so the group raises the overflow error the trial raises alone."""
    draw, decide, _ = cli._SWEEPS["vn-bounds"]
    draws = [draw(np.random.default_rng((2, trial))) for trial in range(8)]
    key, (m_a, m_b) = draws[4]
    draws[4] = (key, (m_a, np.full_like(m_b, 1e200)))
    with pytest.raises(NumericError, match="overflowed"):
        cli._decide_all(decide, draws)
    with pytest.raises(NumericError, match="overflowed"):
        decide(*cli._stacked([draws[4][1]]))
    assert decide(*cli._stacked([draws[3][1]])).tolist() == [True]


def test_cli_imports_no_statistics():
    """``statistics`` pulls in ``fractions`` and ``decimal`` at every start."""
    src = str(Path(tspectral.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import tspectral.cli; print('statistics' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
