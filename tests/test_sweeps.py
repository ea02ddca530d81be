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
    symmetric_relax_bounds,
    vn_trace_bounds,
)
import tspectral
from tspectral import cli
from tspectral.cli import main
from tspectral.core import _hermitian_part
from tspectral.spectral import _gram
from helpers_oracles import _frozen_gaussian, _frozen_random_hermitian, frozen_sweep

PROPS = ["vn-bounds", "sandwich", "ratio", "kyfan", "concavity", "bw-metric-axioms", "relax-bounds"]
# Trials per job as the benchmark's tiny-sweeps workload runs them (sandwich, ratio
# and relax-bounds are not in it), and its per-job seeds run_seed * 1_000_000 + job index.
TRIALS = {"vn-bounds": 70, "sandwich": 50, "ratio": 50, "kyfan": 24, "concavity": 60,
          "bw-metric-axioms": 14, "relax-bounds": 30}
BENCH_SEEDS = [run_seed * 1_000_000 + index for run_seed in (1, 2, 101) for index in range(4)]
SEEDS = list(range(30)) + BENCH_SEEDS
# The ends of each property's ranges n in [1, n_end), p in [1, p_end).
SHAPE_ENDS = {"vn-bounds": (5, 5), "sandwich": (5, 4), "ratio": (5, 4), "concavity": (4, 4),
              "bw-metric-axioms": (4, 4), "relax-bounds": (4, 4)}


def _pass_list(prop, seed, trials):
    draw, decide, _ = cli._SWEEPS[prop]
    draws = [draw(np.random.default_rng((seed, trial))) for trial in range(trials)]
    return cli._decide_all(decide, draws).tolist()


def test_every_property_is_covered():
    assert sorted(cli._SWEEPS) == sorted(PROPS)


@pytest.mark.parametrize("prop", PROPS)
def test_pass_lists_equal_the_frozen_loop(prop):
    for seed in SEEDS:
        assert _pass_list(prop, seed, TRIALS[prop]) == frozen_sweep(prop, seed, TRIALS[prop]), seed


@pytest.mark.parametrize("prop", PROPS)
def test_trials_are_grouped_by_shape(prop):
    draw = cli._SWEEPS[prop][0]
    keys = {draw(np.random.default_rng((0, trial)))[0] for trial in range(300)}
    if prop == "kyfan":  # n in [2, 5), p in [1, 4) and k in [1, n]
        assert keys == {(n, p, k) for n in range(2, 5) for p in range(1, 4) for k in range(1, n + 1)}
    else:
        n_end, p_end = SHAPE_ENDS[prop]
        assert keys == {(n, p) for n in range(1, n_end) for p in range(1, p_end)}


# bound, how the per-trial loop makes A and B, and how the sweep makes them from a batch of draws
_BOUNDS = {
    "vn-bounds": (vn_trace_bounds, random_psd, random_psd, _gram, _gram),
    "sandwich": (sandwich_bounds, random_psd, random_psd, _gram, _gram),
    "ratio": (extremal_ratio_bounds, _frozen_random_hermitian, random_psd, _hermitian_part, _gram),
    "relax-bounds": (symmetric_relax_bounds, _frozen_gaussian, _frozen_random_hermitian,
                     np.asarray, _hermitian_part),
}


@pytest.mark.parametrize("prop", list(_BOUNDS))
@pytest.mark.parametrize("seed", [0, 1, 101_000_000])
def test_group_bounds_equal_the_single_tensor_reports(prop, seed):
    """The draws are today's: each trial's tensors, rebuilt from its draw,
    equal those the per-trial loop builds, and the bound's report on a batch
    equals its single-tensor reports to roundoff."""
    bound, first, second, batch_first, batch_second = _BOUNDS[prop]
    draw = cli._SWEEPS[prop][0]
    n_end, p_end = SHAPE_ENDS[prop]
    for trial in range(40):
        (n, p), (m_a, m_b) = draw(np.random.default_rng((seed, trial)))
        rng = np.random.default_rng((seed, trial))
        assert (int(rng.integers(1, n_end)), int(rng.integers(1, p_end))) == (n, p)
        a, b = first(n, p, rng), second(n, p, rng)
        batch_a, batch_b = batch_first(m_a[None]), batch_second(m_b[None])
        assert batch_a[0].tobytes() == a.data.tobytes()
        assert batch_b[0].tobytes() == b.data.tobytes()
        one, group = bound(a, b), bound(batch_a, batch_b)
        got = [group.lower[0], group.value[0], group.upper[0]]
        np.testing.assert_allclose(got, [one.lower, one.value, one.upper], rtol=1e-12, atol=1e-12)
        assert group.satisfied.tolist() == [one.satisfied]


@pytest.mark.parametrize("prop", PROPS)
@pytest.mark.parametrize("seed", [3, 101_000_002])
def test_cli_output_is_unchanged(capsys, prop, seed):
    trials = TRIALS[prop]
    passed = frozen_sweep(prop, seed, trials)
    hard = cli._SWEEPS[prop][2]
    argv = ["sweep", prop, "--trials", str(trials), "--seed", str(seed)]
    if hard and seed == 101_000_002:  # a benchmark job: every trial must pass
        assert all(passed)
        assert main(argv) == 0
        assert capsys.readouterr() == (f"{prop}: {trials}/{trials} pass\n", "")
        return
    assert main(argv) == (1 if hard and not all(passed) else 0)
    failed = "".join(
        f"sweep {prop}: seed {seed} trial {t} failed\n" for t, ok in enumerate(passed) if not ok
    )
    assert capsys.readouterr() == (f"{prop}: {sum(passed)}/{trials} pass\n", failed)


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


@pytest.mark.parametrize("prop", PROPS)
def test_failing_trial_is_named_and_replays_alone(capsys, monkeypatch, prop):
    seed, bad = 7, 13
    _fail_trial(monkeypatch, prop, seed, bad)
    hard = cli._SWEEPS[prop][2]
    assert main(["sweep", prop, "--trials", "30", "--seed", str(seed)]) == (1 if hard else 0)
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


@pytest.mark.parametrize("prop", PROPS)
def test_trials_replay_alone(prop):
    verdicts = [cli.sweep_trial(prop, 5, trial) for trial in range(6)]
    assert verdicts == frozen_sweep(prop, 5, 6)


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
@pytest.mark.parametrize("prop", ["vn-bounds", "bw-metric-axioms"])
def test_overflowing_trial_raises_its_own_error(prop):
    """A real check inside a group: trial 4's last Gaussian draw overflows its
    Gram tensor, so the group raises the overflow error the trial raises alone."""
    draw, decide, _ = cli._SWEEPS[prop]
    draws = [draw(np.random.default_rng((2, trial))) for trial in range(8)]
    key, (*head, last) = draws[4]
    draws[4] = (key, (*head, np.full_like(last, 1e200)))
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
