import json
import math

import numpy as np
import pytest

from urlknet import ConfigError, build_model, build_named
from urlknet import cli, verify
from urlknet.verify import adhoc_scenario, verify_model
from helpers import TOY


def test_nan_branch_weight_gives_nan(rng):
    model = build_model(TOY, seed=0)
    conv, _ = model.stages[1][0].branches[1]
    conv.weight.data[0, 0, 0, 0] = np.nan
    with np.errstate(invalid="ignore"):
        checks = dict(verify_model(model, rng, 2))
    assert math.isnan(checks.pop("stage2.block0")) and math.isnan(checks.pop("model"))
    assert all(err <= 1e-10 for err in checks.values())


@pytest.mark.parametrize("check", [
    lambda rng: verify_model(build_named("A", seed=0), rng, 0),
    lambda rng: adhoc_scenario(4, 4, 1, 13, 3, 3, rng=rng, trials=0),
], ids=["verify_model", "adhoc_scenario"])
def test_zero_trials_raise(rng, check):
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        check(rng)


def test_cli_nan_check_fails_the_run(capsys, monkeypatch):
    # a NaN after a passing check must not be hidden by the order the checks come in
    monkeypatch.setattr(cli, "verify_model", lambda model, rng, trials: [
        ("stage1.block0", 0.0), ("model", float("nan"))])
    code = cli.main(["verify", "--model", "A", "--trials", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_VERIFY_FAIL
    assert math.isnan(report["max_rel_err"]) and report["pass"] is False


def test_cli_zero_trials_rejected_before_build(capsys, monkeypatch):
    # building and merging XL takes seconds and GBs; a count of 0 must not wait for it
    def no_build(*args, **kwargs):
        raise AssertionError("model built before the trial count was checked")

    monkeypatch.setattr(cli, "build_named", no_build)
    code = cli.main(["verify", "--model", "XL", "--trials", "0"])
    assert code == 2 and "trials must be >= 1" in capsys.readouterr().err


def test_verify_model_zero_trials_rejected_before_merge(rng, monkeypatch):
    def no_merge(model):
        raise AssertionError("model merged before the trial count was checked")

    monkeypatch.setattr(verify, "merge_for_deploy", no_merge)
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        verify_model(build_named("A", seed=0), rng, 0)
