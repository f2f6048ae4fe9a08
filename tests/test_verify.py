import json
import math
from dataclasses import replace

import numpy as np
import pytest

from urlknet import ConfigError, Tensor4, build_named, stock_branches
from urlknet import cli, verify
from urlknet.reparam import random_branches
from urlknet.verify import (
    adhoc_scenario,
    merge_equivalence_sweep,
    verify_model,
    verify_reparam_merge,
)


def test_nan_branch_weight_gives_nan(rng):
    branches = list(random_branches(stock_branches(13), 4, 4, rng))
    conv, bn = branches[1]
    w = conv.weight.data.copy()
    w[0, 0, 0, 0] = np.nan
    branches[1] = (replace(conv, weight=Tensor4(w)), bn)
    with np.errstate(invalid="ignore"):
        assert math.isnan(verify_reparam_merge(branches, rng, 3))


@pytest.mark.parametrize("check", [
    lambda rng: verify_reparam_merge(random_branches(stock_branches(13), 4, 4, rng), rng, 0),
    lambda rng: verify_model(build_named("A", seed=0), rng, 0),
    lambda rng: adhoc_scenario(4, 4, 1, 13, 3, 3, rng=rng, trials=0),
    lambda rng: merge_equivalence_sweep(0, rng),
], ids=["verify_reparam_merge", "verify_model", "adhoc_scenario", "merge_equivalence_sweep"])
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
