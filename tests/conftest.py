"""Shared model fixtures at the four figure parameter sets."""

from __future__ import annotations

import sys

import pytest

import levyrates as lr


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # replay the acceptance verdict lines after capture is torn down
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

# session scope on purpose: evaluators keep their rules across tests, and
# no price may depend on what an earlier test evaluated


@pytest.fixture(scope="session")
def flat2():
    return lr.FlatYieldCurve(y=0.02)


@pytest.fixture(scope="session")
def flat3():
    return lr.FlatYieldCurve(y=0.03)


@pytest.fixture(scope="session")
def gbm_model(flat2):
    return lr.RateModel(ts=flat2, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=0.3, b=0.02))


@pytest.fixture(scope="session")
def jd_model(flat2):
    fam = lr.JumpDiffusionFamily(lam=20.0, mu=0.0, delta=0.09)
    return lr.RateModel(ts=flat2, fam=fam, phi=lr.ExpDecayPhi(c=0.3, b=0.02))


@pytest.fixture(scope="session")
def gamma_model(flat2):
    fam = lr.GammaFamily(m=1.0, kappa=0.5)
    return lr.RateModel(ts=flat2, fam=fam, phi=lr.ExpDecayPhi(c=-1.0, b=0.02))


@pytest.fixture(scope="session")
def vg_model(flat2):
    fam = lr.VarianceGammaFamily(mu=0.5, sigma=0.3, m=5.0)
    return lr.RateModel(ts=flat2, fam=fam, phi=lr.ExpDecayPhi(c=1.0, b=0.02))


@pytest.fixture(scope="session")
def jd5_model(flat3):
    fam = lr.JumpDiffusionFamily(lam=5.0, mu=0.0, delta=1.0)
    return lr.RateModel(ts=flat3, fam=fam, phi=lr.ExpDecayPhi(c=1.0, b=0.02))


@pytest.fixture(scope="session")
def vg5_model(flat3):
    fam = lr.VarianceGammaFamily(mu=0.02, sigma=0.3, m=20.0)
    return lr.RateModel(ts=flat3, fam=fam, phi=lr.ExpDecayPhi(c=1.0, b=0.02))


@pytest.fixture(scope="session")
def all_figure_models(gbm_model, jd_model, gamma_model, vg_model):
    return {"gbm": gbm_model, "jd": jd_model, "gamma": gamma_model, "vg": vg_model}
