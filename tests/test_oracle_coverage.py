"""Every public name is held to an oracle that does not share its code path.

ORACLES maps each public function and class of `levyrates.__all__` to the
tests that check it against such an oracle, with what that oracle is.
EXEMPT names the rest, each with its reason. The test reads the test
modules' source, so a renamed or deleted test fails it, as does a public
name in neither table. The README's list of public names is held to the
same `__all__`, and its quick-start block must run.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import levyrates as lr

TESTS = Path(__file__).parent

_FAMILY = (
    [
        "test_levy::test_exponent_pinned_values",
        "test_levy::test_sampler_moments",
        "test_levy::test_mgf_matches_exponent",
    ],
    "exponent against 30-digit values; draws against the exponent's cumulants and MGF",
)
_BOND = (
    ["test_curve::test_bond_price_matches_mpmath", "test_curve::test_constant_phi_prices_pin_to_initial_curve"],
    "30-digit mpmath kernels; the initial curve's closed form where the tilt cancels",
)
_PHI_AVERAGE = (
    ["test_curve::test_phi_average_matches_mpmath"],
    "30-digit mpmath ratio of phi-weighted to plain kernel integrals",
)

# name -> (tests as "module::function", the oracle they use)
ORACLES = {
    "FlatYieldCurve": (
        ["test_termstructure::test_flat_curve_closed_form", "test_termstructure::test_log_density_consistent"],
        "math.exp closed forms of P0, rho and the horizon",
    ),
    "LevyFamily": _FAMILY,
    "BrownianFamily": _FAMILY,
    "JumpDiffusionFamily": _FAMILY,
    "GammaFamily": _FAMILY,
    "VarianceGammaFamily": _FAMILY,
    "sample_path": (
        ["test_levy::test_sample_path_increments_have_the_law_of_their_gaps"],
        "closed-form mean and variance rates of each increment",
    ),
    "spawn_stream": (
        ["test_levy::test_spawn_stream_reproducible_and_disjoint", "test_levy::test_spawn_stream_takes_numpy_integers"],
        "a stream has no value to check: the same (seed, index) gives the same draws, another index others",
    ),
    "PhiFunction": (
        ["test_martingales::test_exp_decay_phi_classes_and_bounds", "test_martingales::test_gaussian_bump_phi"],
        "closed-form ranges of both tilts",
    ),
    "ExpDecayPhi": (["test_martingales::test_exp_decay_phi_classes_and_bounds"], "closed-form range"),
    "GaussianBumpPhi": (["test_martingales::test_gaussian_bump_phi"], "closed-form peak and range"),
    "martingale_value": (
        ["test_martingales::test_unit_mean_monte_carlo", "test_acceptance::test_criterion_1_martingale_unit_mean"],
        "unit mean over exact draws",
    ),
    "log_martingale_value": (
        ["test_martingales::test_log_value_is_the_stated_formula", "test_martingales::test_unit_mean_monte_carlo"],
        "the defining formula phi xi - t psi(phi); unit mean of its exp over exact draws",
    ),
    "RateModel": (
        ["test_curve::test_kernel_integral_matches_brute_force", "test_curve::test_batch_rule_matches_mpmath"],
        "the model's integrals, written again from its primitives on a fixed rule and in mpmath",
    ),
    "kernel_integral": (
        [
            "test_curve::test_kernel_integral_matches_brute_force",
            "test_curve::test_kernel_integral_matches_mpmath",
            "test_curve::test_split_path_matches_mpmath",
        ],
        "a 4,000-panel fixed rule written from the primitives; 30-digit mpmath, from t and from T",
    ),
    "bond_price": _BOND,
    "short_rate": (["test_curve::test_forward_and_short_rate_match_mpmath"], "30-digit mpmath at T = t"),
    "forward_rate": (["test_curve::test_forward_and_short_rate_match_mpmath"], "30-digit mpmath at T = t and t + 3"),
    "phi_average": _PHI_AVERAGE,
    # the three below are a difference, a sign and a product of the
    # mpmath-checked averages; the finite difference checks the first
    "bond_volatility": (
        _PHI_AVERAGE[0] + ["test_curve::test_bond_slope_is_the_bond_volatility"],
        "mpmath phi averages; a central difference of log bond_price in xi",
    ),
    "risk_aversion": _PHI_AVERAGE,
    "risk_premium": (
        _PHI_AVERAGE[0] + ["test_curve::test_risk_premium_positive_both_orientations"],
        "mpmath phi averages; the product of risk_aversion and bond_volatility (the diffusive premium only)",
    ),
    "solve_critical_level": (
        ["test_options::test_critical_level_matches_bisection"],
        "plain bisection on bond_price, itself held to mpmath, in place of the Newton solve",
    ),
    "price_call": (
        [
            "test_options::test_price_matches_transition_density_oracle",
            "test_acceptance::test_criterion_3_analytic_vs_oracle",
        ],
        "scipy quad over the driver's transition density; exact-draw Monte Carlo",
    ),
    "price_call_mc": (
        ["test_options::test_mc_agrees_with_closed_form", "test_options::test_mc_time_zero_is_exact"],
        "the density-checked closed form within 3 standard errors; the intrinsic value at t = 0",
    ),
    "validate_term_structure": (
        [
            "test_termstructure::test_negative_yield_constructible_but_flagged",
            "test_termstructure::test_valid_flat_curves_pass_validation",
        ],
        "known verdicts: rising curves fail the named checks, decaying ones pass",
    ),
    "run_validation": (
        ["test_cli::test_validate_passes_on_shipped_config"],
        "known verdict: the fig1 model passes every check",
    ),
}

_ERROR = "an exception type: no quantity to check"
_RECORD = "a record of inputs or results: the function that fills it is mapped"

EXEMPT = {
    "__version__": "the package version string",
    "ConfigError": _ERROR,
    "DomainError": _ERROR,
    "NumericalError": _ERROR,
    "QuadratureError": _ERROR,
    "StrikeOutOfRangeError": _ERROR,
    "UnsupportedModelError": _ERROR,
    "ModelState": _RECORD,
    "OptionSpec": _RECORD,
    "CriticalLevel": _RECORD,
    "CallPrice": _RECORD,
    "CheckResult": _RECORD,
    "ValidationReport": _RECORD,
}


def _test_functions(module: str) -> set:
    tree = ast.parse((TESTS / f"{module}.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_every_public_name_has_an_independent_oracle():
    public = set(lr.__all__)
    assert not set(ORACLES) & set(EXEMPT)
    assert sorted(public - set(ORACLES) - set(EXEMPT)) == [], "public names with no oracle test"
    assert sorted((set(ORACLES) | set(EXEMPT)) - public) == [], "table entries that are not public"
    found = {}
    for name, (tests, oracle) in ORACLES.items():
        assert tests and oracle, name
        for ref in tests:
            module, func = ref.split("::")
            if module not in found:
                found[module] = _test_functions(module)
            assert func in found[module], f"{name}: no test {ref}"
    assert all(EXEMPT.values())


def test_readme_public_names_match_all():
    # every public name is in the README's list, and no backticked bare
    # name there is one of the modules' internals
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Public names", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    assert sorted(set(lr.__all__) - {"__version__"} - named) == [], "public names the README leaves out"
    internal = set()
    for info in pkgutil.iter_modules(lr.__path__):
        internal |= set(vars(importlib.import_module(f"levyrates.{info.name}")))
    assert sorted(named & (internal - set(lr.__all__))) == [], "internal names the README lists as public"


def test_readme_quick_start_runs():
    # a name or keyword the package dropped fails the README's first example
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
