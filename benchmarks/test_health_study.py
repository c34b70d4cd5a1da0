"""Health association study: the paper's motivating use case, measured.

Generates tract-level outcomes from literature-informed coefficients
(§I refs [4]–[6]), decodes exposures with Gemini, and fits the
standard binomial logistic regression with both exposure sources.
"""

from conftest import publish
from repro.core import LLMIndicatorClassifier
from repro.core.indicators import ALL_INDICATORS
from repro.experiments.results import ExperimentResult
from repro.geo import make_durham_like
from repro.health import (
    TRUE_COEFFICIENTS,
    build_tract_survey,
    run_association_study,
)
from repro.llm import GEMINI_15_PRO


def test_health_association_study(suite, benchmark, results_dir):
    def run():
        survey = build_tract_survey(
            make_durham_like(seed=3),
            n_tracts=30,
            locations_per_tract=5,
            seed=0,
        )
        classifier = LLMIndicatorClassifier(suite.clients[GEMINI_15_PRO])
        decoded = survey.decoded_exposures(classifier)
        truth_study = run_association_study(
            survey, survey.true_exposures(), "ground truth"
        )
        llm_study = run_association_study(survey, decoded, "LLM-decoded")
        return survey, truth_study, llm_study

    survey, truth_study, llm_study = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    result = ExperimentResult(
        experiment_id="Ext. F",
        title="Obesity log-odds coefficients: truth vs LLM exposures",
        columns=["indicator", "true_beta", "truth_fit", "llm_fit"],
    )
    for indicator in ALL_INDICATORS:
        result.add_row(
            indicator=indicator.display_name,
            true_beta=TRUE_COEFFICIENTS["obesity"][indicator],
            truth_fit=truth_study.coefficient("obesity", indicator).estimate,
            llm_fit=llm_study.coefficient("obesity", indicator).estimate,
        )
    result.notes.append(
        f"sign agreement: truth={truth_study.sign_agreement(TRUE_COEFFICIENTS):.2f}, "
        f"LLM={llm_study.sign_agreement(TRUE_COEFFICIENTS):.2f}"
    )
    publish(result, results_dir)

    # The analysis run on ground-truth exposures recovers most signs;
    # the LLM-decoded run preserves a usable majority of them.
    assert truth_study.sign_agreement(TRUE_COEFFICIENTS) > 0.75
    assert llm_study.sign_agreement(TRUE_COEFFICIENTS) > 0.55
