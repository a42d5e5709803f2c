"""Workload definitions and set-up: population, CSV, schema and config.

Every input is drawn by ``surveyaudit.synthetic.generate`` from the seed
given on the command line; the program under test only ever sees the files
written here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import yaml

from surveyaudit import synthetic
from surveyaudit.data import Attribute, AttributeSchema, save_dataset

# 2 x 3 x 3 x 4 x 3 x 3 = 648 profile cells
ATTRIBUTES = (
    Attribute("gender", ("Man", "Woman"), "Man"),
    Attribute("age", ("Young Adult", "Adult", "Senior Adult"), "Young Adult"),
    Attribute("education", ("Primary", "Secondary", "Tertiary"), "Secondary"),
    Attribute("region", ("North", "South", "East", "West"), "North"),
    Attribute("ideology", ("Left", "Center", "Right"), "Center"),
    Attribute("political_interest", ("Low", "Medium", "High"), "Medium"),
)
MARGINALS = {
    "gender": (0.5, 0.5),
    "age": (0.3, 0.4, 0.3),
    "education": (0.25, 0.45, 0.3),
    "region": (0.3, 0.25, 0.25, 0.2),
    "ideology": (0.35, 0.3, 0.35),
    "political_interest": (0.3, 0.4, 0.3),
}
POLITICAL = ("ideology", "political_interest")

# No option label is a substring of another label, so a sentence-phrased
# reply names exactly one option (see endpoint.PHRASINGS).
CASES = (
    synthetic.CaseSpec(
        question_id="vote",
        options=("Red party", "Blue party", "Green party"),
        base_probs=(0.4, 0.4, 0.2),
        depends_on="ideology",
        table={"Left": (0.7, 0.1, 0.2), "Center": (0.3, 0.45, 0.25),
               "Right": (0.1, 0.8, 0.1)},
    ),
    synthetic.CaseSpec(
        question_id="policy",
        options=("Support", "Neutral", "Oppose"),
        base_probs=(0.4, 0.3, 0.3),
        depends_on="age",
        table={"Young Adult": (0.6, 0.25, 0.15), "Adult": (0.4, 0.35, 0.25),
               "Senior Adult": (0.2, 0.3, 0.5)},
    ),
    synthetic.CaseSpec(
        question_id="news",
        options=("Often", "Sometimes", "Never"),
        base_probs=(0.3, 0.5, 0.2),
        depends_on="education",
        table={"Primary": (0.15, 0.45, 0.4), "Secondary": (0.3, 0.5, 0.2),
               "Tertiary": (0.55, 0.35, 0.1)},
    ),
)
REGRESSION = {
    "name": "demographics",
    "main_effects": [a.name for a in ATTRIBUTES],
    "interactions": [["gender", "age"]],
}
FEWSHOT_K = 5
FAKE_SERVICE_S = 0.002
ENDPOINT = "http://fake-endpoint.invalid/v1/chat"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    n_trees: int
    variants: tuple[str, ...]
    ablation: bool
    remote: bool

    @property
    def n_masks(self) -> int:
        return 3 + len(ATTRIBUTES) if self.ablation else 1

    @property
    def n_predictions(self) -> int:
        return self.n * len(CASES) * len(self.variants) * self.n_masks


# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ablation_sweep",
            n=300, n_trees=5, variants=("original",), ablation=True,
            remote=False,
        ),
        Workload(
            name="forest_ceiling",
            n=160, n_trees=100, variants=("original",), ablation=False,
            remote=False,
        ),
        Workload(
            name="remote_replay",
            n=600, n_trees=5, variants=("original", "zeroshot"),
            ablation=False, remote=True,
        ),
    )
}


def population_spec(n: int, seed: int) -> synthetic.PopulationSpec:
    schema = AttributeSchema(
        attributes=ATTRIBUTES,
        id_column="respondent_id",
        answer_columns=tuple(c.question_id for c in CASES),
    )
    return synthetic.PopulationSpec(
        schema=schema, marginals=MARGINALS, n=n, cases=CASES, seed=seed,
    )


def experiment_config(w: Workload, seed: int) -> dict:
    if w.remote:
        backend = {
            "name": "remote", "kind": "remote", "model_id": "fake-chat",
            "endpoint": ENDPOINT, "parallelism": os.cpu_count() or 1,
            "max_retries": 0,
        }
    else:
        backend = {"name": "mock", "kind": "mock", "strategy": "majority"}
    config = {
        "dataset": {"csv": "data.csv", "schema": "schema.yaml"},
        "backends": [backend],
        "variants": list(w.variants),
        "ablation": w.ablation,
        "fewshot": {"k": FEWSHOT_K},
        "political": list(POLITICAL),
        "forest": {"n_trees": w.n_trees, "seed": seed},
        "equality_pairs": [["gender", "age"]],
        "regressions": [REGRESSION],
        "seed": seed,
        "output": "live",
    }
    if w.remote:
        config["cache"] = "exchanges.jsonl"
    return config


def set_up(w: Workload, seed: int, workdir: Path):
    """Generate the population and write the CSV, schema and config.

    Returns the generated dataset and the config path.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    dataset, _ = synthetic.generate(population_spec(w.n, seed))
    save_dataset(dataset, workdir / "data.csv", workdir / "schema.yaml")
    config_path = workdir / "config.yaml"
    config_path.write_text(
        yaml.safe_dump(experiment_config(w, seed), sort_keys=False),
        encoding="utf-8",
    )
    return dataset, config_path
