import textwrap

import numpy as np
import pytest

from surveyaudit.data import (
    Attribute,
    AttributeSchema,
    Dataset,
    SocioProfile,
    SurveyCase,
)


def partition_by(dataset, attribute):
    """Split respondent ids by one attribute, in schema category order.

    Groups are disjoint and exhaustive; unused categories appear with an
    empty set so that group enumeration order is stable.
    """
    attr = dataset.schema.attribute(attribute)
    buckets = {c: set() for c in attr.categories}
    for p in dataset.profiles:
        buckets[p.values[attribute]].add(p.respondent_id)
    return [(c, frozenset(buckets[c])) for c in attr.categories]


def predicted_probabilities(design, fit):
    """The fitted success probability of each design row."""
    return 1.0 / (1.0 + np.exp(-(design.X @ fit.beta)))


def make_schema(attrs=None, questions=("vote",)):
    attrs = attrs or [
        ("gender", ("Man", "Woman"), "Man"),
        ("age", ("Young Adult", "Adult", "Senior Adult"), "Young Adult"),
    ]
    return AttributeSchema(
        attributes=tuple(Attribute(n, tuple(c), r) for n, c, r in attrs),
        id_column="respondent_id",
        answer_columns=tuple(questions),
    )


def make_dataset(n=10, options=("Left", "Right"), answer_fn=None, schema=None,
                 context=None):
    schema = schema or make_schema()
    profiles = []
    for i in range(n):
        values = {}
        for j, attr in enumerate(schema.attributes):
            values[attr.name] = attr.categories[i % len(attr.categories)]
        profiles.append(SocioProfile(f"r{i:03d}", values))
    answer_fn = answer_fn or (lambda i, p: i % len(options))
    answers = {p.respondent_id: answer_fn(i, p) for i, p in enumerate(profiles)}
    case = SurveyCase(
        question_id=schema.answer_columns[0],
        question_text="Who did you vote for?",
        options=tuple(options),
        country="XX",
        context_blurb=context,
        answers=answers,
    )
    return Dataset(schema=schema, profiles=tuple(profiles), cases=(case,))


@pytest.fixture
def small_dataset():
    return make_dataset(n=10)


@pytest.fixture
def schema_yaml(tmp_path):
    text = textwrap.dedent("""\
        id_column: respondent_id
        attributes:
          - name: gender
            categories: [Man, Woman]
            reference: Man
          - name: age
            categories: [Young Adult, Adult, Senior Adult]
            reference: Young Adult
        questions:
          - id: vote
            text: Who did you vote for?
            options: [Left, Right]
            country: XX
    """)
    path = tmp_path / "schema.yaml"
    path.write_text(text)
    return path


@pytest.fixture
def csv_file(tmp_path):
    rows = [
        "respondent_id,gender,age,vote",
        "a1,Man,Young Adult,Left",
        "a2,Woman,Adult,Right",
        "a3,Man,Senior Adult,Left",
    ]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    return path
