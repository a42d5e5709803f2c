"""Logistic regression of prediction correctness on socio-demographic
dummies, with per-question intercepts and optional interaction terms.

Fitting is plain maximum likelihood via iteratively reweighted least
squares (Newton steps).  Standard errors come from the inverse observed
information; p-values are two-sided Wald tests against the normal, starred
at the 0.01 / 0.05 / 0.1 levels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, distinct_rows
from .errors import (CollinearColumn, EmptyDesign, Separation, Singular,
                     Unfittable)
from .gateway import Prediction, Predictions
from .metrics import group_tally, outcome_codes

SEPARATION_BETA = 30.0
# Newton steps before a fit is reported as not converged, and the largest
# coefficient step that counts as converged
MAX_ITERATIONS = 100
STEP_TOLERANCE = 1e-8


@dataclass(frozen=True)
class ModelSpec:
    """Which attributes enter the model, and which pairs interact."""

    main_effects: tuple[str, ...]
    interactions: tuple[tuple[str, str], ...] = ()
    question_fixed_effects: bool = True
    name: str = "model"

    def __post_init__(self):
        mains = set(self.main_effects)
        for a, b in self.interactions:
            if a not in mains or b not in mains:
                raise ValueError(
                    f"interaction ({a!r}, {b!r}) names an attribute outside "
                    f"the main effects"
                )


@dataclass
class DesignMatrix:
    """One binomial row per distinct covariate row: ``y`` successes out of
    ``trials``.  A Bernoulli design has one trial per row."""

    X: np.ndarray
    y: np.ndarray
    trials: np.ndarray
    columns: tuple[str, ...]
    references: dict[str, str]


@dataclass
class FitResult:
    columns: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p_values: np.ndarray
    stars: tuple[str, ...]
    log_likelihood: float
    iterations: int
    converged: bool

    def coef(self, column: str) -> float:
        return float(self.beta[self.columns.index(column)])

    def se_of(self, column: str) -> float:
        return float(self.se[self.columns.index(column)])


def stars_for(p: float) -> str:
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def build_design(
    dataset: Dataset,
    predictions: Sequence[Prediction],
    spec: ModelSpec,
    policy: str = "incorrect",
) -> DesignMatrix:
    """Assemble the dummy-coded design, one binomial row per (question,
    main-effect categories) that holds a scored prediction.

    A logit on categorical regressors has the same likelihood on these rows
    as on one Bernoulli row per prediction.  Reference categories get no
    column.  Question dummies span every question present and replace the
    global intercept when fixed effects are on.  Interaction columns are
    elementwise products of the two non-reference dummies.
    """
    predictions = Predictions.of(predictions)
    question, truth, parsed = outcome_codes(predictions, dataset.cases)
    attrs = [dataset.schema.names.index(a) for a in spec.main_effects]
    key = np.column_stack([
        question,
        dataset.coded.of(predictions.respondent_ids)[:, attrs],
    ])
    ids, cells = distinct_rows(key)
    n_options = max((len(c.options) for c in dataset.cases), default=0)
    outcome = group_tally(ids, len(cells), truth, parsed, n_options, policy)
    keep = np.flatnonzero(outcome.scored)
    if not len(keep):
        raise EmptyDesign("no usable prediction rows")
    cells = cells[keep]
    columns: list[str] = []
    col_data: list[np.ndarray] = []

    if spec.question_fixed_effects:
        for q, case in enumerate(dataset.cases):
            col = (cells[:, 0] == q).astype(float)
            if col.any():
                columns.append(f"question[{case.question_id}]")
                col_data.append(col)
    else:
        columns.append("intercept")
        col_data.append(np.ones(len(cells)))

    # each attribute's non-reference categories and their dummy columns
    dummies: dict[str, list[tuple[str, np.ndarray]]] = {}
    for j, name in enumerate(spec.main_effects, start=1):
        attr = dataset.schema.attribute(name)
        dummies[name] = [(cat, (cells[:, j] == k).astype(float))
                         for k, cat in enumerate(attr.categories)
                         if cat != attr.reference]
        for cat, col in dummies[name]:
            columns.append(f"{name}={cat}")
            col_data.append(col)
    for a, b in spec.interactions:
        for (ca, col_a), (cb, col_b) in itertools.product(dummies[a],
                                                           dummies[b]):
            columns.append(f"{a}={ca} x {b}={cb}")
            col_data.append(col_a * col_b)

    X = np.column_stack(col_data)

    zero = [columns[j] for j in range(X.shape[1]) if not X[:, j].any()]
    if zero:
        raise CollinearColumn(f"all-zero column(s): {zero}", zero)
    for j in range(X.shape[1]):
        for k in range(j + 1, X.shape[1]):
            if np.array_equal(X[:, j], X[:, k]):
                raise CollinearColumn(
                    f"column {columns[k]!r} duplicates {columns[j]!r}",
                    (columns[j], columns[k]))
    # a column with a tiny QR diagonal is spanned by the columns before it;
    # with fewer rows than columns, fit_logit refuses the design for its size
    diagonal = np.abs(np.diagonal(np.linalg.qr(X, mode="r")))
    bad = [columns[j] for j in np.flatnonzero(diagonal < 1e-8)]
    if bad:
        raise CollinearColumn(f"collinear column(s): {bad}", bad)

    return DesignMatrix(
        X=X,
        y=np.array(outcome.correct, dtype=float)[keep],
        trials=np.array(outcome.scored, dtype=float)[keep],
        columns=tuple(columns),
        references={name: dataset.schema.attribute(name).reference
                    for name in spec.main_effects},
    )


def fit_logit(design: DesignMatrix) -> FitResult:
    """Newton/IRLS maximum-likelihood fit of the plain unpenalized logit,
    each row weighted by its trials."""
    X, s, m = design.X, design.y, design.trials
    n, p = X.shape
    if n < p:
        raise EmptyDesign(f"{n} rows for {p} columns")
    if not s.any() or np.array_equal(s, m):
        raise Separation(
            "outcome is single-class; the logit is unidentified", design.columns
        )

    def information(beta):
        """The success probability of each row, and the information
        X' diag(m mu (1 - mu)) X, at ``beta``."""
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        return mu, X.T @ (X * (m * mu * (1.0 - mu))[:, None])

    beta = np.zeros(p)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        mu, hess = information(beta)
        try:
            step = np.linalg.solve(hess, X.T @ (s - m * mu))
        except np.linalg.LinAlgError as exc:
            raise Singular(f"information matrix not invertible: {exc}") from exc
        beta = beta + step
        if not np.all(np.isfinite(beta)):
            raise Separation("diverging coefficients", design.columns)
        if np.abs(beta).max() > SEPARATION_BETA:
            offenders = tuple(
                design.columns[j]
                for j in np.flatnonzero(np.abs(beta) > SEPARATION_BETA)
            )
            raise Separation(
                f"coefficient magnitude exceeds {SEPARATION_BETA}; likely "
                f"separation in {offenders}",
                offenders,
            )
        if np.abs(step).max() < STEP_TOLERANCE:
            converged = True
            break

    eta = X @ beta
    # s * eta - m * log(1 + e^eta), computed stably
    ll = float(s @ eta - (m * np.logaddexp(0.0, eta)).sum())
    if not math.isfinite(ll):
        raise Separation("non-finite log-likelihood", design.columns)

    try:
        cov = np.linalg.inv(information(beta)[1])
    except np.linalg.LinAlgError as exc:
        raise Singular(f"information matrix not invertible: {exc}") from exc
    se = np.sqrt(np.diag(cov))
    z = beta / se
    p_values = np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in z])
    return FitResult(
        columns=design.columns,
        beta=beta,
        se=se,
        z=z,
        p_values=p_values,
        stars=tuple(stars_for(pv) for pv in p_values),
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
    )


def _format_cell(beta: float, p: float, stars: str) -> str:
    return f"{beta:.2f} ({p:.3f}){stars}"


def summarize(fit: FitResult, spec: ModelSpec, design: DesignMatrix) -> str:
    """Markdown regression table grouped by attribute, with references
    noted and the interaction block separated."""
    lines = ["| Term | Coefficient (p-value) | SE |", "|---|---|---|"]

    def row(col: str) -> str:
        j = fit.columns.index(col)
        cell = _format_cell(float(fit.beta[j]), float(fit.p_values[j]),
                            fit.stars[j])
        return f"| {col} | {cell} | {fit.se[j]:.3f} |"

    question_cols = [c for c in fit.columns if c.startswith("question[")]
    if question_cols:
        lines.append("| **Question** | | |")
        lines.extend(row(c) for c in question_cols)
    if "intercept" in fit.columns:
        lines.append(row("intercept"))

    for attr in spec.main_effects:
        ref = design.references.get(attr, "?")
        lines.append(f"| **{attr} (ref = {ref})** | | |")
        prefix = f"{attr}="
        for c in fit.columns:
            if c.startswith(prefix) and " x " not in c:
                lines.append(row(c))

    inter_cols = [c for c in fit.columns if " x " in c]
    if inter_cols:
        lines.append("| **Interaction terms** | | |")
        lines.extend(row(c) for c in inter_cols)

    lines.append("")
    lines.append("***p < 0.01; **p < 0.05; *p < 0.1")
    if not fit.converged:
        lines.append("")
        lines.append("WARNING: fit did not converge")
    return "\n".join(lines)


def unfitted_note(error: Unfittable) -> str:
    """Markdown for a model that could not be fitted: the reason and the
    design columns the error names."""
    lines = [f"Not fitted: {type(error).__name__}: {error}"]
    if error.columns:
        lines += ["", "Columns: " + ", ".join(error.columns)]
    return "\n".join(lines)


def to_csv_rows(fit: FitResult) -> list[dict]:
    return [
        {
            "term": c,
            "estimate": float(fit.beta[j]),
            "se": float(fit.se[j]),
            "z": float(fit.z[j]),
            "p": float(fit.p_values[j]),
            "stars": fit.stars[j],
        }
        for j, c in enumerate(fit.columns)
    ]
