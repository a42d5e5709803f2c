"""Batch audit toolkit for socio-demographic fairness of survey-answer
prediction by language models."""

__version__ = "0.1.0"

from .data import AttributeSchema, Dataset, SocioProfile, SurveyCase, load_dataset
from .gateway import BackendConfig, Prediction, parse_response
from .metrics import (
    MetricReport,
    compute_report,
    harmonic_mean,
    jss,
    overall_accuracy_equality,
)
from .prompts import AblationMask, PromptVariant, RenderedPrompt, render

__all__ = [
    "AttributeSchema", "Dataset", "SocioProfile", "SurveyCase", "load_dataset",
    "BackendConfig", "Prediction", "parse_response",
    "MetricReport", "compute_report", "harmonic_mean", "jss",
    "overall_accuracy_equality",
    "AblationMask", "PromptVariant", "RenderedPrompt", "render",
]
