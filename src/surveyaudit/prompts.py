"""Prompt rendering: four variants, ablation masks, few-shot selection.

Rendering is a pure function of its arguments, so identical inputs always
produce byte-identical prompt text.  Templates live in external text files,
one per variant, and can be swapped without touching code.  A template
names only the fields ``{question}``, ``{options}``, ``{context}``,
``{attribute_block}`` and ``{examples}``, each bare, and ``{{``/``}}`` for a
literal brace; an unknown field raises ``KeyError``, and a conversion,
format spec, index or attribute on a field raises ``ValueError``.
"""

from __future__ import annotations

import enum
import functools
import random
import string
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .data import AttributeSchema, Dataset, SocioProfile, SurveyCase
from .errors import FewshotMismatch, InsufficientExamples, MissingContext

DEFAULT_FEWSHOT_K = 5
DEFAULT_POLITICAL = frozenset({"ideology", "party", "political_interest"})


class PromptVariant(enum.Enum):
    ORIGINAL = "original"
    SPANISH = "spanish"
    ZERO_SHOT = "zeroshot"
    WITH_CONTEXT = "with_context"

    @property
    def uses_fewshot(self) -> bool:
        return self is not PromptVariant.ZERO_SHOT


# answer prefix used in the few-shot block, per template language
_ANSWER_PREFIX = {
    PromptVariant.ORIGINAL: "Answer",
    PromptVariant.SPANISH: "Respuesta",
    PromptVariant.ZERO_SHOT: "Answer",
    PromptVariant.WITH_CONTEXT: "Answer",
}


@dataclass(frozen=True)
class AblationMask:
    """Selects which profile attributes survive into the prompt: those in
    ``names`` when ``keep`` is set, every attribute except those otherwise.
    ``label`` names the mask in the bundle."""

    label: str
    names: frozenset[str] = frozenset()
    keep: bool = False

    @classmethod
    def all(cls) -> "AblationMask":
        return cls("All")

    @classmethod
    def without(cls, attribute: str) -> "AblationMask":
        return cls(f"Without {attribute}", frozenset({attribute}))

    @classmethod
    def only_political(cls, political_set=DEFAULT_POLITICAL) -> "AblationMask":
        return cls("Only political variables", frozenset(political_set),
                   keep=True)

    @classmethod
    def without_political(cls, political_set=DEFAULT_POLITICAL) -> "AblationMask":
        return cls("Without political variables", frozenset(political_set))

    def filter_names(self, names: Sequence[str]) -> tuple[str, ...]:
        return tuple(n for n in names if (n in self.names) is self.keep)


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    variant: PromptVariant
    case_id: str
    target_id: str


def ablation_plan(
    schema: AttributeSchema, political_set=DEFAULT_POLITICAL
) -> list[AblationMask]:
    """Full sweep: everything, the two political complements, then
    leave-one-out for each attribute."""
    political = frozenset(political_set)
    unknown = political - set(schema.names)
    if unknown:
        raise ValueError(f"political set names unknown attributes: {sorted(unknown)}")
    plan = [
        AblationMask.all(),
        AblationMask.without_political(political),
        AblationMask.only_political(political),
    ]
    plan.extend(AblationMask.without(name) for name in schema.names)
    return plan


def sample_fewshot(
    dataset: Dataset,
    case: SurveyCase,
    k: int,
    exclude: str,
    seed: int,
) -> list[str]:
    """Pick k distinct example respondents uniformly, never the target.

    Only respondents with a known answer for the case are eligible.
    Deterministic for a fixed (dataset, case, k, exclude, seed).
    """
    answered, position = dataset.answered(case)
    skip = position.get(exclude, len(answered))
    eligible = len(answered) - (exclude in position)
    if k > eligible:
        raise InsufficientExamples(
            f"need {k} examples for case {case.question_id!r} but only "
            f"{eligible} eligible respondents"
        )
    # random.sample reads only its population's length and items, so the
    # positions it draws, stepped over the target's, are the ids it would
    # draw from the list without the target: O(k) instead of O(N)
    return [answered[i + (i >= skip)]
            for i in random.Random(seed).sample(range(eligible), k)]


def _attribute_block(profile: SocioProfile, included: tuple[str, ...]) -> str:
    # kept on the profile: a respondent's block under one mask is the same
    # in its own prompt and in every prompt that shows it as an example
    blocks = profile.__dict__.setdefault("_attribute_blocks", {})
    block = blocks.get(included)
    if block is None:
        block = blocks[included] = "\n".join(
            f"- {name}: {profile.values[name]}" for name in included)
    return block


@functools.lru_cache(maxsize=None)  # one entry per variant
def _load_template(variant: PromptVariant) -> str:
    ref = resources.files("surveyaudit.templates") / f"{variant.value}.txt"
    return ref.read_text(encoding="utf-8")


# the fields a template may name, each bare: those whose values differ from
# prompt to prompt of a case, and those of the case itself
_PER_PROMPT = frozenset({"attribute_block", "examples"})
_FIELDS = _PER_PROMPT | {"question", "options", "context"}


@functools.lru_cache(maxsize=256)
def _case_frame(template: str, answer_prefix: str, question: str,
                options: tuple[str, ...], context: str):
    """A template filled with one case's question, options and context.

    Returns (head, tail, answers): the text is ``head`` followed, for each
    (name, literal) of ``tail``, by a prompt's value of the ``_PER_PROMPT``
    field ``name`` and ``literal``.  The case's values are inserted as text
    and never parsed, so a brace or a field name in a question stays
    literal.  ``answers[i]`` is the line that follows an example whose
    answer is option ``i``.
    """
    case_values = {
        "question": question,
        "options": "\n".join(f"{i + 1}. {label}" for i, label in enumerate(options)),
        "context": context,
    }
    pieces = [""]  # literal, name, literal, name, ..., literal
    for text, name, spec, conversion in string.Formatter().parse(template):
        pieces[-1] += text
        if name is None:
            continue
        if conversion or spec or name not in _FIELDS:
            root = name.split(".")[0].split("[")[0]
            if root not in _FIELDS:
                raise KeyError(root)
            raise ValueError(f"template field {root!r} takes no conversion, "
                             f"format spec, index or attribute")
        if name in _PER_PROMPT:
            pieces += name, ""
        else:
            pieces[-1] += case_values[name]
    answers = tuple(f"\n{answer_prefix}: {label}" for label in options)
    return pieces[0], tuple(zip(pieces[1::2], pieces[2::2])), answers


@functools.lru_cache(maxsize=256)
def _included(mask: AblationMask, names: tuple[str, ...]) -> tuple[str, ...]:
    """The names that ``mask`` keeps, in order."""
    return mask.filter_names(names)


def render(
    profile: SocioProfile,
    case: SurveyCase,
    variant: PromptVariant,
    mask: AblationMask,
    fewshot: Sequence[tuple[SocioProfile, int]] = (),
) -> RenderedPrompt:
    """Render one prompt for (profile, case) under a variant and mask.

    fewshot pairs are (example profile, true answer index); they are
    formatted like the target block with the answer appended.  The target's
    own answer never enters the text.
    """
    if variant is PromptVariant.ZERO_SHOT:
        if fewshot:
            raise FewshotMismatch("zero-shot prompts take no examples")
    elif not fewshot:
        raise FewshotMismatch(f"{variant.value} prompts require few-shot examples")
    if variant is PromptVariant.WITH_CONTEXT and not case.context_blurb:
        raise MissingContext(f"case {case.question_id!r} has no context blurb")
    for ex_profile, _ in fewshot:
        if ex_profile.respondent_id == profile.respondent_id:
            raise FewshotMismatch("target respondent appears among the examples")

    # profile insertion order is schema order, established at load time
    included = _included(mask, tuple(profile.values))
    # the template is read on every call, so the frame is keyed on its text
    head, tail, answers = _case_frame(
        _load_template(variant), _ANSWER_PREFIX[variant], case.question_text,
        case.options, case.context_blurb or "")
    values = {
        "attribute_block": _attribute_block(profile, included),
        "examples": "\n\n".join([_attribute_block(ex_profile, included)
                                  + answers[answer_idx]
                                  for ex_profile, answer_idx in fewshot]),
    }
    parts = [head]
    for name, literal in tail:
        parts += values[name], literal
    return RenderedPrompt(
        text="".join(parts),
        variant=variant,
        case_id=case.question_id,
        target_id=profile.respondent_id,
    )
