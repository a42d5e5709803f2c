import dataclasses
import random
import string
from collections import Counter

import pytest

from surveyaudit import prompts as prompts_mod
from surveyaudit.data import SocioProfile
from surveyaudit.errors import (
    FewshotMismatch,
    InsufficientExamples,
    MissingContext,
)
from surveyaudit.prompts import (
    AblationMask,
    PromptVariant,
    ablation_plan,
    render,
    sample_fewshot,
)

from surveyaudit.runner import _fewshot_seed, draw_fewshot, render_case_prompts

from conftest import make_dataset, make_schema


def fewshot_for(ds, case, target, k=3, seed=1):
    ids = sample_fewshot(ds, case, k, exclude=target, seed=seed)
    return [(ds.profile(i), case.answers[i]) for i in ids]


def test_sample_fewshot_deterministic_and_excludes_target():
    ds = make_dataset(n=100)
    case = ds.cases[0]
    first = sample_fewshot(ds, case, 5, exclude="r000", seed=7)
    second = sample_fewshot(ds, case, 5, exclude="r000", seed=7)
    assert first == second
    assert len(set(first)) == 5
    assert "r000" not in first


def test_sample_fewshot_boundary():
    ds = make_dataset(n=5)
    with pytest.raises(InsufficientExamples):
        sample_fewshot(ds, ds.cases[0], 5, exclude="r000", seed=1)


def _reference_sample_fewshot(dataset, case, k, exclude, seed):
    """The sampler as a list comprehension over every profile: the
    reference for the index view that skips the target."""
    eligible = [
        p.respondent_id
        for p in dataset.profiles
        if p.respondent_id in case.answers and p.respondent_id != exclude
    ]
    if k > len(eligible):
        raise InsufficientExamples(f"only {len(eligible)} eligible")
    return random.Random(seed).sample(eligible, k)


def _partly_answered(n, context=None):
    """A dataset in which every third respondent has no known answer."""
    schema = make_schema(attrs=[
        ("gender", ("Man", "Woman"), "Man"),
        ("age", ("Young Adult", "Adult", "Senior Adult"), "Young Adult"),
        ("ideology", ("Left", "Center", "Right"), "Center"),
        ("region", ("North", "South", "East", "West"), "North"),
    ])
    ds = make_dataset(n=n, schema=schema, context=context,
                      options=("Left", "Centre", "Right"))
    case = ds.cases[0]
    answers = {rid: a for i, (rid, a) in enumerate(case.answers.items())
               if i % 3 != 1}
    return dataclasses.replace(
        ds, cases=(dataclasses.replace(case, answers=answers),))


@pytest.mark.parametrize("n,k", [(12, 3), (12, 7), (40, 5), (40, 25)])
def test_sample_fewshot_matches_filtered_list(n, k):
    ds = _partly_answered(n)
    case = ds.cases[0]
    answered = [p.respondent_id for p in ds.profiles
                if p.respondent_id in case.answers]
    unanswered = next(p.respondent_id for p in ds.profiles
                      if p.respondent_id not in case.answers)
    # first, last and middle of the eligible order, one with no known
    # answer, and one that is no respondent at all
    excludes = (answered[0], answered[-1], answered[len(answered) // 2],
                unanswered, "nobody")
    for exclude in excludes:
        for seed in range(200):
            assert sample_fewshot(ds, case, k, exclude, seed) == \
                _reference_sample_fewshot(ds, case, k, exclude, seed)


def test_sample_fewshot_view_boundary():
    ds = _partly_answered(12)  # 8 answered respondents
    case = ds.cases[0]
    answered = next(iter(case.answers))
    assert len(sample_fewshot(ds, case, 7, answered, seed=1)) == 7
    assert len(sample_fewshot(ds, case, 8, "nobody", seed=1)) == 8
    with pytest.raises(InsufficientExamples):
        sample_fewshot(ds, case, 8, answered, seed=1)


def _fresh(ds):
    """The dataset with new profile objects, which carry nothing rendered."""
    return dataclasses.replace(ds, profiles=tuple(
        SocioProfile(p.respondent_id, dict(p.values)) for p in ds.profiles))


@pytest.mark.parametrize("variant", [
    PromptVariant.ORIGINAL, PromptVariant.SPANISH, PromptVariant.WITH_CONTEXT])
def test_case_prompts_match_per_mask_reference(variant):
    ds = _partly_answered(30, context="A runoff election.")
    case = ds.cases[0]
    k, seed = 4, 11
    plan = ablation_plan(ds.schema, political_set={"ideology"})
    examples = draw_fewshot(ds, case, k, seed)
    planned = [render_case_prompts(ds, case, variant, mask, examples)
               for mask in plan]

    reference = []
    for mask in plan:
        # a per-mask loop over new profile objects: one draw per prompt
        fresh = _fresh(ds)
        out = []
        for profile in fresh.profiles:
            rid = profile.respondent_id
            if rid not in case.answers:
                continue
            ids = _reference_sample_fewshot(
                fresh, case, k, exclude=rid,
                seed=_fewshot_seed(seed, case.question_id, rid))
            fewshot = [(fresh.profile(i), case.answers[i]) for i in ids]
            out.append(render(profile, case, variant, mask, fewshot))
        reference.append(out)
    assert planned == reference
    assert len(planned) == 7 and len(planned[0]) == 20


def test_template_read_once_per_variant(monkeypatch):
    ds = make_dataset(n=10, context="A runoff election.")
    case = ds.cases[0]
    reads = Counter()
    files = prompts_mod.resources.files

    def counted(package):
        reads[package] += 1
        return files(package)

    prompts_mod._load_template.cache_clear()
    monkeypatch.setattr(prompts_mod.resources, "files", counted)
    for _ in range(3):
        for variant in PromptVariant:
            for target in ds.profiles:
                few = [] if variant is PromptVariant.ZERO_SHOT else \
                    fewshot_for(ds, case, target.respondent_id)
                render(target, case, variant, AblationMask.all(), few)
    assert reads == {"surveyaudit.templates": len(PromptVariant)}


def _reference_render(profile, case, variant, mask, fewshot):
    """The text that filling the whole template with ``str.format`` gives:
    the reference for the per-case frame."""
    included = mask.filter_names(tuple(profile.values))
    prefix = "Respuesta" if variant is PromptVariant.SPANISH else "Answer"

    def block(p):
        return "\n".join(f"- {n}: {p.values[n]}" for n in included)

    return prompts_mod._load_template(variant).format(
        attribute_block=block(profile),
        question=case.question_text,
        options="\n".join(f"{i + 1}. {o}" for i, o in enumerate(case.options)),
        examples="\n\n".join(f"{block(p)}\n{prefix}: {case.options[a]}"
                              for p, a in fewshot),
        context=case.context_blurb or "",
    )


# case texts that str.format would read as fields, were they parsed again
_TRICKY = dict(question="Who {examples} won {{0}} the } vote? ¿Quién?",
               options=("{attribute_block}", "Sí }{", "a{{b}}c"),
               context="Ñuñoa {context} {{ }}")


def _tricky_dataset():
    ds = _partly_answered(24, context=_TRICKY["context"])
    case = dataclasses.replace(
        ds.cases[0], question_text=_TRICKY["question"],
        options=_TRICKY["options"])
    return dataclasses.replace(ds, cases=(case,))


@pytest.mark.parametrize("variant", list(PromptVariant))
def test_render_matches_str_format_reference(variant):
    ds = _tricky_dataset()
    case = ds.cases[0]
    answered = [p for p in ds.profiles if p.respondent_id in case.answers]
    for mask in ablation_plan(ds.schema, political_set={"ideology", "age"}):
        for target in answered[:6]:
            few = [] if variant is PromptVariant.ZERO_SHOT else \
                fewshot_for(ds, case, target.respondent_id, k=4)
            out = render(target, case, variant, mask, few)
            assert out.text == _reference_render(target, case, variant, mask,
                                                 few)
    assert "{examples}" in out.text and "a{{b}}c" in out.text


def _render_args(monkeypatch, template, variant):
    """The arguments of one render under ``template`` in place of the
    variant's."""
    ds = make_dataset(n=10, context="30")
    case = ds.cases[0]
    target = ds.profiles[0]
    few = [] if variant is PromptVariant.ZERO_SHOT else \
        fewshot_for(ds, case, target.respondent_id)
    monkeypatch.setattr(prompts_mod, "_load_template", lambda variant: template)
    return target, case, variant, AblationMask.all(), few


@pytest.mark.parametrize("variant", [PromptVariant.ORIGINAL,
                                     PromptVariant.ZERO_SHOT])
@pytest.mark.parametrize("template", [
    "{{{attribute_block}}}{examples}{examples}{question}|{options}|{context}",
    "no fields at all, just {{braces}}",
    "",
])
def test_render_matches_str_format_for_bare_field_templates(
        monkeypatch, template, variant):
    args = _render_args(monkeypatch, template, variant)
    assert render(*args).text == _reference_render(*args)


@pytest.mark.parametrize("variant", [PromptVariant.ORIGINAL,
                                     PromptVariant.ZERO_SHOT])
@pytest.mark.parametrize("template, field", [
    ("{attribute_block!r}|{examples!a}|{options!s}", "attribute_block"),
    ("{question:>80}{context:*^40}{attribute_block:.7}", "question"),
    ("{examples:{context}}-{{examples}}-{options:{context}}", "examples"),
    ("{{{attribute_block}}}{examples}{question.upper}x", "question"),
    ("{attribute_block[0]}{options[3]}", "attribute_block"),
    ("{question:{examples}}", "question"),
])
def test_render_rejects_a_field_that_is_not_bare(monkeypatch, template, field,
                                                 variant):
    args = _render_args(monkeypatch, template, variant)
    with pytest.raises(ValueError, match=f"template field '{field}'"):
        render(*args)


def test_shipped_templates_name_only_bare_fields():
    fields = {"question", "options", "context", "attribute_block", "examples"}
    files = prompts_mod.resources.files("surveyaudit.templates")
    named = {}
    for ref in files.iterdir():
        if not ref.name.endswith(".txt"):
            continue
        parsed = list(string.Formatter().parse(ref.read_text(encoding="utf-8")))
        assert all(conversion is None and spec == ""
                   for _, name, spec, conversion in parsed
                   if name is not None), ref.name
        named[ref.name[:-len(".txt")]] = {
            name for _, name, _, _ in parsed if name is not None}
    assert set(named) == {v.value for v in PromptVariant}
    for variant in PromptVariant:
        names = named[variant.value]
        assert names <= fields, variant
        assert ("examples" in names) == variant.uses_fewshot, variant
    assert "context" in named["with_context"]


def test_render_unknown_template_field_raises_key_error(monkeypatch):
    ds = make_dataset(n=10)
    case = ds.cases[0]
    monkeypatch.setattr(prompts_mod, "_load_template",
                        lambda variant: "{attribute_block} {respondent}")
    with pytest.raises(KeyError, match="respondent"):
        render(ds.profiles[0], case, PromptVariant.ZERO_SHOT,
               AblationMask.all(), [])


def test_sample_fewshot_uniform_frequency():
    ds = make_dataset(n=20)
    case = ds.cases[0]
    counts = Counter()
    runs = 1000
    for seed in range(runs):
        for rid in sample_fewshot(ds, case, 5, exclude="r000", seed=seed):
            counts[rid] += 1
    expected = 5 / 19
    for rid, c in counts.items():
        assert abs(c / runs - expected) < 0.05, rid
    assert len(counts) == 19


def test_render_pure_function():
    ds = make_dataset(n=10)
    case = ds.cases[0]
    target = ds.profiles[0]
    few = fewshot_for(ds, case, target.respondent_id)
    a = render(target, case, PromptVariant.ORIGINAL, AblationMask.all(), few)
    b = render(target, case, PromptVariant.ORIGINAL, AblationMask.all(), few)
    assert a.text == b.text


def test_render_mask_removes_attribute_line():
    ds = make_dataset(n=10)
    case = ds.cases[0]
    target = ds.profiles[0]
    few = fewshot_for(ds, case, target.respondent_id)
    out = render(target, case, PromptVariant.ORIGINAL,
                 AblationMask.without("age"), few)
    assert "age:" not in out.text
    assert "gender:" in out.text


def test_render_zeroshot_has_no_examples_block():
    ds = make_dataset(n=10)
    target = ds.profiles[0]
    out = render(target, ds.cases[0], PromptVariant.ZERO_SHOT,
                 AblationMask.all(), [])
    assert "Answer:" not in out.text
    assert out.text.count("- gender:") == 1  # the target's block alone
    assert "step by step" not in out.text


def test_render_zeroshot_rejects_examples():
    ds = make_dataset(n=10)
    case = ds.cases[0]
    target = ds.profiles[0]
    few = fewshot_for(ds, case, target.respondent_id)
    with pytest.raises(FewshotMismatch):
        render(target, case, PromptVariant.ZERO_SHOT, AblationMask.all(), few)


def test_render_fewshot_required_for_original():
    ds = make_dataset(n=10)
    with pytest.raises(FewshotMismatch):
        render(ds.profiles[0], ds.cases[0], PromptVariant.ORIGINAL,
               AblationMask.all(), [])


def test_render_spanish_scaffolding():
    ds = make_dataset(n=10)
    case = ds.cases[0]
    target = ds.profiles[0]
    few = fewshot_for(ds, case, target.respondent_id)
    out = render(target, case, PromptVariant.SPANISH, AblationMask.all(), few)
    assert "Pregunta:" in out.text
    assert "Respuesta:" in out.text
    assert "paso a paso" in out.text


def test_render_with_context():
    ds = make_dataset(n=10, context="The 2021 runoff election.")
    case = ds.cases[0]
    target = ds.profiles[0]
    few = fewshot_for(ds, case, target.respondent_id)
    out = render(target, case, PromptVariant.WITH_CONTEXT,
                 AblationMask.all(), few)
    assert "The 2021 runoff election." in out.text


def test_render_with_context_requires_blurb():
    ds = make_dataset(n=10)
    case = ds.cases[0]
    target = ds.profiles[0]
    few = fewshot_for(ds, case, target.respondent_id)
    with pytest.raises(MissingContext):
        render(target, case, PromptVariant.WITH_CONTEXT,
               AblationMask.all(), few)


def test_render_option_order_matches_case():
    ds = make_dataset(n=10, options=("Zebra", "Apple", "Mango"))
    case = ds.cases[0]
    target = ds.profiles[0]
    out = render(target, case, PromptVariant.ZERO_SHOT, AblationMask.all(), [])
    assert "1. Zebra\n2. Apple\n3. Mango" in out.text


def test_mask_monotone():
    schema = make_schema()
    all_in = AblationMask.all().filter_names(schema.names)
    without = AblationMask.without("gender").filter_names(schema.names)
    assert set(without) == set(all_in) - {"gender"}


def test_ablation_plan_structure():
    schema = make_schema(attrs=[
        (f"a{i}", ("x", "y"), "x") for i in range(10)
    ])
    plan = ablation_plan(schema, political_set={"a0", "a1"})
    assert len(plan) == 13
    labels = [m.label for m in plan]
    assert labels[:3] == [
        "All", "Without political variables", "Only political variables"
    ]
    included = [m.filter_names(schema.names) for m in plan]
    assert len(set(included)) == len(included)  # pairwise distinct


def test_ablation_plan_empty_political():
    schema = make_schema()
    plan = ablation_plan(schema, political_set=set())
    only = [m for m in plan if m.label == "Only political variables"][0]
    assert only.filter_names(schema.names) == ()
