"""Survey microdata loading and validation.

The canonical in-memory shape is a :class:`Dataset`: an ordered list of
respondent profiles over a fixed categorical schema, plus one
:class:`SurveyCase` per question with every respondent's true answer stored
as an option index.  All downstream stages (prompt rendering, the forest
baseline, the metric battery, the regressions) consume this shape and never
touch raw CSV again.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

import numpy as np
import yaml

from .errors import (
    ConfigError,
    DuplicateRespondent,
    EmptyDataset,
    MissingColumn,
    UnknownAttribute,
    UnknownCategory,
)


@dataclass(frozen=True)
class Attribute:
    """One socio-demographic attribute: name, category labels, reference."""

    name: str
    categories: tuple[str, ...]
    reference: str

    def __post_init__(self):
        if len(self.categories) < 2:
            raise ValueError(f"attribute {self.name!r} needs >= 2 categories")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError(f"attribute {self.name!r} has duplicate categories")
        if self.reference not in self.categories:
            raise ValueError(
                f"reference {self.reference!r} is not a category of {self.name!r}"
            )

    @functools.cached_property
    def index(self) -> dict[str, int]:
        """Each category label mapped to its code, its position in
        ``categories``."""
        return {c: i for i, c in enumerate(self.categories)}


@dataclass(frozen=True)
class AttributeSchema:
    attributes: tuple[Attribute, ...]
    id_column: str
    answer_columns: tuple[str, ...]

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        if len(set(self.answer_columns)) != len(self.answer_columns):
            raise ValueError("question ids must be unique")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def attribute(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise UnknownAttribute(f"unknown attribute {name!r}")


@dataclass(frozen=True)
class SocioProfile:
    respondent_id: str
    values: Mapping[str, str]


@dataclass(frozen=True)
class SurveyCase:
    question_id: str
    question_text: str
    options: tuple[str, ...]
    country: str = ""
    context_blurb: Optional[str] = None
    answers: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.options) < 2 or len(set(self.options)) != len(self.options):
            raise ValueError(
                f"case {self.question_id!r} needs >= 2 distinct options"
            )
        for rid, idx in self.answers.items():
            if not 0 <= idx < len(self.options):
                raise ValueError(
                    f"case {self.question_id!r}: answer index {idx} for {rid!r} "
                    f"out of range"
                )


@dataclass(frozen=True)
class CodedView:
    """The profiles as integers: each respondent's row, and the category
    index of every (row, attribute) pair, attributes in schema order."""

    rows: Mapping[str, int]
    codes: np.ndarray

    def of(self, respondent_ids: Iterable[str]) -> np.ndarray:
        """Code rows of the given respondents, in the order given."""
        return self.codes[[self.rows[r] for r in respondent_ids]]


def distinct_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of a 2-D integer array: each row's number,
    and the distinct rows in that order (lexicographic, the last column
    most significant).  Rows are sorted with lexsort: np.unique would
    import numpy.ma."""
    order = np.lexsort(codes.T)
    starts = np.ones(len(codes), dtype=bool)
    starts[1:] = (codes[order[1:]] != codes[order[:-1]]).any(axis=1)
    ids = np.empty(len(codes), dtype=np.intp)
    ids[order] = np.cumsum(starts) - 1
    return ids, codes[order[starts]]


@dataclass(frozen=True)
class Dataset:
    schema: AttributeSchema
    profiles: tuple[SocioProfile, ...]
    cases: tuple[SurveyCase, ...]
    coded: CodedView = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = {p.respondent_id: i for i, p in enumerate(self.profiles)}
        if len(rows) != len(self.profiles):
            raise DuplicateRespondent("duplicate respondent ids in dataset")
        names = set(self.schema.names)
        attrs = self.schema.attributes
        codes = []
        # each value is checked and coded in one lookup
        for p in self.profiles:
            if set(p.values) != names:
                raise ValueError(
                    f"profile {p.respondent_id!r} does not cover the schema"
                )
            row = [a.index.get(p.values[a.name]) for a in attrs]
            if None in row:
                attr = attrs[row.index(None)]
                raise ValueError(
                    f"profile {p.respondent_id!r}: {p.values[attr.name]!r} "
                    f"not a category of {attr.name!r}"
                )
            codes.append(row)
        for case in self.cases:
            for rid in case.answers:
                if rid not in rows:
                    raise ValueError(
                        f"case {case.question_id!r} answers unknown respondent {rid!r}"
                    )
        codes = np.array(codes, dtype=np.intp).reshape(len(rows), len(attrs))
        codes.setflags(write=False)
        object.__setattr__(self, "coded", CodedView(rows=rows, codes=codes))

    def profile(self, respondent_id: str) -> SocioProfile:
        return self.profiles[self.coded.rows[respondent_id]]

    def answered(self, case: SurveyCase
                 ) -> tuple[tuple[str, ...], Mapping[str, int]]:
        """The respondents with a known answer for ``case``, in profile
        order, and each one's position in that order; built once per case."""
        cache = self.__dict__.setdefault("_answered_cache", {})
        cached = cache.get(case.question_id)
        if cached is None or cached[0] is not case:
            ids = tuple(p.respondent_id for p in self.profiles
                        if p.respondent_id in case.answers)
            cached = (case, ids, {rid: i for i, rid in enumerate(ids)})
            cache[case.question_id] = cached
        return cached[1], cached[2]

    def case(self, question_id: str) -> SurveyCase:
        for c in self.cases:
            if c.question_id == question_id:
                return c
        raise KeyError(question_id)


def load_schema(schema_path: str | Path) -> tuple[AttributeSchema, list[dict]]:
    """Read the schema/codebook file.

    Returns the schema plus the raw question declarations (id, text,
    options, country, context) in file order.  A file that cannot be read,
    is not UTF-8 or is not a mapping, a missing or mistyped key, or an
    attribute that ``Attribute`` or ``AttributeSchema`` refuses raises
    ``ConfigError`` naming the file and the key.
    """
    path = Path(schema_path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"schema file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"schema file {path}: not UTF-8: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"schema {path}: not valid YAML: {exc}") from None

    def get(mapping, key: str, kind: type, where: str = ""):
        """``mapping[key]`` when ``mapping`` is a mapping and the value a
        ``kind``; ``where`` names the mapping."""
        name = f"{where}.{key}" if where else key
        if not isinstance(mapping, dict):
            raise ConfigError(f"schema {path}: {where or 'file'}: expected "
                              f"a mapping, got {mapping!r}")
        if key not in mapping:
            raise ConfigError(f"schema {path}: missing key {name!r}")
        if not isinstance(mapping[key], kind):
            raise ConfigError(f"schema {path}: {name}: expected "
                              f"{kind.__name__}, got {mapping[key]!r}")
        return mapping[key]

    id_column = get(raw, "id_column", str)
    try:
        attrs = tuple(
            Attribute(
                name=get(a, "name", str, f"attributes[{i}]"),
                categories=tuple(str(c) for c in get(
                    a, "categories", list, f"attributes[{i}]")),
                reference=str(get(a, "reference", object, f"attributes[{i}]")),
            )
            for i, a in enumerate(get(raw, "attributes", list))
        )
        questions = get(raw, "questions", list) if "questions" in raw else []
        for i, q in enumerate(questions):
            get(q, "id", str, f"questions[{i}]")
            get(q, "options", list, f"questions[{i}]")
        schema = AttributeSchema(
            attributes=attrs,
            id_column=id_column,
            answer_columns=tuple(q["id"] for q in questions),
        )
    except ValueError as exc:
        raise ConfigError(f"schema {path}: {exc}") from None
    return schema, questions


def load_dataset(csv_path: str | Path, schema_path: str | Path) -> Dataset:
    """Load a respondent CSV against its schema/codebook file.

    Category matching is exact after surrounding-whitespace trim; rows with
    unknown or empty values are rejected, never imputed.  A file that
    cannot be opened or is not UTF-8 raises ``ConfigError`` naming it.
    """
    schema, questions = load_schema(schema_path)
    csv_path = Path(csv_path)
    try:
        fh = csv_path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"CSV file {csv_path}: {exc.strerror}") from None
    with fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"CSV file {csv_path}: not UTF-8: {exc}") from None
    needed = [schema.id_column, *schema.names, *schema.answer_columns]
    for col in needed:
        if col not in header:
            raise MissingColumn(f"CSV is missing column {col!r}")

    if not rows:
        raise EmptyDataset(f"{csv_path} contains no data rows")

    profiles: list[SocioProfile] = []
    seen: set[str] = set()
    answers: dict[str, dict[str, int]] = {q["id"]: {} for q in questions}
    option_index = {
        q["id"]: {str(o): i for i, o in enumerate(q["options"])} for q in questions
    }

    for rownum, row in enumerate(rows, start=2):  # 1-based, header is row 1
        rid = (row[schema.id_column] or "").strip()
        if not rid:
            raise UnknownCategory(rownum, schema.id_column, row[schema.id_column])
        if rid in seen:
            raise DuplicateRespondent(f"row {rownum}: duplicate respondent {rid!r}")
        seen.add(rid)

        values: dict[str, str] = {}
        for attr in schema.attributes:
            val = (row[attr.name] or "").strip()
            if val not in attr.categories:
                raise UnknownCategory(rownum, attr.name, row[attr.name])
            values[attr.name] = val
        profiles.append(SocioProfile(respondent_id=rid, values=values))

        for qid in schema.answer_columns:
            label = (row[qid] or "").strip()
            if label not in option_index[qid]:
                raise UnknownCategory(rownum, qid, row[qid])
            answers[qid][rid] = option_index[qid][label]

    try:
        cases = tuple(
            SurveyCase(
                question_id=q["id"],
                question_text=q.get("text", q["id"]),
                options=tuple(str(o) for o in q["options"]),
                country=q.get("country", ""),
                context_blurb=q.get("context"),
                answers=answers[q["id"]],
            )
            for q in questions
        )
    except ValueError as exc:
        raise ConfigError(f"schema {schema_path}: {exc}") from None
    return Dataset(schema=schema, profiles=tuple(profiles), cases=cases)


def save_dataset(dataset: Dataset, csv_path: str | Path, schema_path: str | Path) -> None:
    """Write a dataset back to the CSV + schema file pair (load round-trips)."""
    schema = dataset.schema
    doc = {
        "id_column": schema.id_column,
        "attributes": [
            {
                "name": a.name,
                "categories": list(a.categories),
                "reference": a.reference,
            }
            for a in schema.attributes
        ],
        "questions": [
            {
                "id": c.question_id,
                "text": c.question_text,
                "options": list(c.options),
                "country": c.country,
                **({"context": c.context_blurb} if c.context_blurb else {}),
            }
            for c in dataset.cases
        ],
    }
    Path(schema_path).write_text(
        yaml.safe_dump(doc, sort_keys=False, allow_unicode=True), encoding="utf-8"
    )

    fieldnames = [schema.id_column, *schema.names, *schema.answer_columns]
    with Path(csv_path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for p in dataset.profiles:
            row = {schema.id_column: p.respondent_id, **dict(p.values)}
            for c in dataset.cases:
                # the CSV schema has no missing-value encoding, by design
                if p.respondent_id not in c.answers:
                    raise EmptyDataset(
                        f"{p.respondent_id!r} lacks an answer for "
                        f"{c.question_id!r}; cannot serialize"
                    )
                row[c.question_id] = c.options[c.answers[p.respondent_id]]
            writer.writerow(row)
