"""The report bundle: every file a run writes, and the one reader of them.

``write_bundle`` writes ``manifest.json``, ``predictions.jsonl``,
``metrics.json`` and ``metrics.md``, ``equality.json``, ``ablation_*`` when
more than one mask ran, ``sensitivity.*`` when more than one variant ran,
``regression_*`` and the series under ``plots/``.  JSON is written with
sorted keys; table cells round to 2 decimals, half away from zero, and
model cells carry the baseline-relative ratio in parentheses.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .data import AttributeSchema
from .errors import MalformedLog
from .gateway import Prediction, Predictions, checked_record
from .metrics import (
    EqualityVerdict,
    MetricReport,
    ceiling_ratio,
    harmonic_mean,
    round_half_away,
)
from .regression import summarize, to_csv_rows, unfitted_note


@dataclass
class CellResult:
    backend: str
    case_id: str
    variant: str
    mask_label: str
    report: Optional[MetricReport]
    predictions: Sequence[Prediction]


@dataclass
class ReportBundle:
    baseline: dict[str, MetricReport]
    cells: list[CellResult]
    # the cells that the main table, the plots, equality and the regressions
    # read: the first configured variant under the primary mask
    primary: list[CellResult]
    equality: dict
    regressions: dict[str, dict]
    manifest: dict
    out_dir: Path


def fmt2(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{round_half_away(value, 2):.2f}"


def cell_with_ratio(value: float, ratio: Optional[float]) -> str:
    return fmt2(value) if ratio is None else f"{fmt2(value)} ({fmt2(ratio)})"


def _group_name(group) -> str:
    """A group key as written: an intersection's categories joined by " x "."""
    return " x ".join(group) if isinstance(group, tuple) else str(group)


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(cells) + " |" for cells in [header, *rows]]
    lines.insert(1, "|" + "---|" * len(header))
    return "\n".join(lines)


def _case_header(first: str, case_ids: Sequence[str]) -> list[str]:
    return [first] + [f"{cid} {m}" for cid in case_ids for m in ("Acc", "JSS")]


def metric_table_markdown(
    case_ids: Sequence[str],
    baseline: Mapping[str, MetricReport],
    models: Mapping[str, Mapping[str, MetricReport]],
) -> str:
    """One row per backend plus the in-sample forest row; Acc and JSS
    columns per case, each model report's ceiling ratios in parentheses."""
    forest = ["*In-sample Random Forest*"]
    for cid in case_ids:
        forest += [fmt2(baseline[cid].accuracy), fmt2(baseline[cid].jss)]
    rows = [forest]
    for backend_name, per_case in models.items():
        row = [backend_name]
        for cid in case_ids:
            rep = per_case[cid]
            row += [cell_with_ratio(rep.accuracy, rep.relative["accuracy"]),
                    cell_with_ratio(rep.jss, rep.relative["jss"])]
        rows.append(row)
    return _table(_case_header("Model", case_ids), rows)


def ablation_table_markdown(
    case_ids: Sequence[str],
    rows: Sequence[tuple[str, Mapping[str, tuple[float, float]]]],
) -> str:
    """rows: (mask label, {case_id: (acc, jss)}); per-column minima bold."""
    minima = {
        (cid, k): min(round_half_away(cells[cid][k], 2) for _, cells in rows)
        for cid in case_ids for k in (0, 1)
    }
    table = []
    for label, cells in rows:
        row = [label]
        for cid in case_ids:
            for k in (0, 1):
                text = fmt2(cells[cid][k])
                if round_half_away(cells[cid][k], 2) == minima[(cid, k)]:
                    text = f"**{text}**"
                row.append(text)
        table.append(row)
    return _table(_case_header("Features", case_ids), table)


def equality_matrix_markdown(attribute: str, verdict: EqualityVerdict) -> str:
    table = _table(["Group", "Accuracy", "n"], [
        [_group_name(group), fmt2(acc), str(verdict.group_sizes.get(group, "-"))]
        for group, acc in verdict.accuracy.items()
    ])
    status = "satisfied" if verdict.satisfied else "violated"
    return (f"### Accuracy equality: {attribute}\n\n{table}\n\n"
            f"Max pairwise gap {verdict.max_gap:.4f} vs tolerance "
            f"{verdict.tolerance:.4f}: **{status}**")


# what json.dumps writes for a str, with its default ensure_ascii
_json_str = json.encoder.encode_basestring_ascii


def prediction_lines(cell: CellResult) -> str:
    """The ``predictions.jsonl`` lines of a cell, one per prediction.

    A line is ``json.dumps(record, sort_keys=True)`` of the record with the
    prediction's respondent_id, question_id, backend, raw_text, parsed
    (None or an int) and note, and the cell's variant and mask.  Volatile
    fields are left out, so reruns of a deterministic backend write the same
    bytes.  The line is assembled from the escaped fields, in sorted key
    order with the default separators; the cell's fields are escaped once.
    """
    mask, variant = _json_str(cell.mask_label), _json_str(cell.variant)
    p = Predictions.of(cell.predictions)
    return "".join([
        f'{{"backend": {_json_str(backend)}, "mask": {mask}, '
        f'"note": {_json_str(note)}, '
        f'"parsed": {"null" if parsed is None else int.__repr__(parsed)}, '
        f'"question_id": {_json_str(qid)}, '
        f'"raw_text": {_json_str(raw)}, '
        f'"respondent_id": {_json_str(rid)}, '
        f'"variant": {variant}}}\n'
        for rid, qid, backend, raw, parsed, note in zip(
            p.respondent_ids, p.question_ids, p.backends, p.raw_texts,
            p.parsed, p.notes)
    ])


# the fields of a predictions.jsonl record, each with the type it must have
_RECORD = {"respondent_id": str, "question_id": str, "backend": str,
           "raw_text": str, "parsed": (int, type(None)), "note": str,
           "variant": str, "mask": str}


def _record(line: bytes, path, number: int) -> dict:
    """Line ``number`` of the log at ``path`` as a record; a line that is no
    JSON object with the record's fields, each of its type, raises
    ``MalformedLog`` naming the file and the line."""
    try:
        rec = json.loads(line)
    except ValueError as exc:
        raise MalformedLog(f"{path}, line {number}: not JSON: {exc}") from None
    return checked_record(rec, _RECORD, path, number)


def read_cells(path: str | Path) -> list[CellResult]:
    """The cells of a ``predictions.jsonl`` written by ``write_bundle``,
    in file order, without their reports.  The predictions are read into
    columns, a value that recurs is kept once, and a line that is no such
    record raises ``MalformedLog`` naming the file and the line."""
    columns: dict[str, list] = {k: [] for k in _RECORD}
    share: dict = {}
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                rec = _record(line, path, number)
                for k, column in columns.items():
                    column.append(share.setdefault(rec[k], rec[k]))
    cells, start = [], 0
    for key, group in itertools.groupby(zip(
            columns["backend"], columns["question_id"], columns["variant"],
            columns["mask"])):
        part = slice(start, start + sum(1 for _ in group))
        start = part.stop
        cells.append(CellResult(*key, report=None, predictions=Predictions(
            *(tuple(columns[k][part]) for k in (
                "respondent_id", "question_id", "backend", "raw_text",
                "parsed")),
            notes=tuple(columns["note"][part]))))
    return cells


def write_regressions(out: Path, regressions: dict[str, dict]) -> None:
    """``regression_<name>__<backend>.md`` and ``.csv`` per fitted model;
    a model that could not be fitted gets only the ``.md``, which says why."""
    out.mkdir(parents=True, exist_ok=True)
    for key, bits in regressions.items():
        if "error" in bits:
            (out / f"regression_{key}.md").write_text(
                unfitted_note(bits["error"]) + "\n", encoding="utf-8")
            continue
        table = summarize(bits["fit"], bits["design"])
        (out / f"regression_{key}.md").write_text(table + "\n", encoding="utf-8")
        lines = ["term,estimate,se,z,p,stars"] + [
            f"{r['term']},{r['estimate']:.10g},{r['se']:.10g},"
            f"{r['z']:.10g},{r['p']:.10g},{r['stars']}"
            for r in to_csv_rows(bits["fit"])
        ]
        (out / f"regression_{key}.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )


def _dump_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def write_bundle(bundle: ReportBundle, schema: AttributeSchema) -> None:
    """Write every file of the bundle under ``bundle.out_dir``."""
    out = bundle.out_dir
    out.mkdir(parents=True, exist_ok=True)
    manifest = bundle.manifest
    case_ids, variants = manifest["cases"], manifest["variants"]
    # every (backend, variant, mask, case) ran, once
    index = {(c.backend, c.variant, c.mask_label, c.case_id): c.report
             for c in bundle.cells}

    _dump_json(out / "manifest.json", manifest)

    with (out / "predictions.jsonl").open("w", encoding="utf-8") as fh:
        for cell in bundle.cells:
            fh.write(prediction_lines(cell))

    _dump_json(out / "metrics.json", {
        "baseline": {cid: rep.to_dict() for cid, rep in bundle.baseline.items()},
        "cells": [
            {
                "backend": c.backend,
                "case_id": c.case_id,
                "variant": c.variant,
                "mask": c.mask_label,
                "report": c.report.to_dict(),
            }
            for c in bundle.cells
        ],
    })

    models: dict[str, dict[str, MetricReport]] = {}
    for c in bundle.primary:
        models.setdefault(c.backend, {})[c.case_id] = c.report
    md = [
        "# Audit report",
        "",
        "## Performance vs. in-sample forest ceiling",
        "",
        metric_table_markdown(case_ids, bundle.baseline, models),
        "",
        "JSS uses base-2 logarithms. Ratios in parentheses are "
        "model/ceiling, rounded half away from zero to 2 decimals.",
        "",
    ]
    for (backend, cid), per_case in bundle.equality.items():
        md.append(f"## Accuracy equality: {backend} / {cid}")
        md.append("")
        for attr, verdict in per_case.items():
            md.append(equality_matrix_markdown(attr, verdict))
            md.append("")
    (out / "metrics.md").write_text("\n".join(md), encoding="utf-8")

    _dump_json(out / "equality.json", {
        f"{backend}::{cid}": {
            attr: {
                "satisfied": verdict.satisfied,
                "max_gap": verdict.max_gap,
                "tolerance": verdict.tolerance,
                "accuracy": {_group_name(k): v
                             for k, v in verdict.accuracy.items()},
                "sizes": {_group_name(k): v
                          for k, v in verdict.group_sizes.items()},
            }
            for attr, verdict in per_case.items()
        }
        for (backend, cid), per_case in bundle.equality.items()
    })

    if len(manifest["masks"]) > 1:
        for bname in manifest["backends"]:
            rows = []
            for label in manifest["masks"]:
                reports = [index[(bname, variants[0], label, cid)]
                           for cid in case_ids]
                rows.append((label, {cid: (r.accuracy, r.jss)
                                     for cid, r in zip(case_ids, reports)}))
            table = ablation_table_markdown(case_ids, rows)
            (out / f"ablation_{bname}.md").write_text(
                "# Feature ablation\n\n" + table + "\n", encoding="utf-8"
            )
            _dump_json(out / f"ablation_{bname}.json", [
                {"mask": label,
                 "cells": {cid: list(vals) for cid, vals in cells_for.items()}}
                for label, cells_for in rows
            ])

    if len(variants) > 1:
        rows = []
        mask = bundle.primary[0].mask_label if bundle.primary else None
        for bname in manifest["backends"]:
            for variant in variants:
                vals = [index[(bname, variant, mask, cid)].accuracy
                        for cid in case_ids]
                if not vals:  # a schema without questions gives no cells
                    continue
                rows.append((bname, variant, harmonic_mean(vals),
                             min(vals), max(vals)))
        table = _table(["Backend", "Variant", "Harmonic mean", "Min", "Max"], [
            [bname, variant, fmt2(hm), fmt2(lo), fmt2(hi)]
            for bname, variant, hm, lo, hi in rows
        ])
        (out / "sensitivity.md").write_text(
            "# Prompt sensitivity\n\n" + table + "\n", encoding="utf-8")
        _dump_json(out / "sensitivity.json", [
            {"backend": bname, "variant": variant,
             "harmonic_mean": hm, "min": lo, "max": hi}
            for bname, variant, hm, lo, hi in rows
        ])

    write_regressions(out, bundle.regressions)

    # per-figure plot data: group series per (backend, case, attribute)
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    for c in bundle.primary:
        base = bundle.baseline[c.case_id]
        for attr in schema.names:
            series = []
            for cat in schema.attribute(attr).categories:
                acc = c.report.per_group_accuracy[attr][cat]
                jss_v = c.report.per_group_jss[attr][cat]
                series.append({
                    "group": cat,
                    "accuracy": acc,
                    "jss": jss_v,
                    "relative_accuracy":
                        ceiling_ratio(acc, base.per_group_accuracy[attr][cat]),
                    "relative_jss":
                        ceiling_ratio(jss_v, base.per_group_jss[attr][cat]),
                })
            _dump_json(
                plots / f"{c.backend}__{c.case_id}__{attr}.json",
                {"backend": c.backend, "case": c.case_id,
                 "attribute": attr, "series": series},
            )
