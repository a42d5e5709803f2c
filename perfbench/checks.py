"""Correctness checks, computed apart from the program and run untimed.

Every expected value here is tallied from the respondent CSV and the
bundle's own records with plain Python.  The only program code used is
``synthetic.brute_force_metrics``, the repository's deliberately independent
oracle.  Each check returns a list of problems; an empty list means it held.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

from surveyaudit import synthetic
from surveyaudit.gateway import Prediction

TOL = 1e-9


def bundle_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def bundle_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def read_rows(csv_path: Path) -> dict[str, dict[str, str]]:
    with csv_path.open(newline="", encoding="utf-8") as fh:
        return {row["respondent_id"]: row for row in csv.DictReader(fh)}


def read_predictions(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _jss(p: list[float], q: list[float]) -> float:
    div = 0.0
    for a, b in zip(p, q):
        m = (a + b) / 2
        if a > 0:
            div += 0.5 * a * math.log2(a / m)
        if b > 0:
            div += 0.5 * b * math.log2(b / m)
    return min(1.0, max(0.0, 1.0 - div))


def _dist(indices: list[int], k: int) -> list[float]:
    counts = Counter(indices)
    return [counts[j] / len(indices) for j in range(k)]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOL


def tally_cell(records: list[dict], rows, options, question, attributes):
    """Accuracy and JSS, overall and per group, with unparseable replies
    scored as incorrect and left out of the predicted distribution."""
    k = len(options)
    truth = [options.index(rows[r["respondent_id"]][question]) for r in records]
    parsed = [r["parsed"] for r in records]

    def score(idx):
        t = [truth[i] for i in idx]
        p = [parsed[i] for i in idx if parsed[i] is not None]
        acc = sum(parsed[i] == truth[i] for i in idx) / len(idx)
        return acc, (_jss(_dist(t, k), _dist(p, k)) if p else 0.0)

    everyone = range(len(records))
    acc, jss = score(everyone)
    groups = {}
    for attr in attributes:
        members = defaultdict(list)
        for i, r in enumerate(records):
            members[rows[r["respondent_id"]][attr.name]].append(i)
        groups[attr.name] = {cat: (len(idx), *score(idx))
                             for cat, idx in members.items()}
    return acc, jss, groups


def check_cells(out_dir: Path, rows, cases, attributes, dataset,
                majority: bool) -> list[str]:
    """Every cell of metrics.json against a tally of predictions.jsonl.

    With the mock ``majority`` backend, each prediction must also be the
    modal answer of its question, so that cell accuracy is the modal share.
    """
    problems = []
    records = defaultdict(list)
    for rec in read_predictions(out_dir / "predictions.jsonl"):
        records[(rec["backend"], rec["question_id"], rec["variant"],
                 rec["mask"])].append(rec)
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    spec = {c.question_id: c for c in cases}
    for cell in metrics["cells"]:
        key = (cell["backend"], cell["case_id"], cell["variant"], cell["mask"])
        report, recs = cell["report"], records[key]
        options = list(spec[cell["case_id"]].options)
        if majority:
            counts = Counter(row[cell["case_id"]] for row in rows.values())
            # ties go to the first option, as the mock backend breaks them
            mode = max(range(len(options)),
                       key=lambda j: (counts[options[j]], -j))
            if any(r["parsed"] != mode for r in recs):
                problems.append(f"{key}: a majority prediction is not the mode")
        acc, jss, groups = tally_cell(recs, rows, options, cell["case_id"],
                                      attributes)
        if not (_close(report["accuracy"], acc) and _close(report["jss"], jss)):
            problems.append(f"{key}: accuracy/JSS {report['accuracy']}/"
                            f"{report['jss']} != tally {acc}/{jss}")
        oracle = synthetic.brute_force_metrics(
            dataset, [Prediction(r["respondent_id"], r["question_id"],
                                 r["backend"], r["raw_text"], r["parsed"])
                      for r in recs],
            dataset.case(cell["case_id"]),
        )
        for attr in attributes:
            per = groups[attr.name]
            weighted = sum(n * j for n, _, j in per.values()) / len(recs)
            if not (_close(report["weighted_jss"][attr.name], weighted)
                    and _close(oracle["weighted_jss"][attr.name], weighted)):
                problems.append(f"{key}: weighted JSS for {attr.name} "
                                f"{report['weighted_jss'][attr.name]} != tally "
                                f"{weighted} / oracle "
                                f"{oracle['weighted_jss'][attr.name]}")
            for cat, (_, g_acc, g_jss) in per.items():
                if not (_close(report["per_group_accuracy"][attr.name][cat], g_acc)
                        and _close(report["per_group_jss"][attr.name][cat], g_jss)):
                    problems.append(f"{key}: group {attr.name}={cat} differs")
    return problems


def check_forest_ceiling(out_dir: Path, rows, cases, attributes) -> list[str]:
    """No profile-only predictor beats the per-cell modal answer in sample,
    so the forest's in-sample accuracy may not exceed that share."""
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    problems = []
    for case in cases:
        per_cell = defaultdict(Counter)
        for row in rows.values():
            cell = tuple(row[a.name] for a in attributes)
            per_cell[cell][row[case.question_id]] += 1
        best = sum(max(c.values()) for c in per_cell.values()) / len(rows)
        forest_acc = metrics["baseline"][case.question_id]["accuracy"]
        if forest_acc > best + TOL:
            problems.append(f"forest accuracy {forest_acc} on {case.question_id} "
                            f"exceeds the exact cell-mode ceiling {best}")
    return problems


def check_regression(out_dir: Path, rows, cases, attributes, regression: dict,
                     backend: str, variant: str) -> list[str]:
    """The written coefficients solve the logit score equations
    X'(y - mu) = 0 on dummies rebuilt from the CSV."""
    options = {c.question_id: list(c.options) for c in cases}
    data = [r for r in read_predictions(out_dir / "predictions.jsonl")
            if r["backend"] == backend and r["variant"] == variant
            and r["mask"] == "All"]
    by_name = {a.name: a for a in attributes}
    terms = [f"question[{c.question_id}]" for c in cases]
    for name in regression["main_effects"]:
        a = by_name[name]
        terms += [f"{name}={cat}" for cat in a.categories if cat != a.reference]
    for x, y in regression["interactions"]:
        terms += [f"{x}={cx} x {y}={cy}"
                  for cx in by_name[x].categories if cx != by_name[x].reference
                  for cy in by_name[y].categories if cy != by_name[y].reference]

    path = out_dir / f"regression_{regression['name']}__{backend}.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        beta = {r["term"]: float(r["estimate"]) for r in csv.DictReader(fh)}
    if sorted(beta) != sorted(terms):
        return [f"{path.name}: terms {sorted(beta)} != expected {sorted(terms)}"]

    def value(term, rec):
        if term.startswith("question["):
            return float(term == f"question[{rec['question_id']}]")
        row = rows[rec["respondent_id"]]
        return float(all(row[name] == cat for name, cat in
                         (part.split("=", 1) for part in term.split(" x "))))

    score = dict.fromkeys(terms, 0.0)
    for rec in data:
        x = {t: value(t, rec) for t in terms}
        eta = sum(beta[t] * v for t, v in x.items() if v)
        truth = options[rec["question_id"]].index(rows[rec["respondent_id"]][rec["question_id"]])
        resid = float(rec["parsed"] == truth) - 1.0 / (1.0 + math.exp(-eta))
        for t, v in x.items():
            score[t] += v * resid
    worst = max(abs(s) for s in score.values())
    # estimates are written with 10 significant digits, which leaves a
    # residual near 1e-8 in all; 4 digits would leave about 1e-2
    if worst > 1e-8 * len(data):
        return [f"{path.name}: score equations off by {worst:.3g} "
                f"over {len(data)} rows"]
    return []


def intended_mismatches(out_dir: Path, cases, intended: dict[str, str]
                        ) -> tuple[int, list[str]]:
    """Count live predictions whose parse is not the option the fake
    endpoint meant; a reply the endpoint never sent is a problem."""
    options = {c.question_id: list(c.options) for c in cases}
    mismatches, problems = 0, []
    for rec in read_predictions(out_dir / "predictions.jsonl"):
        label = intended.get(rec["raw_text"])
        if label is None:
            problems.append(f"reply {rec['raw_text']!r} was never sent")
            continue
        mismatches += rec["parsed"] != options[rec["question_id"]].index(label)
    return mismatches, problems[:5]
