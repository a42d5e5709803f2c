import json

from hypothesis import given
from hypothesis import strategies as st

from surveyaudit.bundle import CellResult, prediction_lines
from surveyaudit.gateway import Prediction, Predictions

# any code point, lone surrogates included, and the characters JSON escapes
_text = st.text(st.characters() | st.characters(categories=["Cs"])
                | st.sampled_from('"\\/\x00\x08\x1f\x7f é€𐏿'))
_predictions = st.builds(Prediction, respondent_id=_text, question_id=_text,
                         backend=_text, raw_text=_text,
                         parsed=st.none() | st.integers(), note=_text)


@given(variant=_text, mask=_text, predictions=st.lists(_predictions, max_size=4))
def test_prediction_lines_are_json_dumps_of_the_record(variant, mask,
                                                       predictions):
    cell = CellResult("b", "q", variant, mask, None, predictions)
    lines = prediction_lines(cell).split("\n")
    assert lines.pop() == ""
    assert lines == [
        json.dumps({"respondent_id": p.respondent_id,
                    "question_id": p.question_id, "backend": p.backend,
                    "raw_text": p.raw_text, "parsed": p.parsed, "note": p.note,
                    "variant": variant, "mask": mask}, sort_keys=True)
        for p in predictions
    ]
    columns = Predictions.of(predictions)
    assert list(columns) == predictions
    assert prediction_lines(CellResult("b", "q", variant, mask, None, columns)
                            ) == prediction_lines(cell)

