import numpy as np
import pytest

from surveyaudit.data import (Dataset, SocioProfile, distinct_rows,
                              load_dataset, save_dataset)
from surveyaudit.errors import (
    ConfigError,
    DuplicateRespondent,
    EmptyDataset,
    MissingColumn,
    UnknownAttribute,
    UnknownCategory,
)

from conftest import make_dataset, partition_by


def test_load_well_formed(csv_file, schema_yaml):
    ds = load_dataset(csv_file, schema_yaml)
    assert len(ds.profiles) == 3
    assert ds.profiles[0].respondent_id == "a1"
    assert ds.cases[0].answers == {"a1": 0, "a2": 1, "a3": 0}


def test_load_trims_whitespace(tmp_path, schema_yaml):
    path = tmp_path / "d.csv"
    path.write_text(
        "respondent_id,gender,age,vote\n a1 , Man , Young Adult , Left \n"
    )
    ds = load_dataset(path, schema_yaml)
    assert ds.profiles[0].values["gender"] == "Man"


def test_load_unknown_category_names_row_and_value(tmp_path, schema_yaml):
    path = tmp_path / "d.csv"
    path.write_text(
        "respondent_id,gender,age,vote\n"
        "a1,Man,Young Adult,Left\n"
        "a2,Womann,Adult,Right\n"
    )
    with pytest.raises(UnknownCategory) as exc:
        load_dataset(path, schema_yaml)
    assert exc.value.row == 3
    assert "Womann" in str(exc.value)
    assert exc.value.attribute == "gender"


def test_load_missing_column(tmp_path, schema_yaml):
    path = tmp_path / "d.csv"
    path.write_text("respondent_id,gender,vote\na1,Man,Left\n")
    with pytest.raises(MissingColumn, match="age"):
        load_dataset(path, schema_yaml)


def test_load_duplicate_respondent(tmp_path, schema_yaml):
    path = tmp_path / "d.csv"
    path.write_text(
        "respondent_id,gender,age,vote\n"
        "a1,Man,Young Adult,Left\na1,Woman,Adult,Right\n"
    )
    with pytest.raises(DuplicateRespondent):
        load_dataset(path, schema_yaml)


def test_load_empty(tmp_path, schema_yaml):
    path = tmp_path / "d.csv"
    path.write_text("respondent_id,gender,age,vote\n")
    with pytest.raises(EmptyDataset):
        load_dataset(path, schema_yaml)


def test_load_missing_value_rejected(tmp_path, schema_yaml):
    path = tmp_path / "d.csv"
    path.write_text("respondent_id,gender,age,vote\na1,,Adult,Left\n")
    with pytest.raises(UnknownCategory):
        load_dataset(path, schema_yaml)


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.replace("id_column: respondent_id\n", ""),
     "missing key 'id_column'"),
    (lambda t: "id_column: respondent_id\n" + t[t.index("questions:"):],
     "missing key 'attributes'"),
    (lambda t: t.replace("[Man, Woman]", "[Man]"),
     "attribute 'gender' needs >= 2 categories"),
    (lambda t: t.replace("reference: Man", "reference: Nobody"),
     "reference 'Nobody' is not a category of 'gender'"),
    (lambda t: t.replace("    options: [Left, Right]\n", ""),
     "missing key 'questions[0].options'"),
    (lambda t: "- " + t.replace("\n", "\n  "),
     "file: expected a mapping, got [{"),
    (lambda t: t.replace("[Left, Right]", "[Left, Right, Left]"),
     "case 'vote' needs >= 2 distinct options"),
], ids=["no_id_column", "no_attributes", "one_category", "unknown_reference",
        "question_without_options", "not_a_mapping", "repeated_option"])
def test_malformed_schema_names_the_file_and_key(csv_file, schema_yaml, edit,
                                                 message):
    schema_yaml.write_text(edit(schema_yaml.read_text()))
    with pytest.raises(ConfigError) as exc:
        load_dataset(csv_file, schema_yaml)
    assert str(exc.value).startswith(f"schema {schema_yaml}: {message}")


def test_load_skips_a_byte_order_mark(tmp_path, csv_file, schema_yaml):
    # spreadsheets save "CSV UTF-8" with a leading byte-order mark
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + csv_file.read_bytes())
    assert load_dataset(bom, schema_yaml) == load_dataset(csv_file, schema_yaml)


def test_round_trip(tmp_path, csv_file, schema_yaml):
    ds = load_dataset(csv_file, schema_yaml)
    save_dataset(ds, tmp_path / "out.csv", tmp_path / "out_schema.yaml")
    again = load_dataset(tmp_path / "out.csv", tmp_path / "out_schema.yaml")
    assert again == ds


def test_load_order_stable(tmp_path, schema_yaml, csv_file):
    ds = load_dataset(csv_file, schema_yaml)
    lines = csv_file.read_text().strip().split("\n")
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([lines[0]] + list(reversed(lines[1:]))) + "\n")
    ds2 = load_dataset(shuffled, schema_yaml)
    assert {p.respondent_id for p in ds2.profiles} == {
        p.respondent_id for p in ds.profiles
    }
    assert ds2.cases[0].answers == ds.cases[0].answers
    for attr in ds.schema.names:
        assert partition_by(ds2, attr) == partition_by(ds, attr)


def test_partition_disjoint_exhaustive():
    ds = make_dataset(n=10)
    groups = partition_by(ds, "gender")
    assert [g for g, _ in groups] == ["Man", "Woman"]
    sizes = [len(ids) for _, ids in groups]
    assert sum(sizes) == 10
    assert not (groups[0][1] & groups[1][1])


def test_partition_empty_category():
    ds = make_dataset(n=4, schema=None)
    # ages cycle Young/Adult/Senior/Young: all categories hit with n=4;
    # use n=2 so Senior Adult is empty
    ds = make_dataset(n=2)
    groups = dict(partition_by(ds, "age"))
    assert groups["Senior Adult"] == frozenset()


def test_partition_unknown_attribute(small_dataset):
    with pytest.raises(UnknownAttribute):
        partition_by(small_dataset, "shoe_size")


def test_partition_sizes_sum_over_synthetic_populations():
    for n in (1, 7, 33, 100):
        ds = make_dataset(n=n)
        for attr in ds.schema.names:
            assert sum(len(ids) for _, ids in partition_by(ds, attr)) == n



def test_dataset_refuses_an_off_schema_profile():
    # the coded view is built with the dataset, so nothing downstream
    # meets a value outside the schema
    ds = make_dataset(n=4)
    alien = SocioProfile("x", {"gender": "Man", "age": "Toddler"})
    with pytest.raises(ValueError, match="'Toddler' not a category of 'age'"):
        Dataset(ds.schema, ds.profiles + (alien,), ds.cases)


def test_distinct_rows_numbers_equal_rows_alike():
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 3, size=(200, 3))
    ids, rows = distinct_rows(codes)
    assert np.array_equal(rows[ids], codes)
    assert len({tuple(r) for r in rows}) == len(rows)
    # lexicographic order, the last column most significant
    assert [tuple(r[::-1]) for r in rows] == sorted(tuple(r[::-1]) for r in rows)
    ids, rows = distinct_rows(np.empty((0, 2), dtype=np.intp))
    assert ids.shape == (0,) and rows.shape == (0, 2)
