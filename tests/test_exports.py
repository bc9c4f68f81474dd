"""Every name a module exports resolves, and the records keep their fields."""

import importlib
import pkgutil

import pytest

import trigzeta

MODULES = ["trigzeta"] + [
    f"trigzeta.{info.name}" for info in pkgutil.iter_modules(trigzeta.__path__)
]

RECORDS = [
    pytest.param(
        trigzeta.TABLE2_ROWS[0],
        ("family", "a", "b", "sign", "kind", "p", "r", "c", "delta", "q", "k", "j"),
        id="GeneralFormulaParams",
    ),
    pytest.param(
        trigzeta.closed_form_eval(trigzeta.SeriesSpec.from_family("T1", 1), 0.3),
        ("value", "prefactor", "terms", "zeta_sderivs"),
        id="ClosedFormResult",
    ),
    pytest.param(
        trigzeta.plan_for(0.5, 0.3), ("shift_n", "correction_m", "est_error"),
        id="EulerMaclaurinPlan",
    ),
    pytest.param(
        trigzeta.SPECIAL_VALUES[0], ("function_id", "argument", "value", "exactness"),
        id="SpecialValue",
    ),
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # nothing star-imports, so a stale entry would otherwise go unnoticed
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == [], name


@pytest.mark.parametrize("record, fields", RECORDS)
def test_records_keep_their_fields_and_are_read_only(record, fields):
    assert type(record)._fields == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
