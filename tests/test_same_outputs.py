"""The file comparison of the output check, tools/same_outputs.py."""

import importlib.util
import os

import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "same_outputs.py"
)

MANIFEST = (
    b'{\n  "format": "corrcs-manifest/2",\n  "points": [\n'
    b'    {\n      "mean_nmse": 0.25,\n      "method": "bpdn"\n    }\n  ]\n}\n'
)


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


def test_equal_files_read_equal(compare):
    assert compare(MANIFEST, MANIFEST, is_json=True) == "equal"
    assert compare(b"n,mean_nmse\n1,0.25\n", b"n,mean_nmse\n1,0.25\n") == "equal"


def test_a_moved_number_reads_as_its_relative_difference(compare):
    moved = MANIFEST.replace(b"0.25", b"0.2")
    assert compare(MANIFEST, moved, is_json=True) == "max relative difference 0.2"
    assert compare(b"1,0.25\n", b"1,0.2\n") == "max relative difference 0.2"


def test_a_changed_string_reads_as_text_not_as_a_number(compare):
    # the manifest format string ends in a digit; it is text all the same
    changed = MANIFEST.replace(b"manifest/2", b"manifest/1")
    assert compare(MANIFEST, changed, is_json=True) == (
        "text differs at $.format; max relative difference 0"
    )
    assert compare(b"1,bpdn\n", b"1,biht\n") == "text differs"


def test_a_key_on_one_side_is_named_and_shared_numbers_still_compared(compare):
    # a removed config key, a renamed method and a moved number at once
    base = MANIFEST.replace(b'"format"', b'"beta": null,\n  "config": {"trials": 3},\n  "format"')
    change = MANIFEST.replace(b'"bpdn"', b'"biht"').replace(b"0.25", b"0.2")
    assert compare(base, change, is_json=True) == (
        "structure differs: only in base $.beta, $.config.trials; "
        "text differs at $.points[0].method; max relative difference 0.2"
    )
    assert compare(change, base, is_json=True).startswith(
        "structure differs: only in change $.beta, $.config.trials; "
    )


def test_many_differing_paths_are_counted_past_the_first_four(compare):
    base = b'{"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1}'
    assert compare(base, b"{}", is_json=True) == (
        "structure differs: only in base $.a, $.b, $.c, $.d and 2 more; "
        "max relative difference 0"
    )
